"""Tests for the canonical (free nilpotent) form."""

from fractions import Fraction
from math import factorial

import pytest

import oracles
from nilsteer.canonical import canonical_fields
from nilsteer.hall import build_hall_basis, evaluate_brackets
from nilsteer.poly import Poly, wdeg


def direct_monomial(basis, j):
    """Independent route: P_j = v^alpha / alpha! from the peeling."""
    e = basis.element(j)
    n = len(basis)
    p = Poly.const(n, 1)
    for k, a in enumerate(e.alpha):
        if a:
            p = p.mul(Poly.var(n, k).pow(a)).scale(
                Fraction(1, factorial(a)))
    return p


@pytest.mark.parametrize("m,r", [(2, 3), (2, 4), (2, 5), (3, 3)])
def test_monomials_match_direct_formula(m, r):
    sys = canonical_fields(m, r)
    for j in range(1, sys.n + 1):
        assert sys.monomials[j - 1] == direct_monomial(sys.basis, j), j


def test_monomials_two_four_hand_values():
    sys = canonical_fields(2, 4)
    names_terms = {
        1: {(0,) * 8: Fraction(1)},
        3: {(1, 0, 0, 0, 0, 0, 0, 0): Fraction(1)},
        4: {(2, 0, 0, 0, 0, 0, 0, 0): Fraction(1, 2)},
        5: {(1, 1, 0, 0, 0, 0, 0, 0): Fraction(1)},
        6: {(3, 0, 0, 0, 0, 0, 0, 0): Fraction(1, 6)},
        7: {(2, 1, 0, 0, 0, 0, 0, 0): Fraction(1, 2)},
        8: {(1, 2, 0, 0, 0, 0, 0, 0): Fraction(1, 2)},
    }
    for j, terms in names_terms.items():
        assert sys.monomials[j - 1].terms == terms, j


def test_dynamics_channels():
    sys = canonical_fields(2, 3)
    p, chan = sys.monomials[4], sys.basis.element(5).phi
    assert chan == 2
    assert p.terms == {(1, 1, 0, 0, 0): Fraction(1)}
    p1, chan1 = sys.monomials[0], sys.basis.element(1).phi
    assert chan1 == 1 and p1.constant_term() == 1


def test_fields_structure():
    sys = canonical_fields(2, 4)
    d1, d2 = sys.fields
    # channel of coordinate j is phi(j); generators split 1 and 2
    assert d1.comps[0].constant_term() == 1
    assert d1.comps[1].is_zero()
    assert d2.comps[1].constant_term() == 1
    # every bracket coordinate on two generators ends in generator 2
    for j in range(3, sys.n + 1):
        assert d1.comps[j - 1].is_zero()
        assert d2.comps[j - 1] == sys.monomials[j - 1]


def test_monomial_depends_only_on_earlier_vars():
    sys = canonical_fields(3, 3)
    for j in range(1, sys.n + 1):
        assert sys.monomials[j - 1].uses_only_vars_below(j - 1 if j > 1
                                                         else 0) or \
            sys.monomials[j - 1].constant_term() == 1


@pytest.mark.parametrize("m,r", [(2, 3), (2, 4), (3, 3)])
def test_brackets_at_origin_are_coordinate_directions(m, r):
    sys = canonical_fields(m, r)
    origin = [Fraction(0)] * sys.n
    brackets = evaluate_brackets(sys.basis, range(1, sys.n + 1), sys.fields)
    for j, bracket in enumerate(brackets, 1):
        vals = bracket.evaluate(origin)
        expect = [Fraction(1) if k == j - 1 else Fraction(0)
                  for k in range(sys.n)]
        assert vals == expect, j


@pytest.mark.parametrize("m,r", [(2, 3), (2, 4), (3, 2)])
def test_long_brackets_vanish_symbolically(m, r):
    sys = canonical_fields(m, r)
    deeper = build_hall_basis(m, r + 1)
    top = [e.index for e in deeper.elements if e.length == r + 1]
    for j, got in zip(top, evaluate_brackets(deeper, top, sys.fields)):
        assert got.is_zero(), j


def test_bracket_components_homogeneous():
    sys = canonical_fields(2, 4)
    w = sys.weights
    brackets = evaluate_brackets(sys.basis, range(1, sys.n + 1), sys.fields)
    for k, fld in enumerate(brackets, 1):
        wk = w[k - 1]
        for j, comp in enumerate(fld.comps):
            for expo in comp.terms:
                assert wdeg(expo, w) == w[j] - wk, (k, j)


@pytest.mark.parametrize("m,r", [(2, 4), (3, 3)])
def test_growth_vector_at_random_points(m, r):
    sys = canonical_fields(m, r)
    rng = oracles.seeded(23)
    dims = oracles.cumulative_dims(m, r)
    brackets = evaluate_brackets(sys.basis, range(1, sys.n + 1), sys.fields)
    lengths = sys.weights
    for _ in range(20):
        point = oracles.random_rational_point(sys.n, rng)
        rows = [b.evaluate(point) for b in brackets]
        for s in range(1, r + 1):
            sub = [rows[j] for j in range(sys.n) if lengths[j] <= s]
            from nilsteer.poly import rref
            _, pivots, _ = rref(sub)
            assert len(pivots) == dims[s - 1], s


def test_restriction_to_lower_depth():
    big = canonical_fields(2, 4)
    small = canonical_fields(2, 3)
    keep = small.n
    for fi in range(2):
        for j in range(keep):
            comp = big.fields[fi].comps[j]
            assert comp.uses_only_vars_below(keep)
            trimmed = Poly(keep, {e[:keep]: c
                                  for e, c in comp.terms.items()})
            assert trimmed == small.fields[fi].comps[j]


def test_metadata():
    sys = canonical_fields(2, 5)
    assert sys.n == 14
    assert sys.weights == (1, 1, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 5)
    blob = sys.to_json()
    assert blob["dimension"] == 14
    assert blob["monomials"][3 - 1] == "v1"
