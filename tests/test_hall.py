"""Tests for the Hall basis construction."""

from fractions import Fraction

import pytest
import sympy

import oracles
from nilsteer import hall
from nilsteer.canonical import canonical_fields
from nilsteer.errors import SpecError
from nilsteer.hall import build_hall_basis, evaluate_brackets
from nilsteer.poly import Poly, WeightedPolynomialField


def as_items(basis):
    out = []
    for e in basis.elements:
        if e.is_generator():
            out.append(("gen", e.gen))
        else:
            out.append(("br", e.left - 1, e.right - 1))
    return out


# expected structure for two generators up to length five, worked out
# by hand from the membership conditions
TWO_FIVE = [
    ("gen", 1), ("gen", 2),
    (3, 1, 2), (4, 1, 3), (5, 2, 3),
    (6, 1, 4), (7, 2, 4), (8, 2, 5),
    (9, 1, 6), (10, 2, 6), (11, 2, 7), (12, 2, 8),
    (13, 3, 4), (14, 3, 5),
]

TWO_FIVE_DELTA = {
    3: (1, 1), 4: (2, 1), 5: (1, 2), 6: (3, 1), 7: (2, 2), 8: (1, 3),
    9: (4, 1), 10: (3, 2), 11: (2, 3), 12: (1, 4), 13: (3, 2),
    14: (2, 3),
}

TWO_FIVE_ALPHA = {
    3: {1: 1}, 4: {1: 2}, 5: {1: 1, 2: 1}, 6: {1: 3}, 7: {1: 2, 2: 1},
    8: {1: 1, 2: 2}, 9: {1: 4}, 10: {1: 3, 2: 1}, 11: {1: 2, 2: 2},
    12: {1: 1, 2: 3}, 13: {1: 2, 3: 1}, 14: {1: 1, 2: 1, 3: 1},
}


def test_two_five_structure_matches_hand_table():
    basis = build_hall_basis(2, 5)
    assert len(basis) == 14
    for row in TWO_FIVE:
        if row[0] == "gen":
            continue
        idx, left, right = row
        e = basis.element(idx)
        assert (e.left, e.right) == (left, right), idx
    for idx, delta in TWO_FIVE_DELTA.items():
        assert basis.element(idx).delta == delta, idx
    for idx, alpha in TWO_FIVE_ALPHA.items():
        got = {k + 1: a for k, a in enumerate(basis.element(idx).alpha)
               if a}
        assert got == alpha, idx
        assert basis.element(idx).phi == 2


@pytest.mark.parametrize("m,r", [(1, 3), (2, 3), (2, 5), (2, 6),
                                 (3, 4), (4, 3)])
def test_dimensions_match_moebius_counts(m, r):
    basis = build_hall_basis(m, r)
    assert list(basis.level_dims) == oracles.cumulative_dims(m, r)
    assert basis.free_weights == tuple(e.length for e in basis.elements)


@pytest.mark.parametrize("m,r", [(2, 5), (2, 6), (3, 4)])
def test_family_satisfies_membership_conditions(m, r):
    basis = build_hall_basis(m, r)
    errors = oracles.hall_family_errors(as_items(basis), m, r)
    assert errors == []


def test_delta_matches_leaf_count_oracle():
    basis = build_hall_basis(3, 4)
    counts = oracles.leaf_counts(as_items(basis), 3)
    for e, c in zip(basis.elements, counts):
        assert e.delta == c


def test_alpha_accounts_for_length():
    basis = build_hall_basis(3, 5)
    for e in basis.elements:
        total = 1 + sum(a * basis.element(k + 1).length
                        for k, a in enumerate(e.alpha))
        assert total == e.length


def test_decompose_and_interning():
    basis = build_hall_basis(2, 4)
    phi, alpha = basis.element(3).phi, basis.element(3).alpha
    assert phi == 2
    assert alpha[0] == 1 and sum(alpha) == 1
    again = build_hall_basis(2, 4)
    assert [e for e in again.elements] == [e for e in basis.elements]


def test_classes_two_four_all_singletons():
    basis = build_hall_basis(2, 4)
    classes = basis.classes
    assert len(classes) == 8
    assert all(len(c) == 1 for c in classes)


def test_classes_two_five_pairs():
    basis = build_hall_basis(2, 5)
    classes = basis.classes
    assert len(classes) == 12
    by_delta = {basis.element(c[0]).delta: tuple(c) for c in classes}
    assert by_delta[(3, 2)] == (10, 13)
    assert by_delta[(2, 3)] == (11, 14)
    # ordered by smallest member
    firsts = [c[0] for c in classes]
    assert firsts == sorted(firsts)
    # generators sit in their own classes
    assert classes[0] == (1,) and classes[1] == (2,)


def test_phi_three_generators():
    basis = build_hall_basis(3, 3)
    for e in basis.elements:
        if e.is_generator():
            assert e.phi == e.gen
        else:
            inner = basis.element(e.right)
            assert e.phi == (inner.phi if not inner.is_generator()
                             else inner.gen)


def martinet_fields():
    x1sq = Poly(3, {(2, 0, 0): Fraction(1)})
    v1 = WeightedPolynomialField([Poly.const(3, 1), Poly.zero(3),
                                  Poly.zero(3)])
    v2 = WeightedPolynomialField([Poly.zero(3), Poly.const(3, 1), x1sq])
    return [v1, v2]


def test_evaluate_bracket_hand_values():
    basis = build_hall_basis(2, 3)
    b3, b4, b5 = evaluate_brackets(basis, [3, 4, 5], martinet_fields())
    assert b3.comps[2].terms == {(1, 0, 0): Fraction(2)}
    assert b4.comps[2].terms == {(0, 0, 0): Fraction(2)}
    assert b5.is_zero()


def test_bracket_table_brackets_each_element_once(monkeypatch):
    calls = []

    def counting(v, w, cap=None):
        calls.append(cap)
        return real(v, w, cap)

    real = hall.lie_bracket
    monkeypatch.setattr(hall, "lie_bracket", counting)
    system = canonical_fields(2, 4)
    table = evaluate_brackets(system.basis, range(1, 9), system.fields)
    # six brackets among the eight (2,4) elements, one call each: one
    # memo per element would redo [X1,X2] for every longer element
    assert len(calls) == 6
    assert table[:2] == list(system.fields)


def test_evaluate_bracket_matches_sympy_oracle():
    rng = oracles.seeded(11)
    basis = build_hall_basis(2, 4)
    xs = sympy.symbols("x1:4")

    def rand_field():
        comps = []
        for _ in range(3):
            terms = {}
            for _ in range(2):
                expo = tuple(rng.randint(0, 1) for _ in range(3))
                terms[expo] = oracles.random_fraction(rng)
            comps.append(Poly(3, terms))
        return WeightedPolynomialField(comps)

    def to_sym(field):
        out = []
        for comp in field.comps:
            total = sympy.S(0)
            for e, c in comp.terms.items():
                t = sympy.Rational(c.numerator, c.denominator)
                for x, a in zip(xs, e):
                    t *= x ** a
                total += t
            out.append(total)
        return out

    fields = [rand_field(), rand_field()]
    sym = {1: to_sym(fields[0]), 2: to_sym(fields[1])}

    def sym_eval(j):
        e = basis.element(j)
        if e.is_generator():
            return sym[e.gen]
        return oracles.sym_bracket(sym_eval(e.left), sym_eval(e.right),
                                   xs)

    indices = range(3, len(basis) + 1)
    for j, got in zip(indices, evaluate_brackets(basis, indices, fields)):
        want = sym_eval(j)
        for g, s in zip(to_sym(got), want):
            assert sympy.simplify(g - s) == 0


def test_rejects_bad_sizes():
    with pytest.raises(SpecError):
        build_hall_basis(0, 3)
    with pytest.raises(SpecError):
        build_hall_basis(2, 0)
    basis = build_hall_basis(2, 3)
    with pytest.raises(SpecError):
        evaluate_brackets(basis, [3], [martinet_fields()[0]])
