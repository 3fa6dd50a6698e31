"""Privileged charts, first order models, and the anisotropic helpers.

The closed-form cases (free systems, the linear-shear identification)
pin exact values; derivative-functional sweeps check the coordinate
orders at random anchors; the continuity and ball-box assertions are
frozen from reference runs with wide margins.  The fields in a chart
come from oracles.chart_fields, which pushes their jets once through
the chart's map.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nilsteer.canonical import canonical_fields
from nilsteer.desing import desingularize
from nilsteer.errors import SingularFrame, SpecError
from nilsteer.hall import build_hall_basis, evaluate_bracket
from nilsteer.poly import (
    ExprField, Poly, WeightedPolynomialField, ecos, erat, esin, evar,
)
from nilsteer.privcoord import (
    dilate, first_order_approx, nth_root_fraction, pseudo_norm,
)
from nilsteer.sim import input_length
from nilsteer.steer import build_plan, exact_steer

F = Fraction


def shear_fields(a1, a2, b1, b2):
    n = 3

    def lin(c1, c2):
        return Poly.monomial(n, (1, 0, 0), c1).add(
            Poly.monomial(n, (0, 1, 0), c2))

    f1 = WeightedPolynomialField(
        [Poly.const(n, 1), Poly.zero(n), lin(a1, a2)])
    f2 = WeightedPolynomialField(
        [Poly.zero(n), Poly.const(n, 1), lin(b1, b2)])
    return [f1, f2]


def unicycle_fields():
    th = evar(2)
    f1 = ExprField([ecos(th), esin(th), erat(0)])
    f2 = ExprField([erat(0), erat(0), erat(1)])
    return [f1, f2]


@pytest.fixture(scope="module")
def martinet_lifted():
    n = 3
    x1sq = Poly.monomial(n, (2, 0, 0), F(1))
    f1 = WeightedPolynomialField(
        [Poly.const(n, 1), Poly.zero(n), Poly.zero(n)])
    f2 = WeightedPolynomialField([Poly.zero(n), Poly.const(n, 1), x1sq])
    basis = build_hall_basis(2, 3)
    # (1, 2, 4) is the cheapest frame at the origin (see test_desing)
    lift = desingularize([f1, f2], basis, (1, 2, 4), [F(0)] * 3)
    return list(lift.fields), basis


# ---------------------------------------------------------------------------
# Pseudo-norm and dilations


def test_pseudo_norm_values():
    assert pseudo_norm([3, 4, 9], (1, 1, 2)) == 10
    assert pseudo_norm([0, 0, 0], (1, 1, 2)) == 0
    assert pseudo_norm([F(1, 4), F(1, 9)], (1, 2)) == F(1, 4) + F(1, 3)
    # no exact root available: falls back to floats
    val = pseudo_norm([F(1, 2)], (2,))
    assert isinstance(val, float)
    assert abs(val - 0.5 ** 0.5) <= 1e-15


def test_nth_root_fraction():
    assert nth_root_fraction(F(8, 27), 3) == F(2, 3)
    assert nth_root_fraction(F(2), 2) is None
    assert nth_root_fraction(F(-1), 3) is None


def test_dilate_values():
    assert dilate([1, 1, 1], 2, (1, 1, 2)) == [2, 2, 4]
    assert dilate([5, -3, 7], 0, (1, 1, 2)) == [0, 0, 0]
    assert dilate([F(1, 2), F(3)], 1, (1, 4)) == [F(1, 2), F(3)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4), min_size=3,
                max_size=3),
       st.fractions(min_value=0, max_value=3))
def test_dilation_group_law(z, t):
    w = (1, 2, 3)
    assert dilate(dilate(z, t, w), 2, w) == dilate(z, 2 * t, w)
    if t > 0:
        back = dilate(dilate(z, t, w), 1 / t, w)
        assert back == list(z)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-4, max_value=4), min_size=3,
                max_size=3),
       st.floats(min_value=0, max_value=3))
def test_pseudo_norm_homogeneity(z, t):
    w = (1, 2, 3)
    left = pseudo_norm(dilate(z, t, w), w)
    right = t * pseudo_norm(z, w)
    assert abs(left - right) <= 1e-9 * (1.0 + right)


# ---------------------------------------------------------------------------
# First order approximation


def test_canonical_system_is_its_own_model():
    cs = canonical_fields(2, 3)
    chart = first_order_approx(cs.fields, [F(0)] * cs.n, cs.basis)
    for j in range(cs.n):
        assert chart.map.comps[j] == Poly.var(cs.n, j)
    moved = oracles.chart_fields(cs.fields, chart, cs.basis)
    for i in range(2):
        assert moved[i] == cs.fields[i]


@pytest.mark.parametrize("a1,a2,b2", [
    (F(3), F(-1), F(5)),
    (F(0), F(2), F(-7, 2)),
])
def test_linear_shear_identification(a1, a2, b2):
    fields = shear_fields(a1, a2, 1 + a2, b2)
    basis = build_hall_basis(2, 2)
    chart = first_order_approx(fields, [F(0)] * 3, basis)
    model = canonical_fields(basis.m, basis.r)
    expect = (Poly.var(3, 2)
              .add(Poly.monomial(3, (1, 1, 0), -a2))
              .add(Poly.monomial(3, (2, 0, 0), -a1 / 2))
              .add(Poly.monomial(3, (0, 2, 0), -b2 / 2)))
    assert chart.map.comps[2] == expect
    moved = oracles.chart_fields(fields, chart, basis)
    for i in range(2):
        assert moved[i] == model.fields[i]


def test_lifted_system_model_is_canonical(martinet_lifted):
    xi, basis = martinet_lifted
    anchor = [F(0)] * 5
    chart = first_order_approx(xi, anchor, basis)
    model = canonical_fields(basis.m, basis.r)
    moved = oracles.chart_fields(xi, chart, basis)
    for i in range(2):
        diff = oracles.field_sub(moved[i], model.fields[i])
        assert all(d >= 0 for d in oracles.weighted_components(diff))
    assert chart.apply(anchor) == [F(0)] * 5
    assert chart.is_exact()


def test_trig_system_residual_degrees():
    fields = unicycle_fields()
    basis = build_hall_basis(2, 2)
    chart = first_order_approx(fields, [F(0)] * 3, basis)
    model = canonical_fields(basis.m, basis.r)
    moved = oracles.chart_fields(fields, chart, basis)
    for i in range(2):
        diff = oracles.field_sub(moved[i], model.fields[i])
        assert all(d >= 0 for d in oracles.weighted_components(diff))
    # z = (x, theta, -y + x*theta), worked out by hand
    assert chart.map.comps[0] == Poly.var(3, 0)
    assert chart.map.comps[1] == Poly.var(3, 2)
    expect = Poly.var(3, 1).scale(F(-1)).add(Poly.monomial(3, (1, 0, 1),
                                                           F(1)))
    assert chart.map.comps[2] == expect


def test_singular_anchor_is_rejected():
    # the length-2 bracket vanishes at the origin, so this system is
    # not free there even though its dimension matches
    fields = shear_fields(F(0), F(0), F(0), F(0))
    comps = list(fields[1].comps)
    comps[2] = Poly.monomial(3, (2, 0, 0), F(1))
    fields[1] = WeightedPolynomialField(comps)
    basis = build_hall_basis(2, 2)
    with pytest.raises(SingularFrame):
        first_order_approx(fields, [F(0)] * 3, basis)
    chart = first_order_approx(fields, [F(1, 2), F(0), F(0)], basis)
    assert chart.apply([F(1, 2), F(0), F(0)]) == [F(0)] * 3


def test_dimension_mismatches_are_rejected(martinet_lifted):
    xi, basis = martinet_lifted
    with pytest.raises(SpecError):
        first_order_approx(xi, [F(0)] * 3, basis)
    with pytest.raises(SpecError):
        first_order_approx(xi[:1], [F(0)] * 5, basis)


def test_round_trip_and_json(martinet_lifted):
    xi, basis = martinet_lifted
    a = [0.3, -0.2, 0.1, 0.05, -0.4]
    chart = first_order_approx(xi, a, basis)
    pt = [0.7, -0.3, 0.2, 0.6, -0.1]
    z = chart.apply(pt)
    back = chart.apply_inverse(z)
    assert max(abs(p - q) for p, q in zip(pt, back)) <= 1e-12
    blob = chart.to_json()
    assert blob["weights"] == list(basis.free_weights)
    assert len(blob["forward"]) == 5 and len(blob["inverse"]) == 5


# ---------------------------------------------------------------------------
# Coordinate orders at random anchors


def check_orders(fields, chart, basis, tol=None):
    dim = len(basis)
    wt = chart.weights
    w1 = (1,) * dim
    cap = 2 * basis.r + 1
    jets = [f.with_weights(w1)
            for f in oracles.chart_fields(fields, chart, basis)]
    frames = [evaluate_bracket(basis, j, jets, weights=w1, wcap=cap)
              for j in range(1, dim + 1)]
    for j in range(dim):
        target = Poly.var(dim, j)
        for k in range(1, wt[j]):
            for word in itertools.combinations_with_replacement(
                    range(dim), k):
                if sum(wt[p] for p in word) >= wt[j]:
                    continue
                cur = target
                for p in reversed(word):
                    cur = frames[p].apply_to(cur)
                val = cur.constant_term()
                if tol is None:
                    assert val == 0, (j + 1, word, val)
                else:
                    assert abs(float(val)) <= tol, (j + 1, word, val)
        own = frames[j].apply_to(target).constant_term()
        assert abs(float(own)) > 0.5


def test_orders_canonical_random_anchors():
    cs = canonical_fields(2, 3)
    rng = oracles.seeded(41)
    for _ in range(10):
        a = oracles.random_rational_point(cs.n, rng)
        check_orders(cs.fields, first_order_approx(cs.fields, a, cs.basis),
                     cs.basis)


def test_orders_lifted_random_anchors(martinet_lifted):
    xi, basis = martinet_lifted
    rng = oracles.seeded(42)
    for _ in range(10):
        a = oracles.random_rational_point(5, rng)
        check_orders(xi, first_order_approx(xi, a, basis), basis)


def test_orders_unicycle_random_anchors():
    fields = unicycle_fields()
    basis = build_hall_basis(2, 2)
    rng = oracles.seeded(43)
    for _ in range(10):
        a = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        check_orders(fields, first_order_approx(fields, a, basis), basis,
                     tol=1e-9)


# ---------------------------------------------------------------------------
# Continuity and the ball-box surrogate


def test_chart_varies_continuously(martinet_lifted):
    xi, basis = martinet_lifted
    a = [0.3, -0.2, 0.1, 0.05, -0.4]

    def coeffs(anchor):
        out = {}
        chart = first_order_approx(xi, anchor, basis)
        for j, c in enumerate(chart.map.comps):
            for expo, v in c.terms.items():
                out[(j, expo)] = float(v)
        return out

    base = coeffs(a)
    for h in (1e-4, 1e-5):
        worst = 0.0
        for d in range(5):
            moved = list(a)
            moved[d] += h
            other = coeffs(moved)
            keys = set(base) | set(other)
            diff = max(abs(base.get(k, 0.0) - other.get(k, 0.0))
                       for k in keys)
            worst = max(worst, diff)
        # reference slope is 1; anything bounded confirms O(|a - a'|)
        assert 0.0 < worst <= 5.0 * h


def test_pseudo_norm_bounded_by_steering_length(martinet_lifted):
    # weak ball-box direction: the pseudo-norm of the chart image is
    # dominated by the length of a constructed steering law; reference
    # run gives ratios in [0.050, 0.052]
    xi, basis = martinet_lifted
    chart = first_order_approx(xi, [F(0)] * 5, basis)
    model = canonical_fields(basis.m, basis.r)
    plan = build_plan(model)
    rng = random.Random(7)
    checked = 0
    for _ in range(15):
        x = [F(rng.randint(-8, 8), 16) for _ in range(5)]
        z = chart.apply(x)
        nz = pseudo_norm(z, chart.weights)
        if nz == 0:
            continue
        law = exact_steer(z, model, plan)
        ell = input_length(law)
        assert float(nz) <= 0.1 * ell
        checked += 1
    assert checked >= 10
