"""Frame selection and the lifting chain.

The oracle examples are small enough to trace by hand.  The flat
system with a squared drift needs fibers for exactly two bracket
directions and its lifted fields can be written down directly; the
homogeneous identification on a three-dimensional shear system has a
closed-form answer; free systems must come back unchanged.  Rank and
derivative-functional checks pin the structural claims: coordinate
orders equal the weights, growth vectors fill up to the free
dimensions, and nilpotency survives the lift.  Charts are judged as
the planner builds them: first_order_approx on the lifted fields at
the lifted anchor, with the fields read in the chart through
oracles.chart_fields.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import pytest

import oracles
from nilsteer import desing, privcoord
from nilsteer.canonical import canonical_fields
from nilsteer.desing import (
    _det_gate, cheapest_frame, desingularize, frame_combos, frame_values,
    growth_vector,
)
from nilsteer.errors import SingularFrame, SpecError
from nilsteer.hall import build_hall_basis, evaluate_brackets
from nilsteer.poly import (
    ExprField, Poly, WeightedPolynomialField, det_matrix,
    eadd, ecos, emul, erat, esin, evar, is_exact, wdeg,
)
from nilsteer.privcoord import first_order_approx

F = Fraction


def drift_fields(*exponents):
    """X1 = d1, X2 = d2 + (the sum of the monomials x^e) d3."""
    n = 3
    drift = Poly.zero(n)
    for expo in exponents:
        drift = drift.add(Poly.monomial(n, expo, F(1)))
    f1 = WeightedPolynomialField(
        [Poly.const(n, 1), Poly.zero(n), Poly.zero(n)])
    f2 = WeightedPolynomialField([Poly.zero(n), Poly.const(n, 1), drift])
    return [f1, f2]


def martinet_fields():
    """Forward drive plus a sideways drift that grows with x1 squared."""
    return drift_fields((2, 0, 0))


def unicycle_fields():
    th = evar(2)
    f1 = ExprField([ecos(th), esin(th), erat(0)])
    f2 = ExprField([erat(0), erat(0), erat(1)])
    return [f1, f2]


def cosine_fields():
    """X1 = d1, X2 = d2 + (1 - cos x1) d3: Martinet's singular plane
    with a trig field, so the lift keeps expression fields."""
    x1 = evar(0)
    f1 = ExprField([erat(1), erat(0), erat(0)])
    f2 = ExprField([erat(0), erat(1),
                    eadd(erat(1), emul(erat(-1), ecos(x1)))])
    return [f1, f2]


def origin(n):
    return [F(0)] * n


def frame_at(fields, basis, a):
    """The cheapest spanning bracket frame at a point, as (indices,
    det), or None when no frame spans there."""
    values = frame_values(
        evaluate_brackets(basis, range(1, len(basis) + 1), fields), a)

    def rows_of(combo):
        return [[row[j - 1] for j in combo] for row in values]

    def det_at(_, combo):
        rows = rows_of(combo)
        det = det_matrix(rows)
        return abs(float(det)) if _det_gate(det, rows) else None

    combo = cheapest_frame(frame_combos(basis, len(values)), [a], det_at)
    if combo is None:
        return None
    return combo, det_matrix(rows_of(combo))


def gate_holds(fields, basis, indices, point):
    """Whether the frame's determinant clears the gate at point."""
    rows = frame_values(evaluate_brackets(basis, indices, fields), point)
    return _det_gate(det_matrix(rows), rows)


def lift_at(fields, basis, a):
    indices, _ = frame_at(fields, basis, a)
    return desingularize(fields, basis, indices, a)


def lift_chart(lift, basis, anchor):
    """The privileged chart the planner steers the lift in: the first
    order approximation of the lifted fields at the lifted anchor."""
    return first_order_approx(list(lift.fields), lift.lift_point(anchor),
                              basis)


@pytest.fixture(scope="module")
def martinet_lift():
    return lift_at(martinet_fields(), build_hall_basis(2, 3), origin(3))


@pytest.fixture(scope="module")
def unicycle_lift():
    return lift_at(unicycle_fields(), build_hall_basis(2, 2), origin(3))


@pytest.fixture(scope="module")
def cosine_lift():
    return lift_at(cosine_fields(), build_hall_basis(2, 3), origin(3))


@pytest.fixture(scope="module")
def martinet_chart(martinet_lift):
    return lift_chart(martinet_lift, build_hall_basis(2, 3), origin(3))


@pytest.fixture(scope="module")
def unicycle_chart(unicycle_lift):
    return lift_chart(unicycle_lift, build_hall_basis(2, 2), origin(3))


def low_order_words(basis, lift, chart, tol=None):
    """Check every sorted derivative word of weighted degree below a
    coordinate's weight kills that coordinate at the chart's anchor."""
    dim = len(basis)
    wt = basis.free_weights
    cap = 2 * basis.r + 1
    jets = oracles.chart_fields(lift.fields, chart, basis)
    frames = evaluate_brackets(basis, range(1, dim + 1), jets, cap)
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
        # the coordinate's own frame direction reaches it at weight wt[j]
        own = frames[j].apply_to(target).constant_term()
        if tol is None:
            assert own != 0
        else:
            assert abs(float(own)) > 0.5


# ---------------------------------------------------------------------------
# Frame selection


def test_unicycle_frame_spans_with_unit_determinant():
    fields = unicycle_fields()
    basis = build_hall_basis(2, 2)
    # det = cos^2 + sin^2 = 1 at every anchor, worked out by hand
    indices, det = frame_at(fields, basis, origin(3))
    assert indices == (1, 2, 3)
    assert det == 1
    for anchor in ([0.4, -0.2, 0.9], [3.0, 1.0, -2.4]):
        indices, det = frame_at(fields, basis, anchor)
        assert indices == (1, 2, 3)
        assert abs(abs(float(det)) - 1.0) <= 1e-12


def test_martinet_frame_skips_the_vanishing_bracket():
    fields = martinet_fields()
    basis = build_hall_basis(2, 3)
    indices, det = frame_at(fields, basis, origin(3))
    # [f1, f2] = 2*x1*d3 vanishes on the plane x1 = 0, so the length-3
    # bracket must stand in for it
    assert indices == (1, 2, 4)
    assert det == 2
    assert tuple(basis.element(j).length for j in indices) == (1, 1, 3)
    assert frame_at(fields, basis, [F(1, 2), F(0), F(0)]) == ((1, 2, 3), 1)


def test_canonical_frame_is_the_identity():
    cs = canonical_fields(2, 3)
    indices, det = frame_at(cs.fields, cs.basis, origin(cs.n))
    assert indices == tuple(range(1, cs.n + 1))
    assert det == 1


def test_no_frame_when_brackets_never_span():
    n = 2
    f1 = WeightedPolynomialField([Poly.const(n, 1), Poly.zero(n)])
    f2 = WeightedPolynomialField([Poly.var(n, 0), Poly.zero(n)])
    assert frame_at([f1, f2], build_hall_basis(2, 3), origin(2)) is None


def test_frame_prefers_the_shortest_level():
    # a tiny but exactly nonzero direct determinant beats any longer
    # bracket combination; dropping it to zero falls through to the
    # next level
    n = 2
    basis = build_hall_basis(2, 2)
    f1 = WeightedPolynomialField([Poly.const(n, 1), Poly.zero(n)])
    eps = Poly.monomial(n, (1, 0), F(1)).add(Poly.const(n, F(1, 1000)))
    f2 = WeightedPolynomialField([Poly.zero(n), eps])
    assert frame_at([f1, f2], basis, origin(2)) == ((1, 2), F(1, 1000))
    f2z = WeightedPolynomialField([Poly.zero(n), Poly.monomial(n, (1, 0),
                                                               F(1))])
    assert frame_at([f1, f2z], basis, origin(2)) == ((1, 3), 1)


def test_frame_takes_the_largest_determinant_on_a_level():
    n = 2
    f1 = WeightedPolynomialField([Poly.const(n, 1), Poly.zero(n)])
    f2 = WeightedPolynomialField([Poly.const(n, 2), Poly.zero(n)])
    f3 = WeightedPolynomialField([Poly.zero(n), Poly.const(n, 1)])
    assert frame_at([f1, f2, f3], build_hall_basis(3, 1),
                    origin(2)) == ((2, 3), 2)


def test_cell_membership_follows_the_determinant():
    fields = martinet_fields()
    basis = build_hall_basis(2, 3)
    forced = (1, 2, 3)
    assert not gate_holds(fields, basis, forced, origin(3))
    assert gate_holds(fields, basis, forced, [F(1, 2), F(0), F(0)])
    picked, _ = frame_at(fields, basis, origin(3))
    assert gate_holds(fields, basis, picked, origin(3))
    assert gate_holds(fields, basis, picked, [0.8, -0.3, 0.1])


# ---------------------------------------------------------------------------
# The lift itself


def test_martinet_lift_matches_the_hand_computation(martinet_lift,
                                                   martinet_chart):
    # integrating the fiber rates by hand: v3 runs at x1^2... no, at the
    # canonical monomial of [f1,f2] read through the level-1 chart,
    # which is x1; v5's monomial is x1*x2
    lift = martinet_lift
    assert lift.fields[0].n == 5
    assert lift.fiber_order == (3, 5)
    assert frame_at(martinet_fields(), build_hall_basis(2, 3),
                    origin(3))[0] == (1, 2, 4)
    N = 5
    mono = lambda expo, c=F(1): Poly.monomial(N, expo, c)
    exp1 = [Poly.const(N, 1)] + [Poly.zero(N)] * 4
    exp2 = [Poly.zero(N), Poly.const(N, 1), mono((2, 0, 0, 0, 0)),
            mono((1, 0, 0, 0, 0)), mono((1, 1, 0, 0, 0))]
    assert all(isinstance(f, WeightedPolynomialField) for f in lift.fields)
    assert list(lift.fields[0].comps) == exp1
    assert list(lift.fields[1].comps) == exp2
    # chart: base coordinates pass through, the frame's length-3
    # bracket equals 2*d3 so its coordinate is x3/2, and the two fiber
    # variables are already privileged
    chart = martinet_chart.map
    assert chart.comps[0] == Poly.var(N, 0)
    assert chart.comps[1] == Poly.var(N, 1)
    assert chart.comps[2] == Poly.var(N, 3)
    assert chart.comps[3] == mono((0, 0, 1, 0, 0), F(1, 2))
    assert chart.comps[4] == Poly.var(N, 4)
    assert oracles.check_inverse(chart)
    assert all(is_exact(v) for c in chart.comps for v in c.terms.values())
    assert chart.apply(lift.lift_point(origin(3))) == [F(0)] * 5


def test_lifted_fields_project_onto_the_base(martinet_lift, unicycle_lift,
                                             cosine_lift):
    for xi, X in zip(martinet_lift.fields, martinet_fields()):
        assert list(xi.comps[:3]) == [c.pad(5) for c in X.comps]
    for xi, X in zip(unicycle_lift.fields, unicycle_fields()):
        assert list(xi.comps) == list(X.comps)
    # a trig base lifts to expression fields with the fibers appended;
    # only X2 carries the fibers of [X1, X2] and [X2, [X1, X2]]
    assert frame_at(cosine_fields(), build_hall_basis(2, 3),
                    origin(3))[0] == (1, 2, 4)
    assert cosine_lift.fiber_order == (3, 5)
    for xi, X in zip(cosine_lift.fields, cosine_fields()):
        assert isinstance(xi, ExprField) and xi.n == 5
        assert list(xi.comps[:3]) == list(X.comps)
    assert list(cosine_lift.fields[0].comps[3:]) == [erat(0)] * 2
    assert all(c != erat(0) for c in cosine_lift.fields[1].comps[3:])


def test_projection_inverts_lifting(martinet_lift):
    x = [0.3, -0.2, 0.5]
    assert martinet_lift.project(martinet_lift.lift_point(x)) == x
    rows = [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
    assert [martinet_lift.project(row) for row in rows] == [[1, 2, 3],
                                                           [6, 7, 8]]
    with pytest.raises(SpecError):
        martinet_lift.lift_point([1.0, 2.0])


def test_lifted_growth_vector_is_free(martinet_lift, cosine_lift):
    basis = build_hall_basis(2, 3)
    for fields, lift in ((martinet_fields(), martinet_lift),
                         (cosine_fields(), cosine_lift)):
        rng = oracles.seeded(11)
        hits = 0
        for _ in range(100):
            p = [rng.uniform(-1.0, 1.0) for _ in range(5)]
            if not gate_holds(fields, basis, (1, 2, 4), p[:3]):
                continue
            assert growth_vector(lift.fields, basis, p) == (2, 3, 5)
            hits += 1
        assert hits == 100  # the frame cell covers the whole sample box


def test_base_growth_vector_shows_the_singular_plane():
    fields = martinet_fields()
    basis = build_hall_basis(2, 3)
    assert growth_vector(fields, basis, origin(3)) == (2, 2, 3)
    assert growth_vector(fields, basis, [0.5, 0.0, 0.0]) == (2, 3, 3)


def test_growth_vector_matches_numpy_rank(martinet_lift, cosine_lift):
    basis = build_hall_basis(2, 3)
    rng = oracles.seeded(11)
    cases = [(martinet_fields(), origin(3)), (martinet_fields(),
                                              [0.5, 0.0, 0.0])]
    for fields in (martinet_fields(), cosine_fields()):
        cases += [(fields, [rng.uniform(-1.0, 1.0), 0.0, 0.0]),
                  (fields, [0.0, rng.uniform(-1.0, 1.0), 0.3])]
    for lift in (martinet_lift, cosine_lift):
        cases += [(lift.fields, [rng.uniform(-1.0, 1.0) for _ in range(5)])
                  for _ in range(20)]
    for fields, point in cases:
        assert growth_vector(fields, basis, point) == \
            oracles.numpy_growth_vector(fields, basis, point,
                                        desing.RANK_TOL)
    for m, r in ((2, 4), (3, 3)):
        system = canonical_fields(m, r)
        point = [rng.uniform(-1.0, 1.0) for _ in range(system.n)]
        assert growth_vector(system.fields, system.basis, point) == \
            oracles.numpy_growth_vector(system.fields, system.basis, point,
                                        desing.RANK_TOL) == \
            tuple(oracles.cumulative_dims(m, r))


def test_lift_preserves_nilpotency(martinet_lift):
    # every length-4 bracket of the lifted fields vanishes as a
    # polynomial, not just at sampled points
    b4 = build_hall_basis(2, 4)
    top = [e.index for e in b4.elements if e.length == 4]
    for j, fld in zip(top, evaluate_brackets(b4, top,
                                             list(martinet_lift.fields))):
        assert fld.is_zero(), b4.name(j)


def test_projection_commutes_with_the_flow(martinet_lift):
    # run the same inputs downstairs and upstairs and compare the base
    # components of the endpoints
    fields = martinet_fields()
    lift = martinet_lift

    def controls(t):
        return math.sin(t), math.cos(2 * t)

    def base_rhs(t, x):
        u1, u2 = controls(t)
        a = fields[0].evaluate(list(x))
        b = fields[1].evaluate(list(x))
        return [u1 * float(p) + u2 * float(q) for p, q in zip(a, b)]

    def lifted_rhs(t, x):
        u1, u2 = controls(t)
        a = lift.fields[0].evaluate(list(x))
        b = lift.fields[1].evaluate(list(x))
        return [u1 * float(p) + u2 * float(q) for p, q in zip(a, b)]

    x0 = [0.2, -0.1, 0.3]
    for t_end in (0.7, 2.0):
        down = oracles.propagate_ode(base_rhs, x0, t_end,
                                     rtol=1e-10, atol=1e-10)
        up = oracles.propagate_ode(lifted_rhs, lift.lift_point(x0), t_end,
                                   rtol=1e-10, atol=1e-10)
        err = max(abs(p - q) for p, q in zip(down, lift.project(up)))
        assert err <= 1e-8


def test_free_input_comes_back_unchanged():
    cs = canonical_fields(2, 3)
    lift = lift_at(cs.fields, cs.basis, origin(cs.n))
    assert lift.fiber_order == ()
    assert lift.fields[0].n == cs.n
    assert list(lift.fields) == list(cs.fields)
    chart = lift_chart(lift, cs.basis, origin(cs.n))
    for j in range(cs.n):
        assert chart.map.comps[j] == Poly.var(cs.n, j)
    moved = oracles.chart_fields(lift.fields, chart, cs.basis)
    for i in range(2):
        assert moved[i] == cs.fields[i]


def test_disguised_canonical_system_lands_on_canonical():
    # adding an integrable shear to one rate leaves a system that is
    # still free; the chart must absorb it exactly
    cs = canonical_fields(2, 3)
    fields = list(cs.fields)
    comps = list(fields[1].comps)
    comps[3] = comps[3].add(Poly.var(cs.n, 1))
    fields[1] = WeightedPolynomialField(comps)
    lift = lift_at(fields, cs.basis, origin(cs.n))
    chart = lift_chart(lift, cs.basis, origin(cs.n))
    expect = Poly.var(cs.n, 3).sub(Poly.monomial(cs.n, (0, 2, 0, 0, 0),
                                                 F(1, 2)))
    assert chart.map.comps[3] == expect
    moved = oracles.chart_fields(lift.fields, chart, cs.basis)
    for i in range(2):
        assert moved[i] == cs.fields[i]


@pytest.mark.parametrize("a1,a2,b2", [
    (F(3), F(-1), F(5)),
    (F(0), F(2), F(-7, 2)),
])
def test_identification_has_the_closed_form_answer(a1, a2, b2):
    # two shear fields whose third components are linear; the unique
    # homogeneous correction is
    #   z3 = x3 - a2*x1*x2 - a1/2*x1^2 - b2/2*x2^2
    # provided b1 - a2 = 1
    b1 = 1 + a2
    n = 3

    def lin(c1, c2):
        return Poly.monomial(n, (1, 0, 0), c1).add(
            Poly.monomial(n, (0, 1, 0), c2))

    f1 = WeightedPolynomialField(
        [Poly.const(n, 1), Poly.zero(n), lin(a1, a2)])
    f2 = WeightedPolynomialField(
        [Poly.zero(n), Poly.const(n, 1), lin(b1, b2)])
    basis = build_hall_basis(2, 2)
    indices, _ = frame_at([f1, f2], basis, origin(3))
    assert indices == (1, 2, 3)
    lift = desingularize([f1, f2], basis, indices, origin(3))
    chart = lift_chart(lift, basis, origin(3))
    expect = (Poly.var(n, 2)
              .add(Poly.monomial(n, (1, 1, 0), -a2))
              .add(Poly.monomial(n, (2, 0, 0), -a1 / 2))
              .add(Poly.monomial(n, (0, 2, 0), -b2 / 2)))
    assert chart.map.comps[0] == Poly.var(n, 0)
    assert chart.map.comps[1] == Poly.var(n, 1)
    assert chart.map.comps[2] == expect
    model = canonical_fields(2, 2)
    moved = oracles.chart_fields(lift.fields, chart, basis)
    for i in range(2):
        assert moved[i] == model.fields[i]


def test_bad_frame_surfaces_as_singular():
    # [f1, f2] vanishes at the origin, so the frame (1, 2, 3) is
    # singular there, whether or not a fiber is needed on top of it
    fields = martinet_fields()
    with pytest.raises(SingularFrame):
        desingularize(fields, build_hall_basis(2, 3), (1, 2, 3), origin(3))
    with pytest.raises(SingularFrame) as info:
        desingularize(fields, build_hall_basis(2, 2), (1, 2, 3), origin(3))
    assert info.value.payload == {"frame": [1, 2, 3], "anchor": [0.0] * 3}


def test_rounds_stop_below_the_last_fiber_level(monkeypatch):
    levels = []

    def counting(shadows, basis, coords, s, cap):
        levels.append(s)
        return real(shadows, basis, coords, s, cap)

    real = desing._chart_round
    monkeypatch.setattr(desing, "_chart_round", counting)
    # Martinet gains fibers at levels 2 and 3: their rates read the
    # charts of rounds 1 and 2, and no rate reads round 3
    desingularize(martinet_fields(), build_hall_basis(2, 3), (1, 2, 4),
                  origin(3))
    assert levels == [1, 2]
    # a frame of the whole basis adds no fiber and runs no round
    del levels[:]
    desingularize(unicycle_fields(), build_hall_basis(2, 2), (1, 2, 3),
                  origin(3))
    cs = canonical_fields(2, 3)
    desingularize(cs.fields, cs.basis, tuple(range(1, cs.n + 1)),
                  origin(cs.n))
    assert levels == []


def test_jets_are_truncated_only_for_chart_rounds(monkeypatch):
    caps = []

    def counting(field, point, cap):
        caps.append(cap)
        return real(field, point, cap)

    real = desing.taylor_truncate
    monkeypatch.setattr(desing, "taylor_truncate", counting)
    # the frame gate evaluates the bracket fields themselves, and a
    # unicycle lift runs no round, so nothing is truncated
    desingularize(unicycle_fields(), build_hall_basis(2, 2), (1, 2, 3),
                  origin(3))
    assert caps == []
    # Martinet's rounds truncate each field once, to 2r + 1
    desingularize(martinet_fields(), build_hall_basis(2, 3), (1, 2, 4),
                  origin(3))
    assert caps == [7, 7]


def test_frame_values_match_the_jet_route():
    # bracket fields evaluated at a point against the constant terms of
    # bracketed Taylor jets: exact at rational points, and within
    # rounding where the unicycle's trig values are floats
    rng = oracles.seeded(31)
    cubic = [martinet_fields()[0], WeightedPolynomialField(
        [Poly.zero(3), Poly.const(3, 1), Poly.monomial(3, (3, 0, 0), F(1))])]
    for fields, r in ((martinet_fields(), 3),
                      (list(canonical_fields(2, 3).fields), 3),
                      (cubic, 4)):
        basis = build_hall_basis(2, r)
        indices = range(1, len(basis) + 1)
        table = evaluate_brackets(basis, indices, fields)
        n = fields[0].n
        for p in [origin(n)] + [oracles.random_rational_point(n, rng)
                                for _ in range(4)]:
            assert frame_values(table, p) == \
                oracles.jet_bracket_values(fields, basis, indices, p)
    basis = build_hall_basis(2, 3)
    indices = range(1, len(basis) + 1)
    table = evaluate_brackets(basis, indices, unicycle_fields())
    for _ in range(5):
        p = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        got = frame_values(table, p)
        want = oracles.jet_bracket_values(unicycle_fields(), basis,
                                          indices, p)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# Chart structure


def test_coordinate_orders_match_the_weights(martinet_lift, martinet_chart,
                                             unicycle_lift, unicycle_chart):
    low_order_words(build_hall_basis(2, 3), martinet_lift, martinet_chart)
    low_order_words(build_hall_basis(2, 2), unicycle_lift, unicycle_chart)


def test_coordinate_orders_hold_at_float_anchors():
    fields = unicycle_fields()
    basis = build_hall_basis(2, 2)
    rng = oracles.seeded(23)
    for _ in range(3):
        anchor = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        lift = lift_at(fields, basis, anchor)
        low_order_words(basis, lift, lift_chart(lift, basis, anchor),
                        tol=1e-9)


def test_lift_is_a_first_order_model(martinet_lift, martinet_chart,
                                     unicycle_lift, unicycle_chart):
    # nilpotent input: the chart lands exactly on the canonical fields
    model = canonical_fields(2, 3)
    moved = oracles.chart_fields(martinet_lift.fields, martinet_chart,
                                 model.basis)
    for i in range(2):
        assert moved[i] == model.fields[i]
    # trig input: the difference only carries nonnegative weighted
    # degrees, so the canonical fields are the leading part
    model = canonical_fields(2, 2)
    moved = oracles.chart_fields(unicycle_lift.fields, unicycle_chart,
                                 model.basis)
    for i in range(2):
        diff = oracles.field_sub(moved[i], model.fields[i])
        assert all(d >= 0 for d in oracles.weighted_components(
            diff, model.basis.free_weights))


def test_unicycle_chart_is_exact_at_a_rational_anchor(unicycle_chart):
    assert all(is_exact(v) for c in unicycle_chart.map.comps
               for v in c.terms.values())
    assert oracles.check_inverse(unicycle_chart.map)


def test_per_level_identifications_are_homogeneous(monkeypatch,
                                                   martinet_lift,
                                                   unicycle_lift):
    rounds = []

    def recording(shadows, basis, coords, s, cap):
        out = real(shadows, basis, coords, s, cap)
        rounds.append((basis, coords, s, out[:3]))
        return out

    real = privcoord._chart_round
    monkeypatch.setattr(privcoord, "_chart_round", recording)
    lift_chart(martinet_lift, build_hall_basis(2, 3), origin(3))
    lift_chart(unicycle_lift, build_hall_basis(2, 2), origin(3))
    assert len(rounds) == 2
    moved = []
    for basis, coords, level, (align, correct, identify) in rounds:
        wt = tuple(basis.element(j).length for j in coords)
        dim = len(wt)
        count = 0
        for pos in range(dim):
            psi = identify.comps[pos].sub(Poly.var(dim, pos))
            if not psi.is_zero():
                count += 1
                assert psi.uses_only_vars_below(pos)
                assert {wdeg(e, wt) for e in psi.terms} == {wt[pos]}
            shift = correct.comps[pos].sub(Poly.var(dim, pos))
            if not shift.is_zero():
                assert shift.uses_only_vars_below(pos)
                assert min(sum(e) for e in shift.terms) >= 2
                top = wt[pos] - 1 if wt[pos] <= level else level
                assert max(wdeg(e, wt) for e in shift.terms) <= top
        moved.append(count)
    # the unicycle's round identifies one coordinate, so the checks
    # above have a nonzero map to judge
    assert moved[1] == 1


# Lifts at seeded anchors, two exact and two float, for every frame that
# passes the gate there: (fields, depth, sha256 of the repr of every
# lift's frame, fiber order and lifted fields, their terms in order).
PINNED_LIFTS = {
    "martinet": (
        martinet_fields, 3,
        "c347df8270330d53def324e822eb09fe7fc82dd9318e0280d85b79564a5dceaa"),
    "parabola": (
        lambda: drift_fields((2, 0, 0), (1, 2, 0)), 3,
        "e42dd456eb4c547538b5c2ce0030c7d957bc3aa9818fb1eb00021dc74e1e8b6d"),
    "x1^3": (
        lambda: drift_fields((3, 0, 0)), 4,
        "846cf818c3088bc24e36f9ddf1655cee84a87717f5c469cae6efd18dc20b7a3e"),
    "x1^2+x3^2": (
        lambda: drift_fields((2, 0, 0), (0, 0, 2)), 3,
        "5592165c2c0937ec8c0ced06fdea4674a39c000f5d5abe197f0e4f3c052d2617"),
    "unicycle": (
        unicycle_fields, 2,
        "a5cf8204d1b036438b16f40c885fc617c14eaeb5de44bb2bcae3851fa0c682bc"),
}


def pinned_lifts(name):
    """The repr of every lift of PINNED_LIFTS[name]."""
    make, r, _ = PINNED_LIFTS[name]
    fields = make()
    basis = build_hall_basis(2, r)
    rng = oracles.seeded(sorted(PINNED_LIFTS).index(name))
    anchors = [oracles.random_rational_point(3, rng, -1, 1, 4)
               for _ in range(2)]
    anchors += [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(2)]
    out = []
    for a in anchors:
        for _, frame in frame_combos(basis, 3):
            if not gate_holds(fields, basis, frame, a):
                continue
            lift = desingularize(fields, basis, frame, a)
            out.append((frame, lift.fiber_order, [
                [c.key() for c in f.comps] if isinstance(f, ExprField)
                else [list(c.terms.items()) for c in f.comps]
                for f in lift.fields]))
    return repr(out)


@pytest.mark.parametrize("name", sorted(PINNED_LIFTS))
def test_pinned_lifts(name):
    digest = PINNED_LIFTS[name][2]
    got = hashlib.sha256(pinned_lifts(name).encode()).hexdigest()
    assert got == digest
