"""Float kernels: compiled fields, law tables and the replay they drive.

Every check is bit for bit (== on floats) against the per-call exact
evaluation the kernels replace: field.evaluate() followed by float(),
and the law's term list with float() on each amplitude.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from nilsteer import sim
from nilsteer.canonical import canonical_fields
from nilsteer.desing import desingularize, select_frame
from nilsteer.hall import build_hall_basis
from nilsteer.planner import LocalSteering
from nilsteer.poly import (
    Expr, ExprField, Poly, WeightedPolynomialField, compile_field, ecos,
    eadd, emul, epow, erat, esin, evar,
)
from nilsteer.sim import input_sup_bound, integrate, reparameterize
from nilsteer.steer import ControlLaw, PiFrac, PiPoly, build_plan

N = 3


def reference(field, point):
    return [float(v) for v in field.evaluate(point)]


# The unicycle and the Martinet system, at the origin of their lift.

def unicycle_fields():
    th = evar(2)
    return [ExprField([ecos(th), esin(th), erat(0)]),
            ExprField([erat(0), erat(0), erat(1)])]


def martinet_fields():
    x1sq = Poly.monomial(N, (2, 0, 0), F(1))
    return [WeightedPolynomialField(
                [Poly.const(N, 1), Poly.zero(N), Poly.zero(N)]),
            WeightedPolynomialField([Poly.zero(N), Poly.const(N, 1), x1sq])]


def lift_of(fields, r):
    basis = build_hall_basis(2, r)
    frame = select_frame(fields, basis, [F(0)] * N)
    return desingularize(fields, frame)


@pytest.fixture(scope="module")
def unicycle_lift():
    return lift_of(unicycle_fields(), 2)


@pytest.fixture(scope="module")
def martinet_lift():
    return lift_of(martinet_fields(), 3)


# ---------------------------------------------------------------------------
# Strategies

coords = st.floats(-3.0, 3.0, allow_nan=False)
points = st.lists(coords, min_size=N, max_size=N)
fractions = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
float_coeffs = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def polys(draw, coeffs):
    kind = draw(st.sampled_from(["zero", "const", "terms", "terms"]))
    if kind == "zero":
        return Poly.zero(N)
    if kind == "const":
        return Poly.const(N, draw(coeffs))
    expos = draw(st.lists(st.tuples(*[st.integers(0, 4)] * N),
                          min_size=1, max_size=8, unique=True))
    return Poly(N, {e: draw(coeffs) for e in expos})


def poly_fields(coeffs):
    return st.lists(polys(coeffs), min_size=N, max_size=N).map(
        WeightedPolynomialField)


rats = st.one_of(fractions, st.floats(-4.0, 4.0, allow_nan=False)).map(
    lambda c: Expr("rat", c))
leaves = st.one_of(st.integers(0, N - 1).map(evar), rats)


def _extend(children):
    # Raw nodes keep unnormalised shapes (several constants, 0 and 1
    # factors); the constructors give the shapes the parser builds.
    many = st.lists(children, min_size=1, max_size=4)
    return st.one_of(
        many.map(lambda cs: Expr("add", tuple(cs))),
        many.map(lambda cs: Expr("mul", tuple(cs))),
        many.map(lambda cs: eadd(*cs)),
        many.map(lambda cs: emul(*cs)),
        st.tuples(children, st.integers(2, 3)).map(
            lambda p: Expr("pow", p[0], p[1])),
        st.tuples(children, st.integers(2, 3)).map(lambda p: epow(*p)),
        children.map(esin),
        children.map(ecos),
        children.map(lambda c: Expr("sin", c)),
        children.map(lambda c: Expr("cos", c)),
    )


exprs = st.recursive(leaves, _extend, max_leaves=12)
expr_fields = st.lists(exprs, min_size=N, max_size=N).map(ExprField)


# ---------------------------------------------------------------------------
# compile_field


@settings(max_examples=60, deadline=None)
@given(poly_fields(fractions), points)
def test_compiled_poly_field_fraction_coefficients(field, x):
    assert compile_field(field)(x) == reference(field, x)


@settings(max_examples=60, deadline=None)
@given(poly_fields(float_coeffs), points)
def test_compiled_poly_field_float_coefficients(field, x):
    assert compile_field(field)(x) == reference(field, x)


@settings(max_examples=150, deadline=None)
@given(expr_fields, points)
def test_compiled_expr_field(field, x):
    try:
        want = reference(field, x)
    except OverflowError:
        return
    assert compile_field(field)(x) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(coords, min_size=8, max_size=8))
def test_compiled_lifted_fields(unicycle_lift, martinet_lift, x):
    # Expr fields from both lifts, polynomial ones from Martinet's.
    assert unicycle_lift.xi_poly is None
    assert martinet_lift.xi_poly is not None
    for lift in (unicycle_lift, martinet_lift):
        for field in list(lift.xi) + list(lift.xi_poly or ()):
            pt = x[:field.n]
            assert compile_field(field)(pt) == reference(field, pt)


def test_float_zero_trig_argument_stays_float():
    # At a float zero sin and cos are floats too, so the sum below is
    # rounded term by term, as the kernel does, not once over Q.
    x, y = evar(0), evar(1)
    field = ExprField([eadd(emul(erat(F(1, 10)), ecos(x)),
                            emul(erat(F(2, 10)), ecos(y))),
                       esin(x), erat(F(1, 3))])
    got = field.evaluate([0.0, -0.0, 1.0])
    assert got == [0.1 + 0.2, 0.0, F(1, 3)]
    assert isinstance(got[0], float)
    assert compile_field(field)([0.0, -0.0, 1.0]) == reference(
        field, [0.0, -0.0, 1.0])


def test_compiled_long_polynomial():
    expos = [(a, b, c) for a in range(32) for b in range(32 - a)
             for c in range(32 - a - b)][:5000]
    assert len(expos) == 5000
    comp = Poly(N, {e: F((-1) ** k * (k % 13 + 1), k % 7 + 1)
                    for k, e in enumerate(expos)})
    assert len(comp.terms) == 5000
    field = WeightedPolynomialField([comp, Poly.zero(N), comp.scale(F(1, 3))])
    x = [0.91, -0.87, 0.6]
    assert compile_field(field)(x) == reference(field, x)


def test_compiled_deep_expression():
    node = evar(0)
    for depth in range(300):
        kind = depth % 4
        if kind == 0:
            node = esin(node)
        elif kind == 1:
            node = Expr("add", (node, evar(depth % N), erat(F(1, 7))))
        elif kind == 2:
            node = Expr("mul", (erat(F(5, 6)), node))
        else:
            node = ecos(node)
    field = ExprField([node, erat(0), node])
    x = [0.3, -1.1, 2.0]
    assert compile_field(field)(x) == reference(field, x)


def test_compile_rejects_other_fields():
    with pytest.raises(TypeError):
        compile_field(object())


# ---------------------------------------------------------------------------
# ControlLaw.eval against the term-by-term formula


def pi_frac(num, den):
    return PiFrac(PiPoly({1: F(num)}), PiPoly({0: F(den), 2: F(1, 3)}))


amps = st.one_of(
    st.builds(pi_frac, st.integers(-9, 9), st.integers(1, 9)),
    fractions,
    st.integers(-5, 5),
    st.floats(-20.0, 20.0, allow_nan=False),
)
terms = st.lists(st.tuples(amps, st.integers(0, 9), st.integers(0, 3)),
                 max_size=3)


@st.composite
def laws(draw):
    m = draw(st.integers(1, 3))
    periods = [{"channels": [draw(terms) for _ in range(m)]}
               for _ in range(draw(st.integers(0, 3)))]
    scale = draw(st.one_of(st.just(F(1)), fractions.filter(bool),
                           st.floats(0.1, 4.0)))
    time_scale = draw(st.one_of(st.just(F(1)), st.floats(0.2, 5.0)))
    return ControlLaw(m, periods, scale=scale, time_scale=time_scale)


@settings(max_examples=80, deadline=None)
@given(laws(), st.lists(st.floats(-3.0, 1.2), min_size=1, max_size=6))
def test_law_eval_matches_term_formula(law, fracs):
    # Times run from before the start to past the horizon, where the
    # period index is clamped.
    span = law.horizon if law.periods else 1.0
    for t in [f * span for f in fracs] + [0.0, span, -span, 2 * span]:
        assert law.eval(t) == oracles.law_value(law, t)


@settings(max_examples=40, deadline=None)
@given(laws(), st.floats(0.01, 5.0), st.floats(0.0, 1.0))
def test_reparameterized_and_json_laws(law, bound, frac):
    for other in (reparameterize(law, bound),
                  ControlLaw.from_json(law.to_json_str())):
        t = frac * (other.horizon if other.periods else 1.0)
        assert other.eval(t) == oracles.law_value(other, t)
        assert other.eval(-t) == oracles.law_value(other, -t)


@settings(max_examples=40, deadline=None)
@given(laws())
def test_sup_bound_reads_the_float_table(law):
    want = 0.0
    if law.periods:
        gain = abs(float(law.scale)) / float(law.time_scale)
        want = gain * max(math.fsum(abs(float(a)) for a, _, _ in terms)
                          for p in law.periods for terms in p["channels"])
    assert input_sup_bound(law) == want


def test_law_table_is_built_on_first_eval():
    law = ControlLaw(1, [{"channels": [[(pi_frac(3, 2), 1, 0)]]}])
    assert law._floats is None
    law.eval(0.5)
    assert law._floats is not None


# ---------------------------------------------------------------------------
# Replay against the reference rhs


def compiled_replay(monkeypatch, fields, x0, law, tol):
    """sim.integrate's endpoint and the rhs evaluation count of each of
    its solver runs."""
    seen = []
    solve = sim.solve_ivp

    def counting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        seen.append(sol.nfev)
        return sol

    monkeypatch.setattr(sim, "solve_ivp", counting)
    traj = integrate(fields, x0, law, tol=tol)
    return traj.endpoint, seen


def assert_same_replay(monkeypatch, fields, x0, law, tol=1e-10):
    end, nfevs = compiled_replay(monkeypatch, fields, x0, law, tol)
    ref = oracles.replay_reference(fields, x0, law, tol)
    assert all(run.success for run in ref)
    assert nfevs == [run.nfev for run in ref]
    assert end == ref[-1].y[:, -1].tolist()
    return sum(nfevs)


def test_unicycle_leg_matches_reference_replay(monkeypatch):
    fields = unicycle_fields()
    model = canonical_fields(2, 2)
    local = LocalSteering(fields, model, build_plan(model))
    x0 = [0.1, -0.15, 0.3]
    _, law = local.steer(x0, [0.0, 0.0, 0.0])
    assert assert_same_replay(monkeypatch, fields, x0, law) > 100


def test_martinet_lifted_leg_matches_reference_replay(monkeypatch,
                                                      martinet_lift):
    fields = list(martinet_lift.xi_poly)
    model = canonical_fields(2, martinet_lift.r)
    local = LocalSteering(fields, model, build_plan(model), fiber_start=N)
    x0 = martinet_lift.lift_point([0.05, -0.04, 0.02])
    goal = martinet_lift.lift_point([0.0, 0.0, 0.0])
    _, law = local.steer(x0, goal)
    assert assert_same_replay(monkeypatch, fields, x0, law) > 100
