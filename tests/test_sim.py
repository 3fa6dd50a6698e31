"""Integrator and input length.

Closed-form endpoints come from one-dimensional flows and the
quadratic area integral; replays of planned laws are judged against
the reference replay of oracles.py, bit for bit through its
plain-loop DOP853 at the same tolerance, within 0.1 tol of scipy's
DOP853 from the same start, and within a bound of a tighter run.
"""

import hashlib
import math
import warnings
from fractions import Fraction

import pytest
from scipy.integrate import IntegrationWarning

from nilsteer import sim
from nilsteer.canonical import canonical_fields
from nilsteer.desing import desingularize
from nilsteer.errors import SpecError, StepFailure
from nilsteer.hall import build_hall_basis
from nilsteer.planner import LocalSteering
from nilsteer.poly import (
    ExprField, Poly, WeightedPolynomialField, ecos, emul, erat, esin, evar,
)
from nilsteer.sim import (
    Trajectory, input_length, input_sup_bound, integrate,
)
from nilsteer.steer import ControlLaw, build_plan, exact_steer

import oracles

F = Fraction
TWO_PI = 2.0 * math.pi


def circle_law():
    # u = (cos t, sin t) over one period
    return ControlLaw(2, [{"channels": [[(1, 1, 0)], [(1, 1, 1)]]}])


def wiggle_law():
    return ControlLaw(2, [
        {"channels": [[(1, 1, 0)], [(1, 2, 1)]]},
        {"channels": [[(F(1, 2), 3, 0)], [(1, 1, 0)]]},
    ])


def test_zero_input_is_constant():
    cs = canonical_fields(2, 2)
    law = ControlLaw(2, [{"channels": [[], []]}])
    traj = integrate(cs.fields, [0.4, -0.2, 0.7], law, tol=1e-10)
    for row in traj.states:
        assert row == [0.4, -0.2, 0.7]


def test_constant_input_moves_linearly():
    f = WeightedPolynomialField([Poly.const(1, 1)])
    law = ControlLaw(1, [{"channels": [[(F(3, 2), 0, 0)]]}])
    traj = integrate([f], [0.25], law, tol=1e-12)
    assert abs(traj.endpoint[0] - (0.25 + 1.5 * TWO_PI)) <= 1e-9


def test_quadratic_area_integral():
    # x3(2 pi) = integral of sin^2 = pi
    cs = canonical_fields(2, 2)
    traj = integrate(cs.fields, [0.0] * 3, circle_law(), tol=1e-10)
    assert abs(traj.endpoint[2] - math.pi) <= 1e-9


def test_grid_contains_period_boundaries():
    cs = canonical_fields(2, 2)
    traj = integrate(cs.fields, [0.0] * 3, wiggle_law(), tol=1e-8)
    assert len(traj.states) == len(traj) == 3


@pytest.mark.parametrize("periods", [13, 20, 40])
def test_grid_has_each_period_edge_once(monkeypatch, periods):
    # k * base and (k - 1) * base + base may differ by an ulp, and the
    # last edge may miss the horizon by one; either gave a second row
    cs = canonical_fields(2, 2)
    period = {"channels": [[(F(1, 2), 1, 0)], [(F(1, 3), 2, 1)]]}
    law = ControlLaw(2, [period] * periods)
    x0 = [0.1, -0.2, 0.3]
    traj = integrate(cs.fields, x0, law, tol=1e-10)
    assert len(traj.states) == len(traj) == periods + 1
    oracles.assert_same_replay(monkeypatch, cs.fields, x0, law, 1e-10)


def unicycle_fields():
    th = evar(2)
    return [ExprField([ecos(th), esin(th), erat(0)]),
            ExprField([erat(0), erat(0), erat(1)])]


@pytest.mark.parametrize("x0", [[0.1, -0.15, 0.3], [0.4, 0.3, -0.8],
                                [-0.6, 0.5, 1.2]])
def test_replay_is_accurate_across_period_jumps(x0):
    # The law jumps at each period edge.  One solve across the whole
    # horizon missed the tight run by 1.7e-9 to 4.9e-9 on these legs.
    fields = unicycle_fields()
    model = canonical_fields(2, 2)
    local = LocalSteering(fields, model, build_plan(model))
    _, law = local.steer(x0, [0.0, 0.0, 0.0])
    assert law.nperiods > 1
    tight = oracles.replay_reference(fields, x0, law, 1e-13)[-1].y
    end = integrate(fields, x0, law, tol=1e-10).endpoint
    assert max(abs(a - b) for a, b in zip(end, tight)) <= 1e-9


def assert_valid_trajectory(traj):
    # one row per period edge, every state a list of finite floats
    assert isinstance(traj, Trajectory)
    assert len(traj.states) == len(traj)
    for row in traj.states:
        assert type(row) is list
        assert all(type(v) is float and math.isfinite(v) for v in row)


def test_trajectory_validation():
    traj = integrate(canonical_fields(2, 2).fields, [0.1, -0.2, 0.3],
                     wiggle_law(), tol=1e-10)
    assert_valid_trajectory(traj)
    assert len(traj.states) == 3
    # xdot = u x^2 from x = 1 blows up in the second period
    f = WeightedPolynomialField([Poly.monomial(1, (2,), F(1))])
    law = ControlLaw(1, [{"channels": [[(F(-1, 10), 0, 0)]]},
                         {"channels": [[(1, 0, 0)]]}])
    with pytest.raises(StepFailure) as info:
        integrate([f], [1], law, tol=1e-10)
    partial = info.value.payload["trajectory"]
    assert_valid_trajectory(partial)
    assert len(partial) == 2


def test_input_length_values():
    assert input_length(ControlLaw(2, [])) == 0.0
    ell = input_length(circle_law())
    assert abs(ell - TWO_PI) <= 1e-9
    scaled = ControlLaw(2, circle_law().periods, scale=F(3))
    assert abs(input_length(scaled) - 3 * ell) <= 1e-9 * ell


def fine_length(law):
    """The integral input_length takes, on one piece per oscillation of
    each period's top frequency (four times finer) and at the tighter
    tolerance of oracles.quad_over_periods."""
    total = 0.0
    for k, channels in enumerate(law.float_table()[1]):
        top = max((w for terms in channels for _, w, _ in terms),
                  default=0)

        def norm(t, k=k):
            return math.sqrt(math.fsum(v * v
                                       for v in law.eval(k * TWO_PI + t)))

        total += oracles.quad_over_periods(norm, TWO_PI, max(1, top))
    return total


def fast_law():
    """Two periods with top frequencies 13653 and 1365, in which every
    channel vanishes at both period edges, so that the norm has a kink
    there."""
    return ControlLaw(2, [
        {"channels": [
            [(F(4, 3), 1, 0), (F(-17, 12), 13, 0), (F(1, 12), 53, 0),
             (F(1, 50000), 213, 1)],
            [(F(-3, 50), 1, 1), (F(4, 3), 3, 0), (F(-17, 12), 853, 0),
             (F(1, 12), 3413, 0), (F(1, 10000), 13653, 1)]]},
        {"channels": [
            [(F(1, 30), 0, 0), (F(-1, 30), 1, 0), (F(1, 1000), 21, 1)],
            [(F(-1, 40), 0, 0), (F(1, 40), 85, 0), (F(1, 2000), 1365, 1)]]},
    ])


def test_input_length_of_fast_laws_needs_no_quad_warning():
    # fast periods (top frequency 592 in the (3,3) steer, 13653 in
    # fast_law) overrun quad's subdivision limit when taken whole
    s33 = canonical_fields(3, 3)
    x33 = [F(1, 2), F(-1, 3), F(1, 4), F(-1, 5), F(1, 6), F(-1, 7),
           F(-2, 7), F(-1, 7), F(0), F(1, 7), F(2, 7), F(-2, 7),
           F(-1, 7), F(0)]
    laws = [exact_steer(x33, s33, build_plan(s33)), fast_law()]
    assert max(w for p in laws[1].periods for terms in p["channels"]
               for _, w, _ in terms) >= 13653
    for law in laws:
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            got = input_length(law)
        want = fine_length(law)
        assert abs(got - want) <= 1e-8 * want


def test_sup_bound():
    assert input_sup_bound(ControlLaw(2, [])) == 0.0
    assert input_sup_bound(circle_law()) == 1.0
    law = ControlLaw(2, circle_law().periods, scale=F(3, 2))
    assert input_sup_bound(law) == 1.5


def test_step_failure_in_a_later_period_keeps_earlier_rows():
    # xdot = u x^2 from x = 1: u = -1/10 in the first period, then
    # u = 1 blows up 1.63 into the second
    f = WeightedPolynomialField([Poly.monomial(1, (2,), F(1))])
    law = ControlLaw(1, [{"channels": [[(F(-1, 10), 0, 0)]]},
                         {"channels": [[(1, 0, 0)]]}])
    with pytest.raises(StepFailure) as info:
        integrate([f], [1.0], law, tol=1e-10)
    partial = info.value.payload["trajectory"]
    assert len(partial.states) == 2
    assert abs(partial.endpoint[0] - 1.0 / (1.0 + 0.1 * TWO_PI)) <= 1e-9


def test_blowup_raises_step_failure():
    # xdot = x^2 from x = 1 blows up at t = 1, inside the first period
    f = WeightedPolynomialField([Poly.monomial(1, (2,), F(1))])
    law = ControlLaw(1, [{"channels": [[(1, 0, 0)]]}])
    with pytest.raises(StepFailure) as info:
        integrate([f], [1.0], law, tol=1e-10)
    assert info.value.payload["trajectory"] is None


def test_lifted_trajectory_projects_onto_base():
    n = 3
    x1sq = Poly.monomial(n, (2, 0, 0), F(1))
    f1 = WeightedPolynomialField(
        [Poly.const(n, 1), Poly.zero(n), Poly.zero(n)])
    f2 = WeightedPolynomialField([Poly.zero(n), Poly.const(n, 1), x1sq])
    basis = build_hall_basis(2, 3)
    # (1, 2, 4) is the cheapest frame at the origin (see test_desing)
    lift = desingularize([f1, f2], basis, (1, 2, 4), [F(0)] * 3)
    law = ControlLaw(2, wiggle_law().periods * 8)
    x0 = [0.2, -0.1, 0.3]
    down = integrate([f1, f2], x0, law, tol=1e-10)
    up = integrate(list(lift.fields), lift.lift_point(x0), law, tol=1e-10)
    assert len(down) == 17
    assert len(down.states) == len(up.states)
    worst = 0.0
    for drow, urow in zip(down.states, up.states):
        worst = max(worst, max(abs(a - b)
                               for a, b in zip(drow, lift.project(urow))))
    assert worst <= 1e-8


def square_field():
    # xdot = x^2, whose kernel computes x0 ** 2
    return WeightedPolynomialField([Poly.monomial(1, (2,), F(1))])


def test_overflowing_rhs_raises_step_failure():
    # x0 ** 2 overflows at x0 = 1e200; the first period holds the state
    law = ControlLaw(1, [{"channels": [[(1, 0, 0)]]}])
    with pytest.raises(StepFailure) as info:
        integrate([square_field()], [1e200], law, tol=1e-10)
    assert info.value.payload["trajectory"] is None
    law = ControlLaw(1, [{"channels": [[]]}, {"channels": [[(1, 0, 0)]]}])
    with pytest.raises(StepFailure) as info:
        integrate([square_field()], [1e200], law, tol=1e-10)
    partial = info.value.payload["trajectory"]
    assert len(partial.states) == 2
    assert partial.endpoint == [1e200]
    # x0 ** 4 overflows to inf in floats, and then sin(x0) raises
    # ValueError inside the field kernel
    x = evar(0)
    field = ExprField([emul(x, x, x, x), esin(x)])
    with pytest.raises(StepFailure, match="ValueError") as info:
        integrate([field], [1e80, 0.0], law, tol=1e-10)
    partial = info.value.payload["trajectory"]
    assert len(partial.states) == 2
    assert partial.endpoint == [1e80, 0.0]


def test_state_overflow_raises_step_failure():
    # a rate of 1e308 takes the state past the largest float in the
    # first step
    f = WeightedPolynomialField([Poly.const(1, 1e308)])
    law = ControlLaw(1, [{"channels": [[(1, 0, 0)]]}])
    with pytest.raises(StepFailure):
        integrate([f], [0.0], law, tol=1e-10)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 -float("inf")])
def test_non_finite_start_raises_spec_error(bad):
    with pytest.raises(SpecError):
        integrate(canonical_fields(2, 2).fields, [0.1, bad, 0.2],
                  circle_law(), tol=1e-10)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10,
                                 1e-15, 99 * 2.0 ** -52])
def test_unusable_tolerance_raises_spec_error(tol):
    with pytest.raises(SpecError) as info:
        integrate(canonical_fields(2, 2).fields, [0.0] * 3, circle_law(),
                  tol=tol)
    assert info.value.payload["tol"] is tol


def test_tolerance_floor_is_usable():
    # 100 machine epsilons, where scipy clamps its relative tolerance
    traj = integrate(canonical_fields(2, 2).fields, [0.0] * 3,
                     circle_law(), tol=100 * 2.0 ** -52)
    assert abs(traj.endpoint[2] - math.pi) <= 1e-12


def sharp(t, x):
    # a bump of width 0.01 at t = 2, which the step control meets with
    # rejections
    return (x / (1.0 + 1e4 * (t - 2.0) * (t - 2.0)),)


def spiral(t, x1, x2):
    return (-0.3 * x1 + math.cos(3.0 * t) * x2, -x1 - 0.1 * x2)


def chain(t, *x):
    return tuple(math.sin(t) * x[(j + 1) % 5] - 0.5 * x[j]
                 for j in range(5))


@pytest.mark.parametrize("rhs, t0, t1, y0, tol", [
    (sharp, 0.0, TWO_PI, (1.0,), 1e-10),
    (spiral, 0.5, 0.5 + math.pi, (1.0, -2.0), 1e-8),
    (chain, TWO_PI, 2 * TWO_PI, (0.1, -0.2, 0.3, 0.4, -0.5), 1e-12),
    (lambda t, x: (x * x,), 0.0, 2.0, (1.0,), 1e-10),
    (lambda t, x: (0.0,), 0.0, 1.0, (3.0,), 1e-10),
])
def test_solver_matches_plain_loop_reference(rhs, t0, t1, y0, tol):
    # bit for bit, in success and in failure (xdot = x^2 blows up at
    # t = 1); scipy's run on the same problem judges the algorithm
    sol = sim.solve_ivp(rhs, t0, t1, y0, tol)
    ref = oracles.dop853_reference(rhs, t0, t1, y0, tol)
    assert (sol.success, sol.nfev, list(sol.y)) == (ref.ok, ref.nfev, ref.y)
    assert (sol.nfev - 2) % 12 == 0
    judge = oracles.scipy_dop853(rhs, t0, t1, y0, tol)
    assert judge.ok == sol.success
    if sol.success:
        assert sol.nfev == judge.nfev
        assert max(abs(a - b) for a, b in zip(sol.y, judge.y)) \
            <= 0.1 * tol * max(1.0, max(abs(v) for v in judge.y))


def nonzero(row, stop):
    return {s: c for s, c in enumerate(row[:stop]) if c}


def test_tableau_is_scipys():
    # every entry equal to scipy's float, and none of scipy's missing
    tab = oracles.dop853
    assert sim.STAGES == tab.N_STAGES
    assert sim.C == nonzero(tab.C, sim.STAGES)
    assert sim.A == {s: nonzero(tab.A[s], sim.STAGES + 1)
                     for s in range(1, sim.STAGES)}
    for mine, theirs in ((sim.B, tab.B), (sim.E5, tab.E5),
                         (sim.E3, tab.E3)):
        assert mine == nonzero(theirs, sim.STAGES + 1)
    assert sum(map(len, (sim.C, *sim.A.values(), sim.B, sim.E5,
                         sim.E3))) == 85


# sha256 of the solver source for state dimensions 2 to 5, taken while
# the tableau was read from scipy
SOLVER_DIGESTS = {
    2: "7d2bfdd4a6ed8a8e5e3f9a135fb106ba926057b3ce46ef384a06b08737f05cca",
    3: "cb55dea16014d1f5d2e25efc6f049fe2daa44cbb54ed3493719b5c562ffa1013",
    4: "d9e30ee4072a6efa394dfacc02eb098d608c687eb75a1a26b4645d1d4d321f77",
    5: "db6667309b90aaa5023db77e54119185430b472a5c6a733981d28948beb4f217",
}


def test_solver_source_is_pinned():
    got = {n: hashlib.sha256(sim._dop853_source(n).encode()).hexdigest()
           for n in SOLVER_DIGESTS}
    assert got == SOLVER_DIGESTS
