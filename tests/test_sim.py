"""Integrator, input length, and reparameterization.

Closed-form endpoints come from one-dimensional flows and the
quadratic area integral; everything else is cross-checked between the
adaptive scheme and the fixed-step one.
"""

import math
import warnings
from fractions import Fraction

import pytest
from scipy.integrate import IntegrationWarning

from nilsteer import sim
from nilsteer.canonical import canonical_fields
from nilsteer.desing import desingularize, select_frame
from nilsteer.errors import DomainExit, SpecError, StepFailure
from nilsteer.hall import build_hall_basis
from nilsteer.poly import Poly, WeightedPolynomialField
from nilsteer.sim import (
    Trajectory, input_length, input_sup_bound, integrate,
    integrate_fixed, reparameterize,
)
from nilsteer.steer import (
    ControlLaw, build_plan, exact_steer, smooth_concatenate,
)

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
    traj = integrate(cs.fields, [0.0] * 3, wiggle_law(), tol=1e-8,
                     samples_per_period=4)
    for edge in (0.0, TWO_PI, 2 * TWO_PI):
        assert any(abs(t - edge) <= 1e-12 for t in traj.times)
    assert len(traj) == 9


@pytest.mark.parametrize("periods", [13, 20, 40])
@pytest.mark.parametrize("time_scale", [1.0, 1.3, 1.7])
def test_grid_has_each_period_edge_once(monkeypatch, periods, time_scale):
    # k * base and (k - 1) * base + base may differ by an ulp, and the
    # last edge may miss the horizon by one; either gave a second row
    cs = canonical_fields(2, 2)
    period = {"channels": [[(F(1, 2), 1, 0)], [(F(1, 3), 2, 1)]]}
    law = ControlLaw(2, [period] * periods, time_scale=time_scale)
    base = TWO_PI * time_scale
    seen = []
    solve = sim.solve_ivp

    def counting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        seen.append(sol.nfev)
        return sol

    monkeypatch.setattr(sim, "solve_ivp", counting)
    x0 = [0.1, -0.2, 0.3]
    traj = integrate(cs.fields, x0, law, tol=1e-10)
    assert len(traj) == periods + 1
    for a, b in zip(traj.times, traj.times[1:]):
        assert b - a > 1e-9 * base
    ref = oracles.replay_reference(cs.fields, x0, law, 1e-10)
    assert seen == [ref.nfev]
    assert traj.endpoint == ref.y[:, -1].tolist()


def test_trajectory_validation():
    with pytest.raises(SpecError):
        Trajectory([0.0, 0.0], [[1.0], [1.0]])
    with pytest.raises(SpecError):
        Trajectory([0.0, 1.0], [[1.0], [float("nan")]])
    with pytest.raises(SpecError):
        Trajectory([0.0], [[1.0], [2.0]])


def test_csv_round_trip(tmp_path):
    traj = Trajectory([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "out.csv"
    traj.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x_1,x_2"
    assert len(lines) == 3
    assert [float(v) for v in lines[2].split(",")] == [1.0, 3.0, 4.0]


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
    _, base, _, periods = law.float_table()
    total = 0.0
    for k, channels in enumerate(periods):
        top = max((w for terms in channels for _, w, _ in terms),
                  default=0)

        def norm(t, k=k):
            return math.sqrt(math.fsum(v * v
                                       for v in law.eval(k * base + t)))

        total += oracles.quad_over_periods(norm, base, max(1, top))
    return total


def test_input_length_of_fast_laws_needs_no_quad_warning():
    # fast periods (top frequency 592 here, 13653 in the k = 3 join)
    # overrun quad's subdivision limit when taken whole
    s33 = canonical_fields(3, 3)
    x33 = [F(1, 2), F(-1, 3), F(1, 4), F(-1, 5), F(1, 6), F(-1, 7),
           F(-2, 7), F(-1, 7), F(0), F(1, 7), F(2, 7), F(-2, 7),
           F(-1, 7), F(0)]
    laws = [exact_steer(x33, s33)]
    s22 = canonical_fields(2, 2)
    plan22 = build_plan(s22)
    law1 = exact_steer([F(1, 2), F(-1, 3), F(1, 4)], s22, plan22)
    law2 = exact_steer([F(-1, 5), F(1, 7), F(2, 3)], s22, plan22)
    laws += [smooth_concatenate([law1, law2], k) for k in (1, 2, 3)]
    for law in laws:
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            got = input_length(law)
        want = fine_length(law)
        assert abs(got - want) <= 1e-8 * want


def test_sup_bound():
    assert input_sup_bound(ControlLaw(2, [])) == 0.0
    assert input_sup_bound(circle_law()) == 1.0
    law = ControlLaw(2, circle_law().periods, scale=F(3),
                     time_scale=F(2))
    assert input_sup_bound(law) == 1.5


def test_reparameterize_noop_and_rescale():
    law = circle_law()
    assert reparameterize(law, 2.0) is law
    slow = reparameterize(law, 0.5)
    assert float(slow.time_scale) == 2.0
    assert abs(slow.horizon - 2 * law.horizon) <= 1e-12
    assert input_sup_bound(slow) == 0.5
    zero = ControlLaw(2, [])
    assert reparameterize(zero, 1.0) is zero
    with pytest.raises(SpecError):
        reparameterize(law, 0.0)


def test_reparameterize_preserves_endpoints():
    cs = canonical_fields(2, 3)
    x0 = [0.3, -0.1, 0.2, 0.05, -0.4]
    law = wiggle_law()
    base = integrate(cs.fields, x0, law, tol=1e-10)
    half = integrate(cs.fields, x0, reparameterize(law, 0.5), tol=1e-10)
    err = max(abs(a - b) for a, b in zip(base.endpoint, half.endpoint))
    assert err <= 1e-9
    # a longer rescale needs a tighter integrator tolerance to stay
    # within the same bound over the 4x horizon
    base11 = integrate(cs.fields, x0, law, tol=1e-11)
    slow = integrate(cs.fields, x0, reparameterize(law, 0.25), tol=1e-11)
    err = max(abs(a - b) for a, b in zip(base11.endpoint, slow.endpoint))
    assert err <= 1e-9
    # duration quadrupled, length unchanged (same curve)
    assert abs(input_length(reparameterize(law, 0.25))
               - input_length(law)) <= 1e-8


def test_fixed_step_order():
    # halving the step cuts the endpoint error by about 2^4
    cs = canonical_fields(2, 3)
    x0 = [0.1, -0.2, 0.05, 0.3, -0.1]
    law = circle_law()
    ref = integrate(cs.fields, x0, law, span=(0.0, TWO_PI), tol=1e-13)

    def err(steps):
        t = integrate_fixed(cs.fields, x0, law, (0.0, TWO_PI), steps)
        return max(abs(a - b) for a, b in zip(t.endpoint, ref.endpoint))

    ratio = err(64) / err(128)
    assert 8.0 <= ratio <= 32.0


def test_domain_exit_attaches_partial():
    cs = canonical_fields(2, 2)
    with pytest.raises(DomainExit) as info:
        integrate(cs.fields, [0.0] * 3, circle_law(),
                  domain=([-0.2] * 3, [0.2] * 3))
    partial = info.value.trajectory
    assert partial is not None
    assert abs(max(partial.endpoint) - 0.2) <= 1e-9
    assert partial.times[-1] < TWO_PI


def test_blowup_raises_step_failure():
    f = WeightedPolynomialField([Poly.monomial(1, (2,), F(1))])
    law = ControlLaw(1, [{"channels": [[(1, 0, 0)]]}])
    with pytest.raises(StepFailure):
        integrate([f], [1.0], law, span=(0.0, 2.0), tol=1e-10)


def test_lifted_trajectory_projects_onto_base():
    n = 3
    x1sq = Poly.monomial(n, (2, 0, 0), F(1))
    f1 = WeightedPolynomialField(
        [Poly.const(n, 1), Poly.zero(n), Poly.zero(n)])
    f2 = WeightedPolynomialField([Poly.zero(n), Poly.const(n, 1), x1sq])
    basis = build_hall_basis(2, 3)
    frame = select_frame([f1, f2], basis, [F(0)] * 3)
    lift = desingularize([f1, f2], frame)
    law = wiggle_law()
    x0 = [0.2, -0.1, 0.3]
    down = integrate([f1, f2], x0, law, tol=1e-10, samples_per_period=8)
    up = integrate(list(lift.xi), lift.lift_point(x0), law, tol=1e-10,
                   samples_per_period=8)
    assert down.times == up.times
    worst = 0.0
    for drow, urow in zip(down.states, lift.project(up.states)):
        worst = max(worst, max(abs(a - b) for a, b in zip(drow, urow)))
    assert worst <= 1e-8
