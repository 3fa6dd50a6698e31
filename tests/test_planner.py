"""Local steps, the global loop, box coverings, and the full pipeline."""

import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction as F

import pytest

from nilsteer import desing, planner
from nilsteer.canonical import canonical_fields
from nilsteer.desing import _bracket_values, cheapest_frame
from nilsteer.errors import (
    CoverageGap, IterationCapExceeded, SpecError, StepFailure,
)
from nilsteer.hall import build_hall_basis
from nilsteer.planner import (
    Grid, LocalSteering, Planner, PlannerConfig, PlannerReport,
    _overlap_waypoint, build_covering, global_free, global_plan, subgoal,
)
from nilsteer.poly import (
    ExprField, Poly, WeightedPolynomialField, as_expr_field, ecos, erat,
    esin, evar,
)
from nilsteer.privcoord import dilate, pseudo_norm
from nilsteer.sim import integrate
from nilsteer.steer import ControlLaw, build_plan, concatenate

import oracles


def unicycle_fields():
    th = evar(2)
    return [ExprField([ecos(th), esin(th), erat(0)]),
            ExprField([erat(0), erat(0), erat(1)])]


def third_component_fields(third):
    """X1 = d1, X2 = d2 + third(x) d3 on R^3."""
    n = 3
    f1 = WeightedPolynomialField(
        [Poly.const(n, 1), Poly.zero(n), Poly.zero(n)])
    f2 = WeightedPolynomialField([Poly.zero(n), Poly.const(n, 1), third])
    return [f1, f2]


def x1_power_fields(k):
    """X2 = d2 + x1^k d3: the step jumps to k + 1 on x1 = 0."""
    return third_component_fields(Poly.monomial(3, (k, 0, 0), F(1)))


def martinet_fields():
    return x1_power_fields(2)


def parabola_fields():
    """X2 = d2 + (x1^2 + x1 x2^2) d3: singular on x1 = -x2^2 / 2."""
    return third_component_fields(
        Poly.monomial(3, (2, 0, 0), F(1)).add(
            Poly.monomial(3, (1, 2, 0), F(1))))


BOX3 = ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])


def local_for(fields, m, r):
    model = canonical_fields(m, r)
    return LocalSteering(fields, model, build_plan(model))


def norm_at(local, a, x):
    """Pseudo-norm of x in the local step's chart at a."""
    return pseudo_norm(local.chart_at(a).apply(list(x)),
                       local.basis.free_weights)


@pytest.fixture(scope="module")
def local22():
    return local_for(list(canonical_fields(2, 2).fields), 2, 2)


@pytest.fixture(scope="module")
def local_uni():
    return local_for(unicycle_fields(), 2, 2)


# ---------------------------------------------------------------------------
# subgoal


def test_subgoal_interpolates_exactly(local22):
    chart = local22.chart_at([F(0)] * 3)
    xbar = [F(1), F(0), F(0)]
    assert subgoal(xbar, F(1, 2), 1, chart) == [F(1, 2), F(0), F(0)]


def test_subgoal_j_zero_returns_start(local22):
    chart = local22.chart_at([F(0)] * 3)
    xbar = [F(1), F(0), F(0)]
    assert subgoal(xbar, F(1, 2), 0, chart) == xbar


def test_subgoal_saturates_at_goal(local22):
    chart = local22.chart_at([F(0)] * 3)
    xbar = [F(1), F(0), F(0)]
    # j*eta at or past the pseudo-norm of xbar lands on the anchor
    assert subgoal(xbar, F(1, 2), 2, chart) == [F(0)] * 3
    assert subgoal(xbar, F(3), 1, chart) == [F(0)] * 3


def test_subgoal_at_anchor_stays(local22):
    chart = local22.chart_at([F(0)] * 3)
    assert subgoal([F(0)] * 3, F(1, 2), 5, chart) == [F(0)] * 3


def test_subgoal_weighted_dilation(local22):
    chart = local22.chart_at([F(0)] * 3)
    xbar = [F(0), F(0), F(1)]
    # weight-2 coordinate scales with the square of the dilation knob
    got = subgoal(xbar, F(1, 2), 1, chart)
    assert got == [F(0), F(0), F(1, 4)]


# ---------------------------------------------------------------------------
# local step


def test_app_steer_canonical_reaches_anchor():
    # the canonical (2,2) fields as ExprFields are not recognised as the
    # model, so the step integrates instead of returning the goal
    fields = [as_expr_field(f) for f in canonical_fields(2, 2).fields]
    ls = local_for(fields, 2, 2)
    assert not ls.exact_model
    end, law = ls.steer([F(1, 2), F(-1, 3), F(1, 5)], [F(0)] * 3)
    assert law.nperiods > 0
    assert max(abs(float(v)) for v in end) <= 1e-8


def test_app_steer_at_goal_is_identity(local22):
    a = [F(0)] * 3
    end, law = local22.steer(a, a)
    assert end == a
    assert law.nperiods == 0


def test_steer_at_goal_stays_put_off_the_model(local_uni):
    # the unicycle is not its canonical model and its chart maps the
    # anchor to rounding noise, which must not be steered and replayed
    a = [0.3, -0.2, 0.1]
    end, law = local_uni.steer(list(a), a)
    assert end == a
    assert law.nperiods == 0


def test_local_steering_detects_canonical_model(local22, local_uni):
    assert local22.exact_model
    assert not local_uni.exact_model


def test_local_step_contracts_on_unicycle(local_uni):
    w = local_uni.basis.free_weights
    rng = oracles.seeded(17)
    worst = 0.0
    for _ in range(20):
        a = [rng.uniform(-1, 1) for _ in range(3)]
        z = [rng.uniform(-1, 1) for _ in range(3)]
        z = dilate(z, 0.5 / float(pseudo_norm(z, w)), w)
        x = local_uni.chart_at(a).apply_inverse(z)
        end, law = local_uni.steer(x, a)
        ratio = float(norm_at(local_uni, a, end)) / 0.5
        worst = max(worst, ratio)
    assert worst <= 0.5
    # reference run: worst observed ratio is about 0.10
    assert worst <= 0.2


# ---------------------------------------------------------------------------
# global loop on free systems


def test_global_free_already_there(local22):
    rep = global_free([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 1e-6, local22)
    assert rep.status == "converged"
    assert rep.iterations == 0
    assert rep.laws == []


def test_global_free_canonical_single_exact_step():
    sys23 = canonical_fields(2, 3)
    ls = LocalSteering(list(sys23.fields), sys23, build_plan(sys23))
    x0 = [F(3, 7), F(-2, 5), F(1, 3), F(-1, 4), F(2, 9)]
    rep = global_free(x0, [F(0)] * 5, 1e-6, ls)
    assert rep.status == "converged"
    assert rep.iterations == 1
    assert rep.norms[-1] == 0
    assert rep.iterates[-1] == [F(0)] * 5


def test_global_free_unicycle_parking(local_uni):
    rep = global_free([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-3,
                      local_uni)
    assert rep.status == "converged"
    assert float(rep.final_norm) <= 1e-3
    # reference run: 4 accepted steps, one rejection
    assert rep.iterations == 4
    assert rep.rejections == 1
    assert rep.total_length() == pytest.approx(10.774, rel=1e-2)
    # strong contraction keeps every accepted step in the lowest
    # branch, and every iterate inside the bracket ball
    assert rep.k_final == 0
    lim = float(rep.norms[0]) / (1.0 - planner.bracket_ratio(2))
    assert all(float(v) <= lim for v in rep.norms)


def test_global_free_replay_matches_iterates(local_uni):
    uni = unicycle_fields()
    rep = global_free([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-3,
                      local_uni)
    law = concatenate(rep.laws, 2)
    traj = integrate(uni, [0.0, 0.0, 0.0], law, tol=1e-10)
    err = max(abs(a - b) for a, b in zip(traj.endpoint, rep.iterates[-1]))
    assert err <= 1e-8


def test_global_free_acceptance_halves_subgoal_distance(local_uni):
    rep = global_free([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-3,
                      local_uni)
    # replays the acceptance predicate from the recorded trace
    accepted = list(zip(rep.iterates, rep.iterates[1:], rep.subgoals))
    assert accepted
    for before_pt, after_pt, xd in accepted:
        before = float(norm_at(local_uni, xd, before_pt))
        after = float(norm_at(local_uni, xd, after_pt))
        assert after <= before / 2 + 1e-12


def test_global_free_etas_never_increase(local_uni):
    rep = global_free([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-3,
                      local_uni)
    assert all(b <= a for a, b in zip(rep.etas, rep.etas[1:]))
    assert rep.status == "converged"


def test_global_free_iteration_cap(local_uni, monkeypatch):
    monkeypatch.setattr(planner, "ITERATION_CAP", 2)
    with pytest.raises(IterationCapExceeded) as exc:
        global_free([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-3, local_uni)
    rep = exc.value.payload["report"]
    assert rep.attempts == 2
    assert rep.status == "cap-exceeded"


# ---------------------------------------------------------------------------
# modified-loop branches, driven by a scripted local method


class _ScriptChart:
    def __init__(self, anchor, away_script):
        self.anchor = list(anchor)
        self.weights = (1,)
        self._away = away_script

    def apply(self, x):
        if self._away is not None and x != self.anchor:
            return [self._away.pop(0)]
        return [x[0] - self.anchor[0]]

    def apply_inverse(self, z):
        return [z[0] + self.anchor[0]]


class _ScriptLocal:
    """Plays back scripted endpoints and subgoal-chart distances."""

    class _Basis:
        r = 1

    basis = _Basis()

    def __init__(self, endpoints, away):
        self.endpoints = list(endpoints)
        self.away = list(away)
        self.goal_chart = _ScriptChart([0.0], None)

    def chart_at(self, a):
        if a == [0.0] or a == [0]:
            return self.goal_chart
        return _ScriptChart(a, self.away)

    def steer(self, x, a):
        end = self.endpoints.pop(0)
        if isinstance(end, Exception):
            raise end
        return [end], ControlLaw(1, [])


def test_modified_branches_follow_the_bracket():
    # attempt 1: subgoal is the goal itself, step rejected outright
    # attempt 2: lands at 1.5 = between brackets, accepted and charged
    # attempt 3: lands at 2.8 above the next bracket, rejected
    # attempt 4: lands at 0.04, plain acceptance, loop converges
    # under R = bracket_ratio(1) ~ 0.920 the brackets are 1, 1.92, 2.77
    ls = _ScriptLocal(endpoints=[0.9, 1.5, 2.8, 0.04],
                      away=[0.1, 0.2, 0.1, 0.2, 0.1, 0.2])
    rep = global_free([1.0], [0.0], 0.05, ls)
    assert rep.status == "converged"
    assert rep.attempts == 4
    assert rep.iterations == 2
    assert rep.rejections == 2
    assert rep.k_final == 1
    assert rep.iterates == [[1.0], [1.5], [0.04]]
    assert rep.etas == [1.0, 0.5, 0.25, 0.125, 0.125]
    lim = 1.0 / (1.0 - planner.bracket_ratio(1))
    assert all(v <= lim for v in rep.norms)


def test_step_failure_is_a_rejection():
    # attempt 1 aims at the goal and the integrator stalls: eta halves
    # attempt 2 reaches its subgoal 0.5, attempt 3 the goal
    ls = _ScriptLocal(endpoints=[StepFailure("step size too small"),
                                 0.5, 0.0],
                      away=[0.5])
    rep = global_free([1.0], [0.0], 0.05, ls)
    assert rep.status == "converged"
    assert rep.attempts == 3
    assert rep.rejections == 1
    assert rep.iterates == [[1.0], [0.5], [0.0]]
    assert rep.etas == [1.0, 0.5, 0.5, 0.5]


# ---------------------------------------------------------------------------
# covering


def test_unicycle_covers_with_one_cell():
    atlas = build_covering(unicycle_fields(), BOX3, build_hall_basis(2, 2), 4)
    assert len(atlas.cells) == 1
    assert atlas.cells[0].frame == (1, 2, 3)
    assert atlas.path_between([0.0, 0.0, 0.0], [0.5, 0.5, 0.5]) == [0]


def test_martinet_covering_splits_at_the_plane():
    atlas = build_covering(martinet_fields(), BOX3, build_hall_basis(2, 3), 8)
    assert len(atlas.cells) == 3
    frames = sorted({c.frame for c in atlas.cells})
    assert frames == [(1, 2, 3), (1, 2, 4)]
    # the path crosses the singular plane through the bridging cell
    path = atlas.path_between([-0.5, 0.0, 0.0], [0.5, 0.2, 0.1])
    path_frames = [atlas.cells[c].frame for c in path]
    assert path_frames == [(1, 2, 3), (1, 2, 4), (1, 2, 3)]
    wps = atlas.waypoints(path)
    assert wps[0] == pytest.approx([-0.25, 0.0, 0.0])
    assert wps[1] == pytest.approx([0.25, 0.0, 0.0])


def test_martinet_covering_needs_length_three():
    with pytest.raises(CoverageGap):
        build_covering(martinet_fields(), BOX3, build_hall_basis(2, 2), 4)


def test_covering_rejects_outside_endpoints():
    atlas = build_covering(unicycle_fields(), BOX3, build_hall_basis(2, 2), 2)
    with pytest.raises(SpecError):
        atlas.path_between([5.0, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_covering_json_roundtrip():
    atlas = build_covering(martinet_fields(), BOX3, build_hall_basis(2, 3), 4)
    blob = json.dumps(atlas.to_json())
    back = json.loads(blob)
    assert len(back["cells"]) == len(atlas.cells)
    assert all("frame" in c for c in back["cells"])


def three_plane_fields():
    """X1 = d1, X2 = d2, X3 = x2 d1 + (1 + x1) d2: three generator
    frames compete on every box, with exact ties where |1 + x1| = 1."""
    n = 2
    one, zero = Poly.const(n, 1), Poly.zero(n)
    x1, x2 = Poly.var(n, 0), Poly.var(n, 1)
    return [WeightedPolynomialField([one, zero]),
            WeightedPolynomialField([zero, one]),
            WeightedPolynomialField([x2, one.add(x1)])]


ATLAS_CASES = {
    "unicycle-grid4": (unicycle_fields, ([-1.0, -1.0, -2.0],
                                         [1.0, 1.0, 2.0]), 2, 4),
    "unicycle-grid2": (unicycle_fields, BOX3, 2, 2),
    "martinet-r2-grid4": (martinet_fields, BOX3, 2, 4),
    "martinet-r2-grid8": (martinet_fields, BOX3, 2, 8),
    "martinet-r3-grid4": (martinet_fields, BOX3, 3, 4),
    "martinet-r3-grid8": (martinet_fields, BOX3, 3, 8),
    "canonical22": (lambda: list(canonical_fields(2, 2).fields), BOX3, 2,
                    8),
    "x1^1": (lambda: x1_power_fields(1), BOX3, 2, 8),
    "x1^2": (lambda: x1_power_fields(2), BOX3, 3, 4),
    "x1^3": (lambda: x1_power_fields(3), BOX3, 4, 8),
    "parabola-grid3": (parabola_fields, BOX3, 3, 3),
    "parabola-grid4": (parabola_fields, BOX3, 3, 4),
    "parabola-grid5": (parabola_fields, BOX3, 3, 5),
    "parabola-grid8": (parabola_fields, BOX3, 3, 8),
    "three-plane": (three_plane_fields, ([-2.0, -2.0], [2.0, 2.0]), 2, 8),
}


def exact_frames(fields, K, basis, res):
    """Every box's frame from the exact search, in grid order, or the
    first box it finds no frame for."""
    grid = Grid(K[0], K[1], res)
    memo = {}
    frames = {}
    for idx in grid.boxes():
        values = []
        for corner in grid.corners(idx):
            key = tuple(corner)
            if key not in memo:
                memo[key] = _bracket_values(fields, basis,
                                            range(1, len(basis) + 1),
                                            corner)
            values.append(memo[key])
        found = cheapest_frame(basis, values)
        if found is None:
            return list(idx)
        frames[idx] = found[0]
    return frames


@pytest.mark.parametrize("case", sorted(ATLAS_CASES))
def test_atlas_matches_exact_frame_search(case):
    make, K, r, res = ATLAS_CASES[case]
    fields = make()
    basis = build_hall_basis(len(fields), r)
    want = exact_frames(fields, K, basis, res)
    if isinstance(want, list):
        with pytest.raises(CoverageGap) as exc:
            build_covering(fields, K, basis, res)
        assert exc.value.payload["box"] == want
        return
    atlas = build_covering(fields, K, basis, res)
    got = {idx: cell.frame for cell in atlas.cells for idx in cell.boxes}
    assert got == want
    # edges against the scan of every box pair of every cell pair
    cells = atlas.cells
    edges = {}
    for a, b in itertools.combinations(range(len(cells)), 2):
        pairs = [(ia, ib) for ia in cells[a].boxes for ib in cells[b].boxes
                 if all(abs(p - q) <= 1 for p, q in zip(ia, ib))]
        if pairs:
            edges[(a, b)] = _overlap_waypoint(atlas.grid, pairs)
    assert list(atlas.edges.items()) == list(edges.items())


def test_screen_leaves_few_boxes_to_the_exact_search(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return desing._bracket_values(*args)

    monkeypatch.setattr(planner, "_bracket_values", counting)
    build_covering(unicycle_fields(), BOX3, build_hall_basis(2, 2), 4)
    assert calls == []
    build_covering(martinet_fields(), BOX3, build_hall_basis(2, 3), 8)
    # the boxes touching x1 = 0, where [X1, X2] vanishes, go exact:
    # at most their 3 * 81 of the 729 corners
    assert 0 < len(calls) <= 243
    assert all(abs(corner[0]) <= 0.25 + 1e-12 for corner in calls)


# sha256 of the sorted-key JSON of each one-shot law's to_json(), taken
# when the lift still built its Polys through expressions: the direct
# build must keep the term order, and with it every float sum.
ONE_SHOT_LAWS = [
    "65caf1204e8fb4c354e6a6a56e761ff04e741fc1816cf906f649beccbb199d86",
    "bac262b70a058a617a9a0cc6490874619b64be0c0ac2a1fcde7a55d001915d13",
    "fba57e520b2e009578ed779b92a882258ebde5b7993075cc344ed9aa550c70c7",
]


def test_session_matches_one_shot_plans(monkeypatch):
    queries = [([-0.5, 0.0, 0.0], [0.5, 0.2, 0.1]),
               ([-0.6, 0.3, -0.2], [0.4, -0.1, 0.3]),
               ([-0.4, -0.2, 0.1], [0.6, 0.1, -0.3])]
    one_shot = [global_plan(martinet_fields(), a, b, 1e-3, BOX3,
                            PlannerConfig()) for a, b in queries]
    digests = [hashlib.sha256(json.dumps(law.to_json(), sort_keys=True)
                              .encode()).hexdigest()
               for law, _ in one_shot]
    assert digests == ONE_SHOT_LAWS
    counts = Counter()
    for name in ("build_covering", "build_plan", "desingularize"):
        def counting(*args, _fn=getattr(planner, name), _name=name,
                     **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(planner, name, counting)
    session = Planner(martinet_fields(), BOX3, PlannerConfig())
    assert session.r == 3
    for (a, b), (law, rep) in zip(queries, one_shot):
        law2, rep2 = session.plan(a, b, 1e-3)
        assert json.dumps(law2.to_json(), default=str) == \
            json.dumps(law.to_json(), default=str)
        assert json.dumps(rep2.to_json()) == json.dumps(rep.to_json())
    # the r = 2 covering has a gap, the r = 3 one is kept for every
    # query; each query lifts once per leg of its path
    legs = [law.meta["legs"] for law, _ in one_shot]
    assert legs == [3, 3, 3]
    assert counts == {"build_covering": 2, "build_plan": 1,
                      "desingularize": sum(legs)}


def test_planner_validates_dimensions():
    # a 3-D system with a 2-D or a 4-D box, and fields of two
    # dimensions, in either order
    for box in (([-1.0] * 2, [1.0] * 2), ([-1.0] * 4, [1.0] * 4)):
        with pytest.raises(SpecError):
            Planner(unicycle_fields(), box)
    five = canonical_fields(2, 3).fields
    for fields in ([unicycle_fields()[0], five[1]],
                   [five[0], unicycle_fields()[1]]):
        with pytest.raises(SpecError):
            Planner(fields, BOX3)


def test_plan_rejects_a_tolerance_it_cannot_reach(monkeypatch):
    # a tolerance of zero or below ran until the iteration cap, and a
    # NaN or infinite one returned at once without steering
    monkeypatch.setattr(planner, "ITERATION_CAP", 3)
    session = Planner(unicycle_fields(), BOX3, PlannerConfig(grid=1), r=2)
    for e in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(SpecError):
            session.plan([0.0, 0.0, 0.0], [0.0, 0.5, 0.0], e)


def test_grid_validation():
    with pytest.raises(SpecError):
        Grid([0.0, 0.0], [1.0], 4)
    with pytest.raises(SpecError):
        Grid([0.0], [0.0], 4)
    with pytest.raises(SpecError):
        Grid([0.0], [1.0], 0)
    # the resolution is one positive int for every axis
    for res in (2.5, "4", [4, 4]):
        with pytest.raises(SpecError):
            Grid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], res)
        with pytest.raises(SpecError):
            Planner(unicycle_fields(), BOX3, PlannerConfig(grid=res), r=2)


# ---------------------------------------------------------------------------
# full pipeline


def test_plan_canonical_single_cell_exact():
    sys23 = canonical_fields(2, 3)
    box = ([-2.0] * 5, [2.0] * 5)
    law, rep = global_plan(list(sys23.fields), [0.5, -0.2, 0.1, 0.0, 0.3],
                           [0.0] * 5, 1e-4, box, PlannerConfig(grid=1), r=3)
    assert rep.status == "converged"
    assert len(rep.legs) == 1
    assert rep.legs[0].iterations == 1
    assert rep.iterates[-1] == [0.0] * 5


def test_plan_unicycle_parking_single_cell():
    law, rep = global_plan(unicycle_fields(), [0.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], 1e-3, BOX3,
                           PlannerConfig(grid=4), r=2)
    assert rep.status == "converged"
    assert len(rep.legs) == 1
    assert float(rep.legs[0].final_norm) <= 1e-3
    err = max(abs(a - b) for a, b in
              zip(rep.iterates[-1], [0.0, 1.0, 0.0]))
    assert err <= 1e-4


@pytest.fixture(scope="module")
def martinet_plan():
    law, rep = global_plan(martinet_fields(), [-0.5, 0.0, 0.0],
                           [0.5, 0.2, 0.1], 1e-3, BOX3, PlannerConfig(),
                           r=None)
    return law, rep


def test_plan_martinet_crosses_the_plane(martinet_plan):
    law, rep = martinet_plan
    assert rep.status == "converged"
    assert len(rep.legs) == 3
    assert [leg.iterations for leg in rep.legs] == [1, 1, 1]
    # the session counts every leg's attempts and rejections
    assert [leg.attempts for leg in rep.legs] == [1, 1, 1]
    assert (rep.attempts, rep.rejections) == (3, 0)
    blob = rep.to_json()
    assert (blob["attempts"], blob["rejections"]) == (3, 0)
    for leg in rep.legs:
        assert float(leg.final_norm) <= 1e-3
    err = max(abs(a - b) for a, b in
              zip(rep.iterates[-1], [0.5, 0.2, 0.1]))
    assert err <= 1e-4


def test_plan_martinet_replay_reaches_endpoint(martinet_plan):
    law, rep = martinet_plan
    traj = integrate(martinet_fields(), [-0.5, 0.0, 0.0], law, tol=1e-11)
    err = max(abs(a - b) for a, b in zip(traj.endpoint, rep.iterates[-1]))
    assert err <= 2e-8
    # the physical crossing: x1 really sweeps from negative to positive
    xs = [row[0] for row in traj.states]
    assert min(xs) < -0.25 and max(xs) > 0.25


def test_plan_report_serializes(martinet_plan):
    law, rep = martinet_plan
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["status"] == "converged"
    assert len(blob["legs"]) == 3
    assert blob["total_length"] == pytest.approx(rep.total_length())
    lawblob = json.loads(json.dumps(law.to_json()))
    assert lawblob["m"] == 2


def test_plan_auto_depth_matches_explicit(martinet_plan):
    law, rep = martinet_plan
    law3, rep3 = global_plan(martinet_fields(), [-0.5, 0.0, 0.0],
                             [0.5, 0.2, 0.1], 1e-3, BOX3, PlannerConfig(),
                             r=3)
    assert [l.iterations for l in rep3.legs] == \
        [l.iterations for l in rep.legs]


# ---------------------------------------------------------------------------
# configuration and law plumbing


def test_bracket_ratio_is_admissible():
    # inside ((1/2)**(1/(r+1)**2), 1), the interval on which the
    # modified loop converges
    for r in range(1, 6):
        lo = 0.5 ** (1.0 / (r + 1) ** 2)
        assert lo < planner.bracket_ratio(r) < 1.0


def test_concatenate_laws_guards():
    law = ControlLaw(2, [])
    with pytest.raises(SpecError):
        concatenate([law], 3)
    empty = concatenate([], 2)
    assert empty.m == 2 and empty.nperiods == 0 and empty.scale == 1


def test_concatenate_folds_scales():
    p1 = {"channels": [[(F(2), 1, 0)], []]}
    a = ControlLaw(2, [p1], scale=F(3))
    b = ControlLaw(2, [p1], scale=F(1, 2))
    law = concatenate([a, b], 2)
    assert law.nperiods == 2
    assert law.scale == 1
    assert law.periods[0]["channels"][0][0][0] == F(6)
    assert law.periods[1]["channels"][0][0][0] == F(1)


def test_planner_report_empty_json():
    rep = PlannerReport((1, 1, 2))
    blob = rep.to_json()
    assert blob["status"] == "pending"
    assert blob["final_norm"] is None
    assert blob["total_length"] == 0
