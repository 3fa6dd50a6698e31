"""Local steps, the global loop, box coverings, and the full pipeline."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from nilsteer import desing, planner
from nilsteer.canonical import canonical_fields
from nilsteer.desing import (
    _det_gate, cheapest_frame, frame_combos, frame_values,
)
from nilsteer.errors import (
    CoverageGap, IterationCapExceeded, SpecError, StepFailure,
)
from nilsteer.hall import build_hall_basis, evaluate_brackets
from nilsteer.planner import (
    Grid, LocalSteering, Planner, PlannerConfig, PlannerReport,
    _overlap_waypoint, build_covering, global_free, global_plan, subgoal,
)
from nilsteer.poly import (
    ExprField, Poly, WeightedPolynomialField, as_expr_field, compile_field,
    det_matrix, eadd, ecos, epow, erat, esin, evar, read_coordinates,
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


def chained_fields():
    """The 5-D chained form X1 = d1 + x3 d2 + x4 d3 + x5 d4, X2 = d5,
    on which [X2, [X1, X2]] is identically zero."""
    n = 5
    one, zero = Poly.const(n, 1), Poly.zero(n)
    x3, x4, x5 = (Poly.var(n, i) for i in (2, 3, 4))
    return [WeightedPolynomialField([one, x3, x4, x5, zero]),
            WeightedPolynomialField([zero, zero, zero, zero, one])]


def bent_chained_fields():
    """The chained form bent by x2^2: X1 = d1 + x3 d2 + (x4 + x2^2) d3
    + x5 d4, X2 = d5, which is not nilpotent."""
    n = 5
    one, zero = Poly.const(n, 1), Poly.zero(n)
    x3, x4, x5 = (Poly.var(n, i) for i in (2, 3, 4))
    bent = x4.add(Poly.monomial(n, (0, 2, 0, 0, 0), F(1)))
    return [WeightedPolynomialField([one, x3, bent, x5, zero]),
            WeightedPolynomialField([zero, zero, zero, zero, one])]


def sine_martinet_fields():
    """X1 = d1, X2 = d2 + sin(x1)^2 d3 as expression fields: the
    Martinet singular plane x1 = 0 through trig kernels."""
    s = esin(evar(0))
    return [ExprField([erat(1), erat(0), erat(0)]),
            ExprField([erat(0), erat(1), epow(s, 2)])]


BOX5 = ([-1.0] * 5, [1.0] * 5)

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
    "chained-grid1": (chained_fields, BOX5, 4, 1),
    "chained-grid2": (chained_fields, BOX5, 4, 2),
    "chained-grid3": (chained_fields, BOX5, 4, 3),
    "bent-chained-grid1": (bent_chained_fields, BOX5, 4, 1),
    "bent-chained-grid2": (bent_chained_fields, BOX5, 4, 2),
    "sine-martinet-r2-grid8": (sine_martinet_fields, BOX3, 2, 8),
    "sine-martinet-r3-grid8": (sine_martinet_fields, BOX3, 3, 8),
}


def exact_frames(fields, K, basis, res):
    """Every box's frame from cheapest_frame on every n-subset of the
    basis and on the bracket values at its corners (frame_values), in
    grid order, or the first box it finds no frame for.  build_covering
    reads compiled kernels, which equal float(evaluate()) bit for bit up
    to the sign of a zero (poly.compile_field), so the two see the same
    numbers, except that a corner matrix of exact constants gets the
    exact gate here and the relative one there."""
    grid = Grid(K[0], K[1], res)
    brackets = evaluate_brackets(basis, range(1, len(basis) + 1), fields)
    memo = {}

    def det_at(corner, combo):
        if corner not in memo:
            memo[corner] = frame_values(brackets, corner)
        rows = [[row[j - 1] for j in combo] for row in memo[corner]]
        det = det_matrix(rows)
        return abs(float(det)) if _det_gate(det, rows) else None

    ranked = frame_combos(basis, grid.n)
    frames = {}
    for idx in grid.boxes():
        corners = list(itertools.product(*zip(*grid.bounds(idx))))
        found = cheapest_frame(ranked, corners, det_at)
        if found is None:
            return list(idx)
        frames[idx] = found
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


def atlas_digest(case):
    """sha256 of the sorted-key JSON of a case's atlas.to_json() and
    each cell's (frame, boxes) in index order, or of its CoverageGap
    box: cell order, every box and every waypoint bit."""
    make, K, r, res = ATLAS_CASES[case]
    fields = make()
    try:
        atlas = build_covering(fields, K, build_hall_basis(len(fields), r),
                               res)
        blob = [atlas.to_json(), [[list(c.frame), [list(b) for b in c.boxes]]
                                  for c in atlas.cells]]
    except CoverageGap as exc:
        blob = ["CoverageGap", exc.payload["box"]]
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()) \
        .hexdigest()


# atlas_digest of every ATLAS_CASES entry, taken when every box was
# decided on the full corner grid
ATLAS_DIGESTS = {
    "bent-chained-grid1":
        "9a17d7a4cd2612e9ded626b01f123c7fe4be37e0263d5c35ede9adcf6bef01d8",
    "bent-chained-grid2":
        "0e0942a605d1cf88d2c81eb2f539955e698191a7ca75da3386a9dc4b893fe3c3",
    "canonical22":
        "9d7798ad72999eb9a622fe73851e575fe236339df355e0fa05f173a616d75157",
    "chained-grid1":
        "9a17d7a4cd2612e9ded626b01f123c7fe4be37e0263d5c35ede9adcf6bef01d8",
    "chained-grid2":
        "0e0942a605d1cf88d2c81eb2f539955e698191a7ca75da3386a9dc4b893fe3c3",
    "chained-grid3":
        "e28a010f3d3197c314bedff39c4c3b6436fda2b3124efb7a3ae41b36bd2fb326",
    "martinet-r2-grid4":
        "d23d2f01ef8701539466cd319ef95bec500d1ab786f32862356737dd98981f39",
    "martinet-r2-grid8":
        "bca5238fdd230c60fd1d825a984154f611ef0537a8c5d7faeb1ef4792de29ada",
    "martinet-r3-grid4":
        "40c2f9afba1383b21294fff040f56ce8cb43fb98bb7fa557564a81cb594ac3c6",
    "martinet-r3-grid8":
        "fc2f5dc4b623cf15d7211e29df63db68e58b8bb59ebd27ef93e45dd6d63bdc3a",
    "parabola-grid3":
        "28fb84d572ef87415433bebc38831e4f09484b28ec46c4f7d9d1299c0683e965",
    "parabola-grid4":
        "68176d6fea198c4e5f8a68e52800b7b528f218c5b0cff09a9ae718f48db4e8a7",
    "parabola-grid5":
        "e03fa9339790dc43e9516c9553519f4daacb34b6f7451ed33f7bd4a498ea9019",
    "parabola-grid8":
        "ed5128c06d231122d2e197c4cfe1e9f05ff4238e0fe59cd1a6c99e37ef5ab66f",
    "sine-martinet-r2-grid8":
        "bca5238fdd230c60fd1d825a984154f611ef0537a8c5d7faeb1ef4792de29ada",
    "sine-martinet-r3-grid8":
        "fc2f5dc4b623cf15d7211e29df63db68e58b8bb59ebd27ef93e45dd6d63bdc3a",
    "three-plane":
        "51ff372fb2960dc847c601475b2e58dd27015ecc3d06f578f1d62329044009e5",
    "unicycle-grid2":
        "8dfe761fb4248f4c2178d74355238ea2fed69b11fea484c90a8e70d634f171d0",
    "unicycle-grid4":
        "b55b2188ad765d29c7ec1a32ee84173c4af3cecfe185af03332f8fa0e395bb55",
    "x1^1":
        "9d7798ad72999eb9a622fe73851e575fe236339df355e0fa05f173a616d75157",
    "x1^2":
        "40c2f9afba1383b21294fff040f56ce8cb43fb98bb7fa557564a81cb594ac3c6",
    "x1^3":
        "8cc84bd239647f29b95823b19514cb1cdac8bef753487dc7f0996094619cf216",
}


@pytest.mark.parametrize("case", sorted(ATLAS_CASES))
def test_atlas_is_pinned(case):
    assert atlas_digest(case) == ATLAS_DIGESTS[case]


def test_sine_martinet_splits_on_its_projection():
    make, K, _, res = ATLAS_CASES["sine-martinet-r3-grid8"]
    atlas = build_covering(make(), K, build_hall_basis(2, 3), res)
    assert [(c.frame, len(c.boxes)) for c in atlas.cells] == \
        [((1, 2, 3), 192), ((1, 2, 3), 192), ((1, 2, 4), 128)]
    with pytest.raises(CoverageGap) as exc:
        build_covering(make(), K, build_hall_basis(2, 2), res)
    assert exc.value.payload["box"] == [3, 0, 0]


# read_coordinates of every nonzero bracket, by basis index, for each
# group of ATLAS_CASES entries on one system and step r; the covering
# decides on the grid of their union
READ_SETS = {
    ("unicycle-grid2", "unicycle-grid4"): {1: {2}, 2: set(), 3: {2}},
    ("martinet-r2-grid4", "martinet-r2-grid8", "sine-martinet-r2-grid8"):
        {1: set(), 2: {0}, 3: {0}},
    ("martinet-r3-grid4", "martinet-r3-grid8", "x1^2"):
        {1: set(), 2: {0}, 3: {0}, 4: set()},
    ("sine-martinet-r3-grid8",): {1: set(), 2: {0}, 3: {0}, 4: {0}},
    ("canonical22", "x1^1"): {1: set(), 2: {0}, 3: set()},
    ("x1^3",): {1: set(), 2: {0}, 3: {0}, 4: {0}, 6: set()},
    ("parabola-grid3", "parabola-grid4", "parabola-grid5",
     "parabola-grid8"):
        {1: set(), 2: {0, 1}, 3: {0, 1}, 4: set(), 5: {1}},
    ("three-plane",): {1: set(), 2: set(), 3: {0, 1}, 5: set(), 6: set()},
    ("chained-grid1", "chained-grid2", "chained-grid3"):
        {1: {2, 3, 4}, 2: set(), 3: set(), 4: set(), 6: set()},
    ("bent-chained-grid1", "bent-chained-grid2"):
        {1: {1, 2, 3, 4}, 2: set(), 3: set(), 4: set(), 6: set()},
}


def nonzero_brackets(case):
    make, _, r, _ = ATLAS_CASES[case]
    fields = make()
    basis = build_hall_basis(len(fields), r)
    brackets = evaluate_brackets(basis, range(1, len(basis) + 1), fields)
    return {j: b for j, b in enumerate(brackets, 1) if not b.is_zero()}


def test_read_sets_are_pinned():
    assert sorted(c for group in READ_SETS for c in group) == \
        sorted(ATLAS_CASES)
    for group, want in READ_SETS.items():
        for case in group:
            got = {j: read_coordinates(b)
                   for j, b in nonzero_brackets(case).items()}
            assert got == want, case


@pytest.mark.parametrize("group", sorted(READ_SETS))
def test_unread_coordinates_leave_kernels_bit_identical(group):
    rng = random.Random(5)
    for j, b in nonzero_brackets(group[0]).items():
        kern = compile_field(b)
        unread = [k for k in range(b.n) if k not in read_coordinates(b)]
        for _ in range(20):
            p = [rng.uniform(-2.0, 2.0) for _ in range(b.n)]
            want = [v.hex() for v in kern(p)]
            for k in unread:
                for v in (rng.uniform(-1e3, 1e3), 0.0, -0.0, math.inf,
                          math.nan, 1e308):
                    q = list(p)
                    q[k] = v
                    assert [w.hex() for w in kern(q)] == want, (j, k, v)


def scan_contains(cell, pt):
    """Cell.contains as a scan of every box of the cell."""
    for idx in cell.boxes:
        blo, bhi = cell.grid.bounds(idx)
        if all(a - 1e-12 <= v <= b + 1e-12
               for v, a, b in zip(pt, blo, bhi)):
            return True
    return False


def probe_points(grid, rng, count=120):
    """Seeded points of a grid: corners, face centres, every coordinate
    of a corner moved by about 1e-12 in or out of its box, and points
    outside the box."""
    def edge(k, i):
        return grid.lo[k] + i * grid.step[k]

    def mid(k, i):
        return grid.lo[k] + (i + 0.5) * grid.step[k]

    corners = [[edge(k, rng.randrange(grid.res + 1)) for k in range(grid.n)]
               for _ in range(count)]
    faces = []
    for _ in range(count):
        axis = rng.randrange(grid.n)
        faces.append([edge(k, rng.randrange(grid.res + 1)) if k == axis
                      else mid(k, rng.randrange(grid.res))
                      for k in range(grid.n)])
    moves = (1e-12, -1e-12, 0.5e-12, -0.5e-12, 2e-12, -2e-12)
    near = []
    for c in corners + faces:
        q = list(c)
        for k in range(grid.n):
            d = rng.choice(moves)
            q[k] = rng.choice([q[k] + d, math.nextafter(q[k] + d, math.inf),
                               math.nextafter(q[k] + d, -math.inf)])
        near.append(q)
    outside = []
    for _ in range(count // 4):
        q = [mid(k, rng.randrange(grid.res)) for k in range(grid.n)]
        k = rng.randrange(grid.n)
        q[k] = rng.choice([grid.lo[k] - 0.5, grid.hi[k] + 3e-12, math.nan,
                           math.inf, -1e300])
        outside.append(q)
    return corners + faces + near + outside


@pytest.mark.parametrize("case", sorted(ATLAS_CASES))
def test_cell_contains_matches_the_box_scan(case):
    make, K, r, res = ATLAS_CASES[case]
    fields = make()
    try:
        atlas = build_covering(fields, K, build_hall_basis(len(fields), r),
                               res)
    except CoverageGap:
        atlas = None
    if atlas is None:
        # the gap cases' grids, with one cell of every box
        grid = Grid(K[0], K[1], res)
        cells = [planner.Cell((), list(grid.boxes()), grid, 0)]
    else:
        grid, cells = atlas.grid, atlas.cells
    rng = random.Random(case)
    seen = Counter()
    for pt in probe_points(grid, rng):
        for cell in cells:
            got = cell.contains(pt)
            assert got == scan_contains(cell, pt), (cell.index, pt)
            seen[got] += 1
    assert seen[True] and seen[False]


def test_cell_contains_on_boxes_finer_than_the_margin():
    # steps of 2.5e-13 and 5e-13, below the 1e-12 widening: a point is
    # held by up to ten boxes per axis, which one cell of every other
    # box must see as the scan does
    grid = Grid([0.0, -1e-12], [1e-12, 1e-12], 4)
    cells = [planner.Cell((), [idx for idx in grid.boxes()
                               if sum(idx) % 2 == parity], grid, parity)
             for parity in (0, 1)]
    rng = random.Random(3)
    points = probe_points(grid, rng) + [
        [rng.uniform(-3e-12, 4e-12), rng.uniform(-3e-12, 3e-12)]
        for _ in range(200)]
    for pt in points:
        for cell in cells:
            assert cell.contains(pt) == scan_contains(cell, pt), pt


def counting_cheapest_frame(monkeypatch):
    """(ranking, corners, frame) of every call build_covering makes to
    cheapest_frame, in call order, and every (corner, subset) its
    determinant lookup is asked for."""
    calls, asked = [], []

    def counting(ranked, corners, det_at):
        def lookup(corner, combo):
            asked.append((corner, combo))
            return det_at(corner, combo)
        frame = desing.cheapest_frame(ranked, corners, lookup)
        calls.append((ranked, corners, frame))
        return frame

    monkeypatch.setattr(planner, "cheapest_frame", counting)
    return calls, asked


def test_one_decider_reads_each_box_corners(monkeypatch):
    calls, _ = counting_cheapest_frame(monkeypatch)
    atlas = build_covering(unicycle_fields(), BOX3, build_hall_basis(2, 2),
                           4)
    assert len(atlas.cells) == 1 and len(atlas.cells[0].boxes) == 64
    # every bracket reads theta alone: the corner table holds the 5
    # theta values, and each theta slab is decided once, in grid order,
    # on its two corners
    assert [corners for _, corners, _ in calls] == [[i, i + 1]
                                                     for i in range(4)]
    assert {frame for _, _, frame in calls} == {(1, 2, 3)}
    calls.clear()
    atlas = build_covering(martinet_fields(), BOX3, build_hall_basis(2, 3),
                           8)
    # every bracket reads x1 alone: one decision per x1-slab.
    # [X1, X2] = 2 x1 d3 vanishes on x1 = 0: the slabs 3 and 4 touching
    # it take the length-3 bracket, every other slab the cheaper frame
    assert [corners for _, corners, _ in calls] == [[i, i + 1]
                                                     for i in range(8)]
    assert [frame for _, _, frame in calls] == \
        [(1, 2, 3)] * 3 + [(1, 2, 4)] * 2 + [(1, 2, 3)] * 3
    got = {idx: cell.frame for cell in atlas.cells for idx in cell.boxes}
    assert got == {idx: (1, 2, 4) if idx[0] in (3, 4) else (1, 2, 3)
                   for idx in itertools.product(range(8), repeat=3)}
    calls.clear()
    make, K, r, res = ATLAS_CASES["three-plane"]
    build_covering(make(), K, build_hall_basis(3, r), res)
    # X3 reads both axes: every box is decided, on its corners as flat
    # indices into the 9**2 corner table, in itertools.product order
    assert [corners for _, corners, _ in calls] == [
        [sum(c * 9 ** (1 - k) for k, c in enumerate(corner))
         for corner in itertools.product(*[(i, i + 1) for i in idx])]
        for idx in itertools.product(range(8), repeat=2)]


def test_chained_form_ranks_no_zero_bracket(monkeypatch):
    # every subset of the cheapest level holds [X2, [X1, X2]], which is
    # identically zero; the ranking leaves those subsets out, so every
    # box reads the next level, which spans everywhere
    calls, asked = counting_cheapest_frame(monkeypatch)
    basis = build_hall_basis(2, 4)
    atlas = build_covering(chained_fields(), BOX5, basis, 3)
    assert [(c.frame, len(c.boxes)) for c in atlas.cells] == \
        [((1, 2, 3, 4, 6), 243)]
    zero = [j for j, b in enumerate(
        evaluate_brackets(basis, range(1, len(basis) + 1),
                          chained_fields()), 1) if b.is_zero()]
    assert 5 in zero
    # the brackets read x3, x4 and x5: one decision per box of their grid
    assert len(calls) == 27
    ranked = calls[0][0]
    assert all(r is ranked for r, _, _ in calls)
    assert ranked == [(lv, c) for lv, c in frame_combos(basis, 5)
                      if not set(c) & set(zero)]
    assert all(not set(combo) & set(zero) for _, combo in asked)


def test_covering_takes_each_determinant_once(monkeypatch):
    taken = []

    def counting(rows):
        taken.append(rows)
        return det_matrix(rows)

    monkeypatch.setattr(planner, "det_matrix", counting)
    _, asked = counting_cheapest_frame(monkeypatch)
    build_covering(unicycle_fields(), BOX3, build_hall_basis(2, 2), 4)
    # one subset, (X1, X2, [X1, X2]), at each of the 5 theta corners
    assert len(taken) == 5
    assert len(set(asked)) == 5 < len(asked)
    taken.clear()
    asked.clear()
    build_covering(martinet_fields(), BOX3, build_hall_basis(2, 3), 8)
    # slabs share corners, and no (corner, subset) pair is taken twice
    assert len(taken) == len(set(asked)) < len(asked)
    taken.clear()
    asked.clear()
    make, K, r, res = ATLAS_CASES["three-plane"]
    build_covering(make(), K, build_hall_basis(3, r), res)
    # every axis is read: the full-grid count
    assert len(taken) == len(set(asked)) == 241 < len(asked)


def test_covering_runs_each_kernel_once_per_corner(monkeypatch):
    points = Counter()
    kernels = []
    combos = []
    compile_field = planner.compile_field

    def compiling(field):
        kern = compile_field(field)
        k = len(kernels)
        kernels.append(field)

        def counted(p):
            points[k, tuple(p)] += 1
            return kern(p)
        return counted

    def ranking(*args):
        combos.append(args)
        return frame_combos(*args)

    monkeypatch.setattr(planner, "compile_field", compiling)
    monkeypatch.setattr(planner, "frame_combos", ranking)
    calls, _ = counting_cheapest_frame(monkeypatch)
    basis = build_hall_basis(2, 3)
    build_covering(martinet_fields(), BOX3, basis, 8)
    # every x1-slab is decided on the one ranking and the one table
    assert len(calls) == 8
    assert len(combos) == 1
    # brackets 1 to 4 run, [X2, [X1, X2]] is identically zero, and
    # each runs at the 9 x1 corners, the other coordinates at their
    # lower bounds
    assert len(kernels) == 4
    assert evaluate_brackets(basis, [5], martinet_fields())[0].is_zero()
    assert set(points.values()) == {1}
    assert {p for _, p in points} == {(-1.0 + i * 0.25, -1.0, -1.0)
                                      for i in range(9)}
    assert len(points) == 4 * 9
    points.clear()
    kernels.clear()
    calls.clear()
    make, K, r, res = ATLAS_CASES["three-plane"]
    build_covering(make(), K, build_hall_basis(3, r), res)
    # every axis is read: the full-grid counts
    assert len(calls) == 64
    assert set(points.values()) == {1}
    assert len(points) == len(kernels) * 9 ** 2 == 5 * 81


def test_structurally_zero_brackets_leave_the_ranking(monkeypatch):
    """X3 is zero only after simplification, so it is not identically
    zero to the ranking: the subsets holding it stay ranked, and every
    box still picks (1, 2).  A literal zero X3 leaves the ranking."""
    x1 = evar(0)
    X1 = ExprField([erat(1), erat(0)])
    X2 = ExprField([erat(0), erat(1)])
    cancel = ExprField([eadd(epow(esin(x1), 2), epow(ecos(x1), 2),
                             erat(-1)), erat(0)])
    assert not cancel.is_zero()
    assert ExprField([erat(0), erat(0.0)]).is_zero()
    basis = build_hall_basis(3, 1)
    K = ([-1.0, -1.0], [1.0, 1.0])
    calls, _ = counting_cheapest_frame(monkeypatch)
    atlas = build_covering([X1, X2, cancel], K, basis, 2)
    assert [c.frame for c in atlas.cells] == [(1, 2)]
    # X3 reads x1, X1 and X2 nothing: one decision per x1-slab
    assert len(calls) == 2
    assert all(ranked == frame_combos(basis, 2) for ranked, _, _ in calls)
    calls.clear()
    atlas = build_covering([X1, X2, ExprField([erat(0), erat(0)])], K,
                           basis, 2)
    assert [c.frame for c in atlas.cells] == [(1, 2)]
    # the ranked columns read no coordinate: one decision for every box
    assert len(calls) == 1
    assert all(ranked == [(2, (1, 2))] for ranked, _, _ in calls)


# sha256 of the sorted-key JSON of each one-shot law's to_json(), taken
# when the lift still built its Polys through expressions: the direct
# build must keep the term order, and with it every float sum.
ONE_SHOT_LAWS = [
    "65caf1204e8fb4c354e6a6a56e761ff04e741fc1816cf906f649beccbb199d86",
    "bac262b70a058a617a9a0cc6490874619b64be0c0ac2a1fcde7a55d001915d13",
    "fba57e520b2e009578ed779b92a882258ebde5b7993075cc344ed9aa550c70c7",
]


# sha256 of the sorted-key JSON of [law.to_json(), report.to_json()]
# for unicycle queries on the bench box: the Expr path (trig jets,
# float charts at float anchors), which the Martinet pins above miss.
UNICYCLE_LAWS = [
    "69a1bb1a3944c403d60246ea0b894ff88e7b60ae08f9478d57b1bddfce8985c3",
    "13065d873680920a2298495dd58dcfc02c942915def7f043b603bbf5d8f6c597",
    "a379285c187d72132ed0fae646b7b7fdd77f78b4d2d3f28041ab32236340df80",
    "b8e26e53c3384fd89728bcfb36da7e0948c0351dd6d40f123f4c610e882fd543",
]


def test_unicycle_plans_are_pinned():
    queries = [([0.0, 0.0, 0.0], [0.5, 0.2, 0.4]),
               ([0.0, 0.0, 0.0], [-0.6, 0.3, -1.0]),
               ([0.2, -0.1, 0.3], [-0.4, 0.5, 1.2]),
               ([0.0, 0.0, 0.0], [0.1, -0.7, 0.0])]
    box = ([-1.0, -1.0, -2.0], [1.0, 1.0, 2.0])
    digests = []
    for a, b in queries:
        law, rep = global_plan(unicycle_fields(), a, b, 1e-3, box,
                               PlannerConfig(4), r=2)
        digests.append(hashlib.sha256(json.dumps(
            [law.to_json(), rep.to_json()], sort_keys=True).encode())
            .hexdigest())
    assert digests == UNICYCLE_LAWS


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
    legs = [len(rep.legs) for _, rep in one_shot]
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
    for res in (2.5, "4", [4, 4], True):
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
    assert [leg.status for leg in rep.legs] == ["converged"]
    assert rep.legs[0].iterations == 1
    assert rep.endpoint == [0.0] * 5


def test_plan_unicycle_parking_single_cell():
    law, rep = global_plan(unicycle_fields(), [0.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], 1e-3, BOX3,
                           PlannerConfig(grid=4), r=2)
    assert [leg.status for leg in rep.legs] == ["converged"]
    assert float(rep.legs[0].final_norm) <= 1e-3
    err = max(abs(a - b) for a, b in zip(rep.endpoint, [0.0, 1.0, 0.0]))
    assert err <= 1e-4


@pytest.fixture(scope="module")
def martinet_plan():
    law, rep = global_plan(martinet_fields(), [-0.5, 0.0, 0.0],
                           [0.5, 0.2, 0.1], 1e-3, BOX3, PlannerConfig(),
                           r=None)
    return law, rep


def test_plan_martinet_crosses_the_plane(martinet_plan):
    law, rep = martinet_plan
    assert [leg.status for leg in rep.legs] == ["converged"] * 3
    assert [leg.iterations for leg in rep.legs] == [1, 1, 1]
    # the session sums every leg's iterations, attempts and rejections
    assert [leg.attempts for leg in rep.legs] == [1, 1, 1]
    blob = rep.to_json()
    assert blob["iterations"] == 3
    assert (blob["attempts"], blob["rejections"]) == (3, 0)
    assert blob["path"] == rep.path
    assert len(rep.path) == 3
    for leg in rep.legs:
        assert float(leg.final_norm) <= 1e-3
    err = max(abs(a - b) for a, b in zip(rep.endpoint, [0.5, 0.2, 0.1]))
    assert err <= 1e-4


def test_plan_martinet_replay_reaches_endpoint(martinet_plan):
    law, rep = martinet_plan
    traj = integrate(martinet_fields(), [-0.5, 0.0, 0.0], law, tol=1e-11)
    err = max(abs(a - b) for a, b in zip(traj.endpoint, rep.endpoint))
    assert err <= 2e-8
    # the physical crossing: x1 really sweeps from negative to positive
    xs = [row[0] for row in traj.states]
    assert min(xs) < -0.25 and max(xs) > 0.25


def test_plan_report_serializes(martinet_plan):
    law, rep = martinet_plan
    blob = json.loads(json.dumps(rep.to_json()))
    assert [leg["status"] for leg in blob["legs"]] == ["converged"] * 3
    assert blob["total_length"] == pytest.approx(
        sum(leg.total_length() for leg in rep.legs))
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
