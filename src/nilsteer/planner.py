"""Iterative global steering on top of local approximate steering.

The local step (LocalSteering.steer) steers the canonical model of
the system exactly and replays the resulting law, whole, on the true
system.  The global loop (global_free) walks dilation subgoals toward
the goal, halving its step budget whenever the local step fails to
cut the remaining pseudo-distance in half, or raises SingularFrame or
StepFailure.  It is the modified loop: it also brackets the
iterates inside the pseudo-norm ball of radius ||z(x0)|| / (1 - R),
so no a priori compactness assumption is needed and no box confines a
replay.  The loop has no knobs: the bracketing ratio R follows from
the step r (bracket_ratio), and the attempt cap (ITERATION_CAP) and
the replay tolerance (REPLAY_TOL) are constants.
Systems with singular points run through the covering machinery: the
working box is split into cells carrying a fixed bracket frame, the
planner lifts the system on each cell along the path, steers the
lifted free system between waypoints, and projects back down; the
accepted per-step laws are chained into one by steer.concatenate.

The covering atlas depends only on the fields, the box, the grid
resolution and the step r, never on the endpoints, so a Planner builds
it once, together with the canonical model and its frequency plan, and
each query only searches a cell path through it
(CoveringAtlas.path_between).
build_covering decides most boxes with one float screen over compiled
bracket fields; a box whose outcome could turn on rounding goes
through the exact frame search instead (see _screen_frames).

A practical note on tolerances: an endpoint whose coordinates carry
integrator noise of size tau has pseudo-norm around tau**(1/r), so
asking the loop for a tolerance below REPLAY_TOL**(1/r) cannot
converge.
The canonical model itself is exempt: steering it is exact by
construction, so its local step skips integration entirely.
"""

import itertools
import math

import numpy as np

from .canonical import canonical_fields
from .desing import DET_THRESHOLD, _bracket_values, cheapest_frame, \
    desingularize, frame_combos
from .errors import (
    CoverageGap, IterationCapExceeded, NoPath, SingularFrame, SpecError,
    StepFailure,
)
from .hall import evaluate_bracket
from .poly import WeightedPolynomialField, compile_field
from .privcoord import dilate, first_order_approx, pseudo_norm
from .sim import input_length, integrate
from .steer import build_plan, concatenate, exact_steer


# Replay tolerance of every local step.  The integrator noise it
# leaves in a replayed endpoint puts a floor of about REPLAY_TOL**(1/r)
# under the loop's pseudo-norm: 1e-5 at r = 2, 4.6e-4 at r = 3.
REPLAY_TOL = 1e-10

# Loop attempts, accepted or not, before global_free gives up.
ITERATION_CAP = 10000


def bracket_ratio(r):
    """The bracketing ratio R of the modified loop at step r.

    Convergence holds for every R in ((1/2)**(1/(r+1)**2), 1); this is
    the midpoint of that interval, so R follows from r alone.
    """
    lo = 0.5 ** (1.0 / (r + 1) ** 2)
    return (lo + 1.0) / 2.0


class PlannerConfig:
    """The planner's one setting: grid, the covering's boxes per axis.

    Everything else is fixed.  The bracketing ratio is bracket_ratio(r):
    the loop converges for every admissible ratio, so r picks one.  The
    attempt cap is ITERATION_CAP: convergence carries no explicit rate
    bound, so a fixed cap is all that stops a run that cannot converge.
    The replay tolerance is REPLAY_TOL: what it must give, a noise
    floor REPLAY_TOL**(1/r) below the loop tolerance e, depends on each
    query's e, so a session setting is the wrong place for it.  The
    covering and the lift share the frame determinant gate
    desing.DET_THRESHOLD, and no box confines a replay, since the
    modified loop already keeps every iterate in its pseudo-norm ball.
    """

    __slots__ = ("grid",)

    def __init__(self, grid=8):
        self.grid = grid


class PlannerReport:
    """Trace of one planning run.

    iterates holds the accepted points starting with the initial one;
    norms the goal-chart pseudo-norms alongside; subgoals and laws the
    accepted per-iteration targets and inputs.  etas records the step
    budget after every attempt, so rejections are visible as halvings
    without an accompanying iterate.
    """

    def __init__(self, weights=None):
        self.weights = tuple(weights) if weights else None
        self.iterates = []
        self.subgoals = []
        self.norms = []
        self.etas = []
        self.laws = []
        self.k_final = 0
        self.attempts = 0
        self.rejections = 0
        self.status = "pending"
        self.legs = None

    @property
    def iterations(self):
        return max(0, len(self.iterates) - 1)

    @property
    def final_norm(self):
        return self.norms[-1] if self.norms else None

    def total_length(self):
        if self.legs is not None:
            return sum(leg.total_length() for leg in self.legs)
        return sum(input_length(law) for law in self.laws)

    def to_json(self):
        out = {
            "status": self.status,
            "iterations": self.iterations,
            "attempts": self.attempts,
            "rejections": self.rejections,
            "final_norm": (float(self.final_norm)
                           if self.final_norm is not None else None),
            "total_length": self.total_length(),
            "iterates": [[float(v) for v in p] for p in self.iterates],
            "subgoals": [[float(v) for v in p] for p in self.subgoals],
            "norms": [float(v) for v in self.norms],
            "etas": [float(v) for v in self.etas],
        }
        if self.weights:
            out["weights"] = list(self.weights)
        if self.k_final:
            out["k_final"] = self.k_final
        if self.legs is not None:
            out["legs"] = [leg.to_json() for leg in self.legs]
        return out


class LocalSteering:
    """Approximate-and-correct local step for a free system.

    Takes the canonical model of the free system (canonical_fields)
    and its steering plan (build_plan) from the caller, which builds
    them once per (m, r), and holds a chart cache; its steer and
    chart_at are what the global loop calls.  When the system
    literally is its canonical model the replay endpoint equals the
    goal by construction and integration is skipped, which is also
    what keeps exact-input runs exact.
    """

    def __init__(self, fields, system, plan):
        self.fields = list(fields)
        self.system = system
        self.plan = plan
        self.basis = system.basis
        self._charts = {}
        self.exact_model = self._matches_model()

    def _matches_model(self):
        return len(self.fields) == len(self.system.fields) and all(
            isinstance(mine, WeightedPolynomialField) and mine == model
            for mine, model in zip(self.fields, self.system.fields))

    def chart_at(self, a):
        key = tuple(float(v) for v in a)
        hit = self._charts.get(key)
        if hit is None:
            hit = first_order_approx(self.fields, list(a), self.basis)
            self._charts[key] = hit
        return hit

    def steer(self, x, a):
        """One local step from x toward a: returns (endpoint, law).

        A start equal to a, coordinate for coordinate, gives a and the
        empty law: no chart rounding noise is steered or replayed.
        """
        if list(x) == list(a):
            return list(a), exact_steer([0] * self.system.n, self.system,
                                        self.plan)
        z = self.chart_at(a).apply(list(x))
        law = exact_steer(z, self.system, self.plan)
        if self.exact_model:
            return list(a), law
        traj = integrate(self.fields, x, law, REPLAY_TOL)
        return traj.endpoint, law


def subgoal(xbar, eta, j, chart):
    """Target point j steps of size eta along the dilation path.

    The path runs from xbar (t=1) to the chart's anchor (t=0) through
    t_j = max(0, 1 - j*eta/norm); once j*eta reaches the pseudo-norm
    of xbar the subgoal is the anchor itself.
    """
    weights = chart.weights
    z = chart.apply(list(xbar))
    nz = pseudo_norm(z, weights)
    if nz == 0:
        return list(chart.anchor)
    t = 1 - (j * eta) / nz
    if t <= 0:
        return list(chart.anchor)
    return chart.apply_inverse(dilate(z, t, weights))


def global_free(x0, x1, e, local):
    """Iterative steering of a free system from x0 toward x1.

    local is the local method (a LocalSteering or anything with the
    same steer/chart_at surface); x0 and x1 must lie where its charts
    hold, which Planner.plan ensures by taking them in one covering
    cell.  Per attempt: aim at the current subgoal, accept the step if
    it at least halves the pseudo-distance to the subgoal, otherwise
    halve the step budget and restart the subgoal path at the current
    iterate.  A local step that meets a singular frame or stalls the
    integrator counts as a failed attempt.  This is the modified loop:
    it also rejects or charges steps against the expanding bracket
    R_k, keeping every iterate's pseudo-norm below ||z(x0)|| / (1 - R),
    with R = bracket_ratio(r); it gives up after ITERATION_CAP attempts.
    """
    chart1 = local.chart_at(x1)
    weights = chart1.weights

    def goal_norm(pt):
        return pseudo_norm(chart1.apply(list(pt)), weights)

    R = bracket_ratio(local.basis.r)

    def bracket(k):
        # 1 + R + ... + R^k
        return (1.0 - R ** (k + 1)) / (1.0 - R)

    report = PlannerReport(weights)
    n0 = norm = goal_norm(x0)
    report.iterates.append(list(x0))
    report.norms.append(n0)
    eta = n0
    report.etas.append(eta)
    xi = list(x0)
    xbar = list(x0)
    j = 1
    k = 0
    while norm > e:
        if report.attempts >= ITERATION_CAP:
            report.status = "cap-exceeded"
            raise IterationCapExceeded(
                "no convergence after %d attempts (%.3g > %.3g left)"
                % (report.attempts, float(norm), float(e)),
                report=report)
        report.attempts += 1
        xd = subgoal(xbar, eta, j, chart1)
        try:
            x, law = local.steer(xi, xd)
            chart_d = local.chart_at(xd)
            away = pseudo_norm(chart_d.apply(list(x)), weights)
            before = pseudo_norm(chart_d.apply(list(xi)), weights)
            failed = away > before / 2
        except (SingularFrame, StepFailure):
            failed = True
        if failed:
            eta = eta / 2
            xbar = list(xi)
            j = 1
            report.rejections += 1
        else:
            nz = goal_norm(x)
            if nz >= bracket(k + 1) * n0:
                eta = eta / 2
                report.rejections += 1
            else:
                if bracket(k) * n0 <= nz:
                    eta = eta / 2
                    k += 1
                j += 1
                xi = list(x)
                norm = nz
                report.iterates.append(list(x))
                report.subgoals.append(list(xd))
                report.norms.append(nz)
                report.laws.append(law)
        report.etas.append(eta)
    report.status = "converged"
    report.k_final = k
    return report


# ---------------------------------------------------------------------------
# Covering of the working box


class Grid:
    """Uniform box decomposition of a compact box, res boxes per axis."""

    __slots__ = ("lo", "hi", "res", "n", "step")

    def __init__(self, lo, hi, res):
        self.lo = [float(v) for v in lo]
        self.hi = [float(v) for v in hi]
        self.n = len(self.lo)
        if len(self.hi) != self.n:
            raise SpecError("box corners disagree in dimension")
        if not isinstance(res, int) or res < 1:
            raise SpecError("grid resolution must be a positive int, got %r"
                            % (res,), res=res)
        self.res = res
        if not all(b > a for a, b in zip(self.lo, self.hi)):
            raise SpecError("degenerate grid box")
        self.step = [(b - a) / res for a, b in zip(self.lo, self.hi)]

    def boxes(self):
        return itertools.product(range(self.res), repeat=self.n)

    def bounds(self, idx):
        blo = [a + i * s for a, i, s in zip(self.lo, idx, self.step)]
        bhi = [a + (i + 1) * s for a, i, s in zip(self.lo, idx, self.step)]
        return blo, bhi

    def corners(self, idx):
        blo, bhi = self.bounds(idx)
        return [list(c) for c in itertools.product(
            *[(a, b) for a, b in zip(blo, bhi)])]


class Cell:
    """Face-connected union of grid boxes sharing one bracket frame."""

    __slots__ = ("frame", "boxes", "grid", "index")

    def __init__(self, frame, boxes, grid, index):
        self.frame = tuple(frame)
        self.boxes = sorted(boxes)
        self.grid = grid
        self.index = index

    def contains(self, point):
        pt = [float(v) for v in point]
        for idx in self.boxes:
            blo, bhi = self.grid.bounds(idx)
            if all(a - 1e-12 <= v <= b + 1e-12
                   for v, a, b in zip(pt, blo, bhi)):
                return True
        return False

    def bounding_box(self):
        los, his = [], []
        for idx in self.boxes:
            blo, bhi = self.grid.bounds(idx)
            los.append(blo)
            his.append(bhi)
        return ([min(v) for v in zip(*los)], [max(v) for v in zip(*his)])

    def to_json(self):
        lo, hi = self.bounding_box()
        return {"frame": list(self.frame), "boxes": len(self.boxes),
                "bounding_box": [lo, hi]}


class CoveringAtlas:
    """Cells and their intersection graph, with a waypoint per edge."""

    def __init__(self, grid, cells, edges):
        self.grid = grid
        self.cells = cells
        self.edges = edges

    def path_between(self, x_init, x_final):
        """Shortest cell path from a cell holding x_init to one holding
        x_final, breadth first with neighbours in index order."""
        sources = [c.index for c in self.cells if c.contains(x_init)]
        targets = {c.index for c in self.cells if c.contains(x_final)}
        if not sources or not targets:
            raise SpecError("endpoints are not inside the working box")
        adj = {c.index: set() for c in self.cells}
        for (a, b) in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        prev = {s: None for s in sources}
        queue = list(sources)
        found = None
        while queue:
            cur = queue.pop(0)
            if cur in targets:
                found = cur
                break
            for nb in sorted(adj[cur]):
                if nb not in prev:
                    prev[nb] = cur
                    queue.append(nb)
        if found is None:
            raise NoPath("covering graph does not connect the endpoints")
        path = []
        node = found
        while node is not None:
            path.append(node)
            node = prev[node]
        path.reverse()
        return path

    def waypoints(self, path):
        out = []
        for a, b in zip(path, path[1:]):
            key = (min(a, b), max(a, b))
            out.append(self.edges[key])
        return out

    def to_json(self):
        return {
            "cells": [c.to_json() for c in self.cells],
            "edges": [{"cells": list(k), "waypoint": [float(v) for v in w]}
                      for k, w in sorted(self.edges.items())],
        }


def _components(boxes):
    """Face-adjacency connected components of a set of index tuples."""
    todo = set(boxes)
    comps = []
    while todo:
        seed = todo.pop()
        comp = [seed]
        queue = [seed]
        while queue:
            cur = queue.pop()
            for axis in range(len(cur)):
                for d in (-1, 1):
                    nb = cur[:axis] + (cur[axis] + d,) + cur[axis + 1:]
                    if nb in todo:
                        todo.remove(nb)
                        comp.append(nb)
                        queue.append(nb)
        comps.append(comp)
    return comps


def _cell_edges(grid, cells):
    """{(a, b): waypoint} for every pair of cells a < b that touch.

    Two cells touch where a box of one is among the (at most 3**n - 1)
    grid neighbours of a box of the other.  The touching box pairs of
    an edge are listed with the lower cell's boxes in sorted order and
    each one's neighbours in sorted order, which is the order the
    waypoint's mean and tie-breaking see.
    """
    cell_of = {idx: cell.index for cell in cells for idx in cell.boxes}
    pairs = {}
    for cell in cells:
        for ia in cell.boxes:
            near = [range(max(i - 1, 0), min(i + 2, grid.res))
                    for i in ia]
            for ib in itertools.product(*near):
                b = cell_of[ib]
                if b > cell.index:
                    pairs.setdefault((cell.index, b), []).append((ia, ib))
    return {key: _overlap_waypoint(grid, pairs[key])
            for key in sorted(pairs)}


def _overlap_waypoint(grid, box_pairs):
    """Deterministic point in the intersection of two closed cells,
    given their touching box pairs: the centre of the shared face
    nearest the mean of all shared-face centres, first one on ties."""
    pieces = []
    for ia, ib in box_pairs:
        alo, ahi = grid.bounds(ia)
        blo, bhi = grid.bounds(ib)
        lo = [max(p, q) for p, q in zip(alo, blo)]
        hi = [min(p, q) for p, q in zip(ahi, bhi)]
        pieces.append([(l + h) / 2 for l, h in zip(lo, hi)])
    mean = [sum(c[d] for c in pieces) / len(pieces)
            for d in range(grid.n)]
    best = min(pieces, key=lambda c: sum((p - q) ** 2
                                         for p, q in zip(c, mean)))
    return best


# Margin of the float screen, relative to the column scale of a
# bracket matrix.  Float rounding moves a determinant by a few ulps
# of that scale; a box whose frame choice could flip within this
# margin goes to the exact search.
SCREEN_SLACK = 1e-6


def _screen_frames(fields, basis, grid):
    """{box index: frame} for the boxes the float screen decides.

    Only the cheapest level of n-subsets is screened.  Each bracket it
    uses is compiled once and evaluated once per grid corner, and
    every (box, corner) determinant of a subset is one numpy batch.  A
    box is decided when every subset of the level clears the gate
    (|det| > DET_THRESHOLD * scale) by SCREEN_SLACK * scale at every
    corner, and the largest worst |det| beats every other by the
    factor 1 + SCREEN_SLACK.  Under those margins the exact search
    (cheapest_frame on _bracket_values, exact or float) picks the same
    frame; a failing or nearly tied subset leaves the box undecided,
    because an exact determinant passes the gate whenever it is
    nonzero.
    """
    n = grid.n
    combos = frame_combos(basis, n)
    if not combos:
        return {}
    level = combos[0][0]
    combos = [c for lv, c in combos if lv == level]
    cols = sorted({j for c in combos for j in c})
    kernels = [compile_field(evaluate_bracket(basis, j, fields))
               for j in cols]
    res = grid.res
    axes = [[a + i * s for i in range(res + 1)]
            for a, s in zip(grid.lo, grid.step)]
    # values[corner grid index..., bracket, coordinate]
    values = np.array([[kern(list(p)) for kern in kernels]
                       for p in itertools.product(*axes)], dtype=float)
    values = values.reshape([res + 1] * n + [len(cols), n])
    # box_vals[box, corner, bracket, coordinate], boxes in grid.boxes()
    # order and corners in Grid.corners() order
    box_vals = np.stack(
        [values[tuple(slice(o, o + res) for o in off)]
         .reshape(-1, len(cols), n)
         for off in itertools.product((0, 1), repeat=n)], axis=1)
    clear, scores = [], []
    for combo in combos:
        mats = box_vals[:, :, [cols.index(j) for j in combo], :]
        dets = np.abs(np.linalg.det(mats))
        norms = np.linalg.norm(mats, axis=-1)
        scale = np.prod(np.where(norms > 0, norms, 1.0), axis=-1)
        clear.append(np.all(dets > (DET_THRESHOLD + SCREEN_SLACK) * scale,
                            axis=1))
        scores.append(np.min(dets, axis=1))
    ok = np.all(clear, axis=0)
    scores = np.array(scores)
    if len(combos) > 1:
        ranked = np.sort(scores, axis=0)
        ok &= ranked[-1] > ranked[-2] * (1 + SCREEN_SLACK)
    best = np.argmax(scores, axis=0)
    return {idx: combos[best[k]]
            for k, idx in enumerate(grid.boxes()) if ok[k]}


def build_covering(fields, K, basis, grid):
    """Split the box K into frame cells: the covering atlas.

    Each of the grid**n boxes gets the lowest-level frame whose
    determinant passes the gate at all box corners, preferring the
    largest worst determinant within a level; per-frame box sets are
    split into face-connected cells; cells touching each other are graph
    neighbors with a deterministic waypoint in their intersection.
    The float screen (_screen_frames) assigns most boxes; the rest go,
    in grid order, through cheapest_frame on exact corner values, so
    ties and the CoverageGap box are those of the exact search.
    """
    grid = Grid(K[0], K[1], grid)
    screened = _screen_frames(fields, basis, grid)
    assigned = {}
    memo = {}
    for idx in grid.boxes():
        frame = screened.get(idx)
        if frame is None:
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
                raise CoverageGap("no frame passes the corner gate on "
                                  "box %s" % (idx,), box=list(idx))
            frame = found[0]
        assigned[idx] = frame
    by_frame = {}
    for idx, frame in assigned.items():
        by_frame.setdefault(frame, []).append(idx)
    cells = []
    for frame in sorted(by_frame):
        for comp in _components(by_frame[frame]):
            cells.append(Cell(frame, comp, grid, len(cells)))
    return CoveringAtlas(grid, cells, _cell_edges(grid, cells))


# ---------------------------------------------------------------------------
# The full pipeline


class Planner:
    """A planning session on one system and working box K.

    The step r (the smallest in 2..5 whose covering has no gap when r
    is None), the covering atlas and the canonical model with its
    frequency plan depend only on (fields, K, config, r), so they are
    built here once; plan() answers one query on top of them.
    """

    def __init__(self, fields, K, config=None, r=None):
        self.fields = list(fields)
        dims = {f.n for f in self.fields}
        if len(dims) != 1:
            raise SpecError("fields must share one state dimension, got %s"
                            % sorted(dims))
        n, = dims
        if len(K) != 2 or any(len(corner) != n for corner in K):
            raise SpecError("box corners must have %d coordinates" % n)
        grid = (config or PlannerConfig()).grid
        m = len(self.fields)
        if r is None:
            last = None
            for cand in range(2, 6):
                system = canonical_fields(m, cand)
                try:
                    atlas = build_covering(self.fields, K, system.basis,
                                           grid)
                except CoverageGap as ex:
                    last = ex
                    continue
                r = cand
                break
            else:
                raise last
        else:
            system = canonical_fields(m, r)
            atlas = build_covering(self.fields, K, system.basis, grid)
        self.r = r
        self.atlas = atlas
        self.system = system
        self.steer_plan = build_plan(system)

    def plan(self, x_init, x_final, e):
        """Plan inputs steering the system from x_init to x_final.

        Walks the atlas's cell path, desingularizes at each leg's
        target (SingularFrame if the cell frame degenerates there),
        runs the modified free-system loop to tolerance e on the
        lifted system, and projects back.  Returns the concatenated
        law together with a report whose legs hold the per-cell
        traces and whose attempts and rejections are their sums.  e
        must be positive and finite: no loop gets below a tolerance of
        zero.
        """
        if not (e > 0 and math.isfinite(e)):
            raise SpecError("tolerance must be positive and finite, got %r"
                            % (e,))
        if len(x_final) != len(x_init):
            raise SpecError("endpoints disagree in dimension")
        path = self.atlas.path_between(x_init, x_final)

        report = PlannerReport()
        report.legs = []
        targets = self.atlas.waypoints(path) + [list(x_final)]
        x = [float(v) for v in x_init]
        laws = []
        for cell_id, target in zip(path, targets):
            lift = desingularize(self.fields, self.system.basis,
                                 self.atlas.cells[cell_id].frame, target)
            local = LocalSteering(lift.fields, self.system, self.steer_plan)
            leg = global_free(lift.lift_point(x), lift.lift_point(target),
                              e, local)
            report.legs.append(leg)
            laws.extend(leg.laws)
            x = lift.project(leg.iterates[-1])
        report.status = "converged"
        report.attempts = sum(leg.attempts for leg in report.legs)
        report.rejections = sum(leg.rejections for leg in report.legs)
        report.iterates = [[float(v) for v in x_init], list(x)]
        law = concatenate(laws, len(self.fields))
        law.meta.update(legs=len(path), path=list(path))
        report.norms = [leg.final_norm for leg in report.legs]
        return law, report


def global_plan(fields, x_init, x_final, e, K, config=None, r=None):
    """Plan inputs steering the system from x_init to x_final in K.

    One query of a fresh session: Planner(fields, K, config, r) then
    its plan(x_init, x_final, e).  Callers with several queries on one
    system keep the Planner.
    """
    return Planner(fields, K, config, r).plan(x_init, x_final, e)
