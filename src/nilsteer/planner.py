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
build_covering ranks the frame subsets and fills one table of
compiled bracket values, with each bracket column's norm, once each,
at the corners of the grid of the axes those brackets read
(poly.read_coordinates); every box takes the frame that
desing.cheapest_frame decides, on that ranking and table, for its
projection onto that grid, once per projection, and each (corner,
subset) determinant is taken once, when a box first asks, in plain
floats (det_matrix's float branch) and gated from the table's norms.
Cell.contains finds a point's boxes from the grid index, not by a
scan of the cell.

A practical note on tolerances: an endpoint whose coordinates carry
integrator noise of size tau has pseudo-norm around tau**(1/r), so
asking the loop for a tolerance below REPLAY_TOL**(1/r) cannot
converge.
The canonical model itself is exempt: steering it is exact by
construction, so its local step skips integration entirely.
"""

import itertools
import math

from .canonical import canonical_fields
from .desing import (_norm_gate, cheapest_frame, column_norm,
                     desingularize, frame_combos)
from .errors import (
    CoverageGap, IterationCapExceeded, NoPath, SingularFrame, SpecError,
    StepFailure,
)
from .hall import evaluate_brackets
from .poly import (WeightedPolynomialField, compile_field, det_matrix,
                   read_coordinates)
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
    """Trace of one leg: one global_free run.

    iterates holds the accepted points starting with the initial one;
    norms the goal-chart pseudo-norms alongside; subgoals and laws the
    accepted per-iteration targets and inputs.  etas records the step
    budget after every attempt, so rejections are visible as halvings
    without an accompanying iterate.  weights are the goal chart's.
    """

    def __init__(self, weights):
        self.weights = tuple(weights)
        self.iterates = []
        self.subgoals = []
        self.norms = []
        self.etas = []
        self.laws = []
        self.k_final = 0
        self.attempts = 0
        self.rejections = 0
        self.status = "pending"

    @property
    def iterations(self):
        return max(0, len(self.iterates) - 1)

    @property
    def final_norm(self):
        return self.norms[-1] if self.norms else None

    def total_length(self):
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
            "weights": list(self.weights),
        }
        if self.k_final:
            out["k_final"] = self.k_final
        return out


class SessionReport:
    """Trace of one Planner.plan query: the cell path, one leg report
    per cell along it, and the base point the last leg reached.  Its
    JSON sums the legs' counts."""

    def __init__(self, path, legs, endpoint):
        self.path = list(path)
        self.legs = list(legs)
        self.endpoint = list(endpoint)

    def to_json(self):
        legs = [leg.to_json() for leg in self.legs]
        return {
            "path": self.path,
            "endpoint": [float(v) for v in self.endpoint],
            "iterations": sum(leg["iterations"] for leg in legs),
            "attempts": sum(leg["attempts"] for leg in legs),
            "rejections": sum(leg["rejections"] for leg in legs),
            "total_length": sum(leg["total_length"] for leg in legs),
            "legs": legs,
        }


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
        if isinstance(res, bool) or not isinstance(res, int) or res < 1:
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

    def holding(self, point):
        """Every box whose bounds (as bounds gives them) widened by
        1e-12 hold the float point, as an iterator of index tuples.
        Per axis, the indices near (v - lo) / step are tried with the
        bounds' own float formulas."""
        near = []
        for v, a, s in zip(point, self.lo, self.step):
            if not math.isfinite(v):
                return iter(())
            # clamped to [-1, res] first, since floor takes no infinity
            first, last = (math.floor(min(max((v - a + d) / s, -1.0),
                                          self.res))
                           for d in (-1e-12, 1e-12))
            near.append([i for i in range(max(first - 1, 0),
                                          min(last + 2, self.res))
                         if a + i * s - 1e-12 <= v
                         <= a + (i + 1) * s + 1e-12])
        return itertools.product(*near)


class Cell:
    """Face-connected union of grid boxes sharing one bracket frame."""

    __slots__ = ("frame", "boxes", "grid", "index", "_members")

    def __init__(self, frame, boxes, grid, index):
        self.frame = tuple(frame)
        self.boxes = sorted(boxes)
        self.grid = grid
        self.index = index
        self._members = set(self.boxes)

    def contains(self, point):
        """Whether some box of the cell, widened by 1e-12, holds the
        point (Grid.holding)."""
        return any(idx in self._members
                   for idx in self.grid.holding([float(v) for v in point]))

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
    if len(cells) < 2:
        return {}
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


def build_covering(fields, K, basis, grid):
    """Split the box K into frame cells: the covering atlas.

    Each of the grid**n boxes gets the lowest-level frame whose
    determinant passes the gate at all box corners, preferring the
    largest worst determinant within a level (desing.cheapest_frame,
    box by box in grid order, so the CoverageGap box is the first
    without a frame); per-frame box sets are split into face-connected
    cells; cells touching each other are graph neighbors with a
    deterministic waypoint in their intersection.  The ranking leaves
    out the subsets holding an identically zero bracket.

    The decisions read only the axes that some ranked subset's bracket
    columns read (poly.read_coordinates): a compiled kernel never
    references another coordinate, so a box's corner values, and with
    them its frame, are those of its projection onto the grid of those
    axes.  The corner table holds every bracket's value at each corner
    of that grid, from one kernel run (0.0 for a zero bracket), with
    its euclidean norm; every other coordinate sits at its lower bound.
    Each box, in grid order, takes the frame of its projection, which
    cheapest_frame decides the first time a box asks for it, so a
    system whose brackets read every axis decides every box.  Up to
    2**n projected boxes share a corner, so each (corner, subset)
    determinant is taken and gated once, when a box first asks for it,
    and kept in the subset's list of corners.  The values are floats,
    so the determinant runs on det_matrix's float branch, and the gate
    multiplies the table's norms in subset order, the product that
    desing._det_gate takes from the same columns: every decision is
    the one the gate on the whole rows makes.
    """
    grid = Grid(K[0], K[1], grid)
    n, res = grid.n, grid.res
    brackets = evaluate_brackets(basis, range(1, len(basis) + 1), fields)
    kernels = [None if b.is_zero() else compile_field(b) for b in brackets]
    ranked = [(level, combo) for level, combo in frame_combos(basis, n)
              if all(kernels[j - 1] is not None for j in combo)]
    columns = {j for _, combo in ranked for j in combo}
    read = set().union(*(read_coordinates(brackets[j - 1])
                         for j in columns))
    zero = [0.0] * n
    axes = [[a + i * s for i in range(res + 1)] if k in read else [a]
            for k, (a, s) in enumerate(zip(grid.lo, grid.step))]
    # corners in itertools.product order: corner (i_1, ..., i_n) is
    # entry sum_k i_k * strides[k], and an unread axis has stride 0
    table = [[zero if kern is None else kern(point) for kern in kernels]
             for point in itertools.product(*axes)]
    # each corner's bracket column norms, from its first determinant on
    norms = [None] * len(table)
    strides = [math.prod(len(ax) for ax in axes[k + 1:]) if k in read
               else 0 for k in range(n)]
    offsets = [sum(o * s for o, s in zip(off, strides))
               for off in itertools.product(
                   *[(0, 1) if k in read else (0,) for k in range(n)])]
    # per ranked subset, each corner's |det| once it clears the gate,
    # None once it fails, False while no box has asked
    decided = {combo: [False] * len(table) for _, combo in ranked}

    def det_at(corner, combo):
        known = decided[combo]
        det = known[corner]
        if det is False:
            values = table[corner]
            det = det_matrix(list(zip(*[values[j - 1] for j in combo])))
            col = norms[corner]
            if col is None:
                col = norms[corner] = [column_norm(v) for v in values]
            det = known[corner] = (
                abs(det) if _norm_gate(det, [col[j - 1] for j in combo])
                else None)
        return det

    # each projected box's frame, keyed by its first corner
    frames = {}
    by_frame = {}
    for idx in grid.boxes():
        base = sum(i * s for i, s in zip(idx, strides))
        frame = frames.get(base)
        if frame is None:
            frame = frames[base] = cheapest_frame(
                ranked, [base + o for o in offsets], det_at)
            if frame is None:
                raise CoverageGap("no frame passes the corner gate on "
                                  "box %s" % (idx,), box=list(idx))
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
        for cand in [r] if r is not None else range(2, 6):
            system = canonical_fields(m, cand)
            try:
                atlas = build_covering(self.fields, K, system.basis, grid)
                break
            except CoverageGap as ex:
                gap = ex
        else:
            raise gap
        self.r = cand
        self.atlas = atlas
        self.system = system
        self.steer_plan = build_plan(system)

    def plan(self, x_init, x_final, e):
        """Plan inputs steering the system from x_init to x_final.

        Walks the atlas's cell path, desingularizes at each leg's
        target (SingularFrame if the cell frame degenerates there),
        runs the modified free-system loop to tolerance e on the
        lifted system, and projects back.  Returns the concatenated
        law together with a SessionReport holding the cell path, the
        per-cell leg reports and the base endpoint reached.  e
        must be positive and finite: no loop gets below a tolerance of
        zero.
        """
        if not (e > 0 and math.isfinite(e)):
            raise SpecError("tolerance must be positive and finite, got %r"
                            % (e,))
        if len(x_final) != len(x_init):
            raise SpecError("endpoints disagree in dimension")
        path = self.atlas.path_between(x_init, x_final)

        targets = self.atlas.waypoints(path) + [list(x_final)]
        x = [float(v) for v in x_init]
        legs = []
        for cell_id, target in zip(path, targets):
            lift = desingularize(self.fields, self.system.basis,
                                 self.atlas.cells[cell_id].frame, target)
            local = LocalSteering(lift.fields, self.system, self.steer_plan)
            leg = global_free(lift.lift_point(x), lift.lift_point(target),
                              e, local)
            legs.append(leg)
            x = lift.project(leg.iterates[-1])
        law = concatenate([step for leg in legs for step in leg.laws],
                          len(self.fields))
        return law, SessionReport(path, legs, x)


def global_plan(fields, x_init, x_final, e, K, config=None, r=None):
    """Plan inputs steering the system from x_init to x_final in K.

    One query of a fresh session: Planner(fields, K, config, r) then
    its plan(x_init, x_final, e).  Callers with several queries on one
    system keep the Planner.
    """
    return Planner(fields, K, config, r).plan(x_init, x_final, e)
