"""Iterative global steering on top of local approximate steering.

The local step steers the canonical model of the system exactly and
replays the resulting input on the true system.  The global loop
walks dilation subgoals toward the goal, halving its step budget
whenever the local step fails to cut the remaining pseudo-distance in
half; the modified variant additionally brackets the iterates inside
a pseudo-norm ball so no a priori compactness assumption is needed.
Systems with singular points run through the covering machinery: the
working box is split into cells carrying a fixed bracket frame, the
planner lifts the system on each cell along the path, steers the
lifted free system between waypoints, and projects back down.

A practical note on tolerances: an endpoint whose coordinates carry
integrator noise of size tau has pseudo-norm around tau**(1/r), so
asking the loop for a tolerance below that floor cannot converge.
The canonical model itself is exempt: steering it is exact by
construction, so its local step skips integration entirely.
"""

import itertools
import math
from fractions import Fraction

from .canonical import canonical_fields
from .desing import FrameSelection, _bracket_values, _det_gate, \
    cheapest_frame, desingularize
from .errors import (
    CoverageGap, DomainExit, IntegrationLeftDomain, IterationCapExceeded,
    NoPath, SingularFrame, SpecError,
)
from .poly import det_matrix
from .privcoord import dilate, first_order_approx, pseudo_norm
from .sim import input_length, integrate
from .steer import ControlLaw, build_plan, exact_steer

F1 = Fraction(1)


class PlannerConfig:
    """Knobs for the iterative planner.

    R is the bracketing ratio of the modified loop and must sit in
    ((1/2)**(1/(r+1)**2), 1); leaving it None picks the midpoint of
    that interval once r is known.  The iteration cap counts loop
    attempts, accepted or not, and exists because termination carries
    no explicit rate bound.
    """

    __slots__ = ("tolerance", "integrator_tol", "R", "iteration_cap",
                 "det_threshold", "grid", "fiber_radius", "margin")

    def __init__(self, tolerance=1e-3, integrator_tol=1e-10, R=None,
                 iteration_cap=10000, det_threshold=1e-9, grid=8,
                 fiber_radius=None, margin=None):
        if tolerance <= 0:
            raise SpecError("tolerance must be positive")
        if iteration_cap < 1:
            raise SpecError("iteration cap must be at least 1")
        self.tolerance = tolerance
        self.integrator_tol = integrator_tol
        self.R = R
        self.iteration_cap = iteration_cap
        self.det_threshold = det_threshold
        self.grid = grid
        self.fiber_radius = fiber_radius
        self.margin = margin

    def effective_R(self, r):
        lo = 0.5 ** (1.0 / (r + 1) ** 2)
        if self.R is None:
            return (lo + 1.0) / 2.0
        if not lo < self.R < 1.0:
            raise SpecError("R=%g outside the admissible interval "
                            "(%g, 1) for r=%d" % (self.R, lo, r))
        return self.R

    def to_json(self):
        return {
            "tolerance": self.tolerance,
            "integrator_tol": self.integrator_tol,
            "R": self.R,
            "iteration_cap": self.iteration_cap,
            "det_threshold": self.det_threshold,
            "grid": self.grid,
            "fiber_radius": self.fiber_radius,
            "margin": self.margin,
        }


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

    def all_laws(self):
        if self.legs is not None:
            out = []
            for leg in self.legs:
                out.extend(leg.all_laws())
            return out
        return list(self.laws)

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

    Holds the canonical model, its steering plan, and a chart cache;
    callable as the two-argument local method the global loop expects.
    When the system literally is its canonical model the replay
    endpoint equals the goal by construction and integration is
    skipped, which is also what keeps exact-input runs exact.
    """

    def __init__(self, fields, basis, config=None, trig=None,
                 domain=None, fiber_start=None):
        self.fields = list(fields)
        self.basis = basis
        self.config = config or PlannerConfig()
        self.trig = trig
        self.domain = domain
        self.system = canonical_fields(basis.m, basis.r)
        self.plan = build_plan(self.system)
        self.weights = basis.free_weights
        self.fiber_start = fiber_start
        self.max_fiber_norm = 0.0
        self._charts = {}
        self.exact_model = self._matches_model()

    def _matches_model(self):
        if len(self.fields) != len(self.system.fields):
            return False
        for mine, model in zip(self.fields, self.system.fields):
            if getattr(mine, "comps", None) is None:
                return False
            if getattr(mine, "n", None) != model.n:
                return False
            try:
                if not mine.sub(model).is_zero():
                    return False
            except (AttributeError, ValueError, TypeError):
                return False
        return True

    def approx_at(self, a):
        key = tuple(float(v) for v in a)
        hit = self._charts.get(key)
        if hit is None:
            hit = first_order_approx(self.fields, list(a), self.basis,
                                     trig=self.trig)
            self._charts[key] = hit
        return hit

    def chart_at(self, a):
        return self.approx_at(a).chart

    def norm_at(self, a, x):
        z = self.chart_at(a).apply(list(x))
        return pseudo_norm(z, self.weights)

    def steer(self, x, a):
        """One local step from x toward a: returns (endpoint, law)."""
        approx = self.approx_at(a)
        z = approx.chart.apply(list(x))
        law = exact_steer(z, self.system, self.plan)
        if self.exact_model:
            return list(a), law
        try:
            traj = integrate(self.fields, x, law,
                             tol=self.config.integrator_tol,
                             domain=self.domain)
        except DomainExit as ex:
            raise IntegrationLeftDomain(
                "local step left the working cell",
                trajectory=ex.trajectory, t_exit=ex.payload.get("t_exit"))
        if self.fiber_start is not None:
            for row in traj.states:
                fiber = row[self.fiber_start:]
                wts = self.weights[self.fiber_start:]
                val = float(pseudo_norm(fiber, wts))
                if val > self.max_fiber_norm:
                    self.max_fiber_norm = val
        return traj.endpoint, law

    def __call__(self, x, a):
        return self.steer(x, a)[0]


def app_steer(x, a, approx, true_system, config=None, domain=None):
    """Steer toward a using the model anchored there, replay on the truth.

    The input is computed by steering the canonical model from the
    chart image of x to the origin (the image of a), then the true
    system is integrated under that same input.  Returns the endpoint.
    """
    config = config or PlannerConfig()
    anchor = approx.chart.anchor
    if len(anchor) != len(a) or any(
            abs(float(p) - float(q)) > 1e-12 for p, q in zip(anchor, a)):
        raise SpecError("approximation is not anchored at the goal")
    z = approx.chart.apply(list(x))
    law = exact_steer(z, approx.system)
    if law.nperiods == 0:
        return [float(v) for v in x]
    try:
        traj = integrate(true_system, x, law, tol=config.integrator_tol,
                         domain=domain)
    except DomainExit as ex:
        raise IntegrationLeftDomain("local step left the working cell",
                                    trajectory=ex.trajectory,
                                    t_exit=ex.payload.get("t_exit"))
    return traj.endpoint


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


def global_free(x0, x1, e, cell, app_steer_method, config=None,
                modified=False):
    """Iterative steering of a free system from x0 toward x1.

    app_steer_method is the local method (a LocalSteering or anything
    with the same steer/chart_at surface).  Per attempt: aim at the
    current subgoal, accept the step if it at least halves the
    pseudo-distance to the subgoal, otherwise halve the step budget
    and restart the subgoal path at the current iterate.  The
    modified loop additionally rejects or charges steps against the
    expanding bracket R_k, keeping every iterate's pseudo-norm below
    ||z(x0)|| / (1 - R).
    """
    config = config or PlannerConfig()
    ls = app_steer_method
    chart1 = ls.chart_at(x1)
    weights = chart1.weights
    if cell is not None:
        for pt, name in ((x0, "initial"), (x1, "final")):
            if not cell.contains(pt):
                raise SpecError("%s point lies outside the cell" % name)

    def goal_norm(pt):
        return pseudo_norm(chart1.apply(list(pt)), weights)

    report = PlannerReport(weights)
    n0 = goal_norm(x0)
    report.iterates.append(list(x0))
    report.norms.append(n0)
    eta = n0
    report.etas.append(eta)
    if n0 <= e:
        report.status = "converged"
        return report

    R = config.effective_R(ls.basis.r) if modified else None

    def bracket(k):
        # 1 + R + ... + R^k
        return (1.0 - R ** (k + 1)) / (1.0 - R)

    xi = list(x0)
    xbar = list(x0)
    i = 0
    j = 1
    k = 0
    while goal_norm(xi) > e:
        if report.attempts >= config.iteration_cap:
            report.status = "cap-exceeded"
            raise IterationCapExceeded(
                "no convergence after %d attempts (%.3g > %.3g left)"
                % (report.attempts, float(goal_norm(xi)), float(e)),
                report=report)
        report.attempts += 1
        xd = subgoal(xbar, eta, j, chart1)
        try:
            x, law = ls.steer(xi, xd)
            chart_d = ls.chart_at(xd)
            away = pseudo_norm(chart_d.apply(list(x)), weights)
            before = pseudo_norm(chart_d.apply(list(xi)), weights)
            failed = away > before / 2
        except (IntegrationLeftDomain, SingularFrame):
            failed = True
            x = law = None

        def accept():
            nonlocal i, j, xi
            i += 1
            j += 1
            xi = list(x)
            report.iterates.append(list(x))
            report.subgoals.append(list(xd))
            report.norms.append(goal_norm(x))
            report.laws.append(law)

        if failed:
            eta = eta / 2
            xbar = list(xi)
            j = 1
            report.rejections += 1
        elif not modified:
            accept()
        else:
            nz = goal_norm(x)
            if nz >= bracket(k + 1) * n0:
                eta = eta / 2
                report.rejections += 1
            elif bracket(k) * n0 <= nz:
                accept()
                eta = eta / 2
                k += 1
            else:
                accept()
        report.etas.append(eta)
    report.status = "converged"
    report.k_final = k
    return report


# ---------------------------------------------------------------------------
# Covering of the working box


class Grid:
    """Uniform box decomposition of a compact box."""

    __slots__ = ("lo", "hi", "res", "n", "step")

    def __init__(self, lo, hi, res):
        self.lo = [float(v) for v in lo]
        self.hi = [float(v) for v in hi]
        self.n = len(self.lo)
        if len(self.hi) != self.n:
            raise SpecError("box corners disagree in dimension")
        if isinstance(res, int):
            res = [res] * self.n
        self.res = [int(r) for r in res]
        for r, a, b in zip(self.res, self.lo, self.hi):
            if r < 1 or not b > a:
                raise SpecError("degenerate grid box")
        self.step = [(b - a) / r for a, b, r in
                     zip(self.lo, self.hi, self.res)]

    def boxes(self):
        return itertools.product(*[range(r) for r in self.res])

    def bounds(self, idx):
        blo = [a + i * s for a, i, s in zip(self.lo, idx, self.step)]
        bhi = [a + (i + 1) * s for a, i, s in zip(self.lo, idx, self.step)]
        return blo, bhi

    def corners(self, idx):
        blo, bhi = self.bounds(idx)
        return [list(c) for c in itertools.product(
            *[(a, b) for a, b in zip(blo, bhi)])]

    def center(self, idx):
        blo, bhi = self.bounds(idx)
        return [(a + b) / 2 for a, b in zip(blo, bhi)]


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
    """Cells, their intersection graph, and a start-to-goal path."""

    def __init__(self, grid, cells, edges, path):
        self.grid = grid
        self.cells = cells
        self.edges = edges
        self.path = path

    def waypoints(self):
        out = []
        for a, b in zip(self.path, self.path[1:]):
            key = (min(a, b), max(a, b))
            out.append(self.edges[key])
        return out

    def to_json(self):
        return {
            "cells": [c.to_json() for c in self.cells],
            "edges": [{"cells": list(k), "waypoint": [float(v) for v in w]}
                      for k, w in sorted(self.edges.items())],
            "path": list(self.path),
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


def _boxes_touch(a, b):
    return all(abs(p - q) <= 1 for p, q in zip(a, b))


def _overlap_waypoint(grid, cell_a, cell_b):
    """Deterministic point in the intersection of two closed cells."""
    pieces = []
    for ia in cell_a.boxes:
        for ib in cell_b.boxes:
            if not _boxes_touch(ia, ib):
                continue
            alo, ahi = grid.bounds(ia)
            blo, bhi = grid.bounds(ib)
            lo = [max(p, q) for p, q in zip(alo, blo)]
            hi = [min(p, q) for p, q in zip(ahi, bhi)]
            if all(h >= l - 1e-12 for l, h in zip(lo, hi)):
                pieces.append([(l + h) / 2 for l, h in zip(lo, hi)])
    if not pieces:
        return None
    mean = [sum(c[d] for c in pieces) / len(pieces)
            for d in range(grid.n)]
    best = min(pieces, key=lambda c: sum((p - q) ** 2
                                         for p, q in zip(c, mean)))
    return best


def build_covering(fields, K, basis, config=None, trig=None,
                   x_init=None, x_final=None):
    """Split the box K into frame cells and path between two points.

    Every grid box gets the lowest-level frame whose determinant
    passes the gate at all box corners, preferring the largest worst
    determinant within a level; per-frame box sets are split into
    face-connected cells; cells touching each other are graph
    neighbors with a deterministic waypoint in their intersection.
    """
    config = config or PlannerConfig()
    grid = Grid(K[0], K[1], config.grid)
    assigned = {}
    memo = {}
    for idx in grid.boxes():
        values = []
        for corner in grid.corners(idx):
            key = tuple(corner)
            if key not in memo:
                memo[key] = _bracket_values(fields, basis,
                                            range(1, len(basis) + 1),
                                            corner, trig)
            values.append(memo[key])
        found = cheapest_frame(basis, values, config.det_threshold)
        if found is None:
            raise CoverageGap("no frame passes the corner gate on box %s"
                              % (idx,), box=list(idx))
        assigned[idx] = found[0]
    by_frame = {}
    for idx, frame in assigned.items():
        by_frame.setdefault(frame, []).append(idx)
    cells = []
    for frame in sorted(by_frame):
        for comp in _components(by_frame[frame]):
            cells.append(Cell(frame, comp, grid, len(cells)))
    edges = {}
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            touch = any(_boxes_touch(ia, ib)
                        for ia in cells[a].boxes
                        for ib in cells[b].boxes)
            if touch:
                wp = _overlap_waypoint(grid, cells[a], cells[b])
                if wp is not None:
                    edges[(a, b)] = wp
    path = []
    if x_init is not None and x_final is not None:
        sources = [c.index for c in cells if c.contains(x_init)]
        targets = {c.index for c in cells if c.contains(x_final)}
        if not sources or not targets:
            raise SpecError("endpoints are not inside the working box")
        adj = {c.index: set() for c in cells}
        for (a, b) in edges:
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
        node = found
        while node is not None:
            path.append(node)
            node = prev[node]
        path.reverse()
    return CoveringAtlas(grid, cells, edges, path)


# ---------------------------------------------------------------------------
# The full pipeline


def _leg_domain(cell, grid, margin, fiber_dim, fiber_radius):
    """Runtime box for one leg: inflated cell bounds plus fiber bounds.

    The inflation is proportional to the cell extent.  Transient arcs
    of the steering loops may legitimately leave the cell (charts are
    only ever evaluated at subgoal anchors, which stay inside), so the
    box is a guard against runaways, not a tight containment; with
    both knobs unset there is no barrier at all.  Exits show up as
    step rejections, so a tight box trades speed for confinement.
    """
    if margin is None and fiber_radius is None:
        return None
    lo, hi = cell.bounding_box()
    pad = [(margin or 0.0) * (b - a) for a, b in zip(lo, hi)]
    lo = [a - p for a, p in zip(lo, pad)]
    hi = [b + p for b, p in zip(hi, pad)]
    if margin is None:
        lo = [-math.inf] * len(lo)
        hi = [math.inf] * len(hi)
    if fiber_dim:
        rad = fiber_radius if fiber_radius is not None else math.inf
        lo = lo + [-rad] * fiber_dim
        hi = hi + [rad] * fiber_dim
    return (lo, hi)


def _fold_periods(law):
    out = []
    for period in law.periods:
        channels = []
        for terms in period["channels"]:
            channels.append([(amp * law.scale, w, q)
                             for amp, w, q in terms])
        folded = dict(period)
        folded["channels"] = channels
        out.append(folded)
    return out


def concatenate_laws(m, laws, meta=None):
    """Chain laws end to end, folding their scales into amplitudes."""
    periods = []
    for law in laws:
        if law.m != m:
            raise SpecError("laws disagree on the number of channels")
        if float(law.time_scale) != 1.0:
            raise SpecError("cannot concatenate reparameterized laws")
        periods.extend(_fold_periods(law))
    return ControlLaw(m, periods, F1, F1, meta=meta or {})


def global_plan(fields, x_init, x_final, e, K, config=None, r=None,
                trig=None, modified=True):
    """Plan inputs steering the system from x_init to x_final in K.

    Builds the covering, walks the cell path, desingularizes at each
    leg's target, runs the free-system loop on the lifted system, and
    projects back.  Returns the concatenated law together with a
    report whose legs hold the per-cell traces.  With r=None the
    smallest step making the covering work is found by search.
    """
    from .hall import build_hall_basis

    config = config or PlannerConfig()
    n = len(x_init)
    if len(x_final) != n:
        raise SpecError("endpoints disagree in dimension")
    m = len(fields)

    basis = None
    atlas = None
    if r is None:
        last = None
        for cand in range(2, 6):
            basis = build_hall_basis(m, cand)
            try:
                atlas = build_covering(fields, K, basis, config, trig,
                                       x_init, x_final)
                r = cand
                break
            except CoverageGap as ex:
                last = ex
        if atlas is None:
            raise last
    else:
        basis = build_hall_basis(m, r)
        atlas = build_covering(fields, K, basis, config, trig,
                               x_init, x_final)

    report = PlannerReport()
    report.legs = []
    targets = atlas.waypoints() + [list(x_final)]
    x = [float(v) for v in x_init]
    laws = []
    fiber_peaks = []
    for leg_no, cell_id in enumerate(atlas.path):
        cell = atlas.cells[cell_id]
        target = targets[leg_no]
        frame = FrameSelection(cell.frame, target, 0, "covering cell",
                               basis, fields, trig,
                               config.det_threshold)
        rows = frame.frame_matrix(target)
        det = det_matrix(rows)
        if not _det_gate(det, rows, config.det_threshold):
            raise SingularFrame("cell frame degenerates at a waypoint",
                                cell=cell_id)
        frame.det_value = det
        lift = desingularize(fields, frame, r=r, trig=trig)
        fiber_dim = lift.lifted_n - n
        domain = _leg_domain(cell, atlas.grid, config.margin, fiber_dim,
                             config.fiber_radius)
        leg_fields = (list(lift.xi_poly) if lift.xi_poly is not None
                      else list(lift.xi))
        local = LocalSteering(leg_fields, lift.basis, config, trig,
                              domain=domain, fiber_start=n)
        lifted_x = lift.lift_point(x)
        lifted_goal = lift.lift_point(target)
        leg = global_free(lifted_x, lifted_goal, e, None, local, config,
                          modified=modified)
        leg.status = "converged"
        report.legs.append(leg)
        laws.extend(leg.laws)
        fiber_peaks.append(local.max_fiber_norm)
        x = lift.project(leg.iterates[-1])
    report.status = "converged"
    report.iterates = [[float(v) for v in x_init], list(x)]
    law = concatenate_laws(m, laws, meta={
        "legs": len(atlas.path),
        "fiber_peaks": fiber_peaks,
        "path": list(atlas.path),
    })
    report.norms = [leg.final_norm for leg in report.legs]
    return law, report
