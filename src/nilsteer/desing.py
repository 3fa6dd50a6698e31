"""Lifting to a free nilpotent shadow.

A system whose bracket flag is thinner than the free one gains a
fiber coordinate per missing direction, level by level.  Each level
reruns a chain of exact polynomial coordinate changes on the lifted
fields: a linear map putting a bracket frame on the coordinate axes,
order-raising corrections that cancel low-order derivative
functionals, and a homogeneous identification matching the leading
graded part of every field against the canonical monomials.  The
output is a lifted system whose chart gives privileged coordinates
at the lifted anchor and whose first-order model is exactly the
canonical free system, so steering can be done upstairs and the
trajectory projected back down.

Chart coefficients come from rational arithmetic on truncated jets:
with an exact anchor (plus exact trig values where the base fields
need them) every coefficient is a Fraction; float anchors flow
through the same code paths.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .canonical import canonical_fields, canonical_monomials
from .errors import IdentificationFailure, NoFrame, SingularFrame, SpecError
from .hall import build_hall_basis, evaluate_bracket
from .poly import (ExprField, Poly, TriangularMap, WeightedPolynomialField,
                   as_expr_field, det_matrix, erat, expr_to_poly,
                   expr_to_str, invert_matrix, is_exact, poly_to_expr,
                   poly_to_str, solve_min_norm, taylor_truncate)

F0 = Fraction(0)
F1 = Fraction(1)


def _ones(n):
    return (1,) * n


def _reindex(p, n_new):
    """Rewrite a Poly on a different variable count; dropped variables
    must be unused."""
    terms = {}
    for expo, c in p.terms.items():
        if any(expo[i] for i in range(n_new, len(expo))):
            raise ValueError("polynomial uses a variable beyond %d" % n_new)
        key = tuple(expo[:n_new]) + (0,) * max(0, n_new - len(expo))
        terms[key] = c
    return Poly(n_new, terms)


def _pad_map(tmap, extra):
    """Extend a coordinate change by the identity on appended variables."""
    if extra == 0:
        return tmap
    n = tmap.n + extra
    comps = [c.pad(n) for c in tmap.comps]
    inv = [c.pad(n) for c in tmap.inv]
    for i in range(tmap.n, n):
        comps.append(Poly.var(n, i))
        inv.append(Poly.var(n, i))
    return TriangularMap(comps, inv)


def _column_scale(rows):
    n = len(rows)
    scale = 1.0
    for k in range(n):
        norm = math.sqrt(sum(float(rows[i][k]) ** 2 for i in range(n)))
        scale *= norm if norm > 0 else 1.0
    return scale


def _det_gate(det, rows, threshold):
    """Nonzero test: exact when the data is exact, relative otherwise."""
    if is_exact(det):
        return det != 0
    return abs(float(det)) > threshold * _column_scale(rows)


def _bracket_values(fields, basis, indices, point, trig=None):
    """Matrix of bracket direction values: rows are coordinates,
    columns follow ``indices``."""
    n = len(fields[0].comps)
    w1 = _ones(n)
    cap = max(basis.element(j).length for j in indices)
    shadows = [taylor_truncate(f, point, w1, cap, trig) for f in fields]
    cols = []
    for j in indices:
        fld = evaluate_bracket(basis, j, shadows, weights=w1, wcap=cap)
        cols.append([c.constant_term() for c in fld.comps])
    return [[cols[k][i] for k in range(len(cols))] for i in range(n)]


class FrameSelection:
    """A spanning n-tuple of bracket directions at an anchor.

    indices are positions in the basis, kept in basis order; cell
    describes the open set on which the tuple keeps a usable
    determinant and contains() tests a point against it.
    """

    __slots__ = ("indices", "anchor", "det_value", "cell", "basis",
                 "fields", "trig", "threshold")

    def __init__(self, indices, anchor, det_value, cell, basis, fields,
                 trig=None, threshold=1e-9):
        self.indices = tuple(indices)
        self.anchor = tuple(anchor)
        self.det_value = det_value
        self.cell = cell
        self.basis = basis
        self.fields = tuple(fields)
        self.trig = trig
        self.threshold = threshold

    @property
    def lengths(self):
        return tuple(self.basis.element(j).length for j in self.indices)

    def frame_matrix(self, point):
        return _bracket_values(self.fields, self.basis, self.indices,
                               point, self.trig)

    def contains(self, point):
        rows = self.frame_matrix(point)
        return _det_gate(det_matrix(rows), rows, self.threshold)

    def to_json(self):
        return {
            "indices": list(self.indices),
            "names": [self.basis.name(j) for j in self.indices],
            "anchor": [float(v) for v in self.anchor],
            "det": float(self.det_value),
            "cell": self.cell,
        }

    def __repr__(self):
        return "FrameSelection(%s)" % (self.indices,)


def cheapest_frame(basis, value_sets, threshold):
    """Cheapest n-subset of the basis spanning on every value matrix.

    value_sets holds matrices of bracket values (rows are coordinates,
    columns the whole basis in order).  Candidates are tried in order
    of total bracket length; the first level holding a subset whose
    determinant clears the gate on every matrix wins, and within it
    the largest worst-case magnitude, ties going to the first subset
    in sorted order.  Returns (combo, dets), one determinant per
    matrix, or None.
    """
    n = len(value_sets[0])
    combos = sorted(
        itertools.combinations(range(1, len(basis) + 1), n),
        key=lambda c: (sum(basis.element(j).length for j in c), c))
    best = None
    for combo in combos:
        level = sum(basis.element(j).length for j in combo)
        if best is not None and level > best[0]:
            break
        dets = []
        for values in value_sets:
            rows = [[values[i][j - 1] for j in combo] for i in range(n)]
            det = det_matrix(rows)
            if not _det_gate(det, rows, threshold):
                break
            dets.append(det)
        else:
            score = min(abs(float(d)) for d in dets)
            if best is None or score > best[1]:
                best = (level, score, combo, dets)
    return None if best is None else best[2:]


def select_frame(fields, basis, a, trig=None, threshold=1e-9):
    """Cheapest spanning bracket frame at a point (see cheapest_frame)."""
    fields = list(fields)
    n = len(fields[0].comps)
    dim = len(basis)
    if dim < n:
        raise NoFrame("basis holds %d directions, the state needs %d"
                      % (dim, n))
    values = _bracket_values(fields, basis, range(1, dim + 1), a, trig)
    found = cheapest_frame(basis, [values], threshold)
    if found is None:
        raise NoFrame("no spanning bracket frame at the anchor up to "
                      "length %d" % basis.r, anchor=tuple(a))
    combo, (det,) = found
    cell = ("points where the bracket directions %s keep |det| above "
            "%g of the column scale"
            % (", ".join(basis.name(j) for j in combo), threshold))
    return FrameSelection(combo, a, det, cell, basis, fields, trig,
                          threshold)


def _word_functional(frame, word, p):
    """((W_{i1} ... W_{ik}) p)(0) with the rightmost factor acting first."""
    cur = p
    for pos in reversed(word):
        cur = frame[pos].apply_to(cur)
    return cur.constant_term()


def _hom_exponents(limit, wt, target):
    """Exponent tuples over variables < limit with weighted degree target."""
    out = []

    def rec(i, rem, expo):
        if i == limit:
            if rem == 0:
                out.append(tuple(expo))
            return
        for c in range(rem // wt[i] + 1):
            rec(i + 1, rem - c * wt[i], expo + [c])

    rec(0, target, [])
    return out


def _chart_round(shadows, basis, coords, s, cap, threshold=1e-9):
    """One level of the chart chain.

    shadows hold per-generator jets in the current coordinates with
    the anchor at the origin; coords are the Hall indices labelling
    the target coordinates, in basis order.  Entries of length <= s
    are chart coordinates proper; longer entries are frame
    placeholders whose low-order functionals are cleared but which
    get no homogeneous identification yet.  Returns the three maps,
    the shadows pushed through them, and the frame determinant.
    """
    m = len(shadows)
    dim = len(coords)
    w1 = _ones(dim)
    wt = tuple(basis.element(j).length for j in coords)
    n_low = sum(1 for L in wt if L <= s)

    # Linear alignment: put the frame values on the coordinate axes.
    table = [evaluate_bracket(basis, j, shadows, weights=w1, wcap=cap)
             for j in coords]
    rows = [[table[k].comps[i].constant_term() for k in range(dim)]
            for i in range(dim)]
    det = det_matrix(rows)
    if not _det_gate(det, rows, threshold):
        raise SingularFrame("bracket frame degenerates at the anchor "
                            "(level %d)" % s, level=s,
                            det=float(det) if det else 0.0)
    align = TriangularMap.affine(invert_matrix(rows), [0] * dim)
    shadows = [align.pushforward(f, w1, cap) for f in shadows]

    # Frame fields in the aligned coordinates drive the derivative
    # functionals; only lengths <= s ever act as operators.
    frame = {pos: evaluate_bracket(basis, coords[pos], shadows,
                                   weights=w1, wcap=cap)
             for pos in range(n_low)}

    shifts = [None] * dim
    for pos in range(dim):
        if wt[pos] <= s:
            ops = range(pos)
            kmax = bound = wt[pos] - 1
        else:
            ops = range(n_low)
            kmax = bound = s
        if kmax < 2:
            continue
        target = Poly.var(dim, pos)
        shift = Poly.zero(dim)
        # Sweep by word length: after level k the functionals of k or
        # fewer applications all vanish, and later subtractions use
        # monomials a shorter word cannot reach.
        for k in range(2, kmax + 1):
            cur = target.add(shift)
            batch = Poly.zero(dim)
            for word in itertools.combinations_with_replacement(ops, k):
                if sum(wt[i] for i in word) > bound:
                    continue
                c = _word_functional(frame, word, cur)
                if c == 0:
                    continue
                expo = [0] * dim
                for i in word:
                    expo[i] += 1
                div = 1
                for e in expo:
                    div *= math.factorial(e)
                batch = batch.sub(Poly.monomial(dim, tuple(expo), c / div))
            shift = shift.add(batch)
        if not shift.is_zero():
            shifts[pos] = shift
    correct = TriangularMap.shear(shifts)
    shadows = [correct.pushforward(f, w1, cap) for f in shadows]

    # Homogeneous identification: for every chart coordinate solve the
    # weighted-degree-matching correction that turns the leading part
    # of each field component into its canonical monomial.
    mons = canonical_monomials(basis)
    fields_w = [f.with_weights(wt) for f in shadows]
    psi_shifts = [None] * dim
    zvars = []
    for pos in range(n_low):
        wj = wt[pos]
        phi = basis.element(coords[pos]).phi
        ansatz = _hom_exponents(pos, wt, wj)
        cols = len(ansatz)
        reps = list(zvars) + [Poly.var(dim, k) for k in range(pos, dim)]
        goal = _reindex(mons[coords[pos] - 1], dim).subst(reps)

        contrib = [[None] * cols for _ in range(m)]
        for t, expo in enumerate(ansatz):
            mono = Poly.monomial(dim, expo + (0,) * (dim - len(expo)), F1)
            for i in range(m):
                acc = Poly.zero(dim)
                for k in range(pos):
                    d = mono.diff(k)
                    if d.is_zero():
                        continue
                    acc = acc.add(fields_w[i].comps[k].mul(d, wt, wj - 1))
                contrib[i][t] = acc

        eqs = {}

        def row_for(i, expo):
            row = eqs.get((i, expo))
            if row is None:
                row = [[F0] * cols, F0]
                eqs[(i, expo)] = row
            return row

        for i in range(m):
            want = goal if phi == i + 1 else Poly.zero(dim)
            fixed = fields_w[i].comps[pos].truncate(wt, wj - 1)
            for expo, c in fixed.sub(want).terms.items():
                row = row_for(i, expo)
                row[1] = row[1] - c
            for t in range(cols):
                for expo, c in contrib[i][t].terms.items():
                    row = row_for(i, expo)
                    row[0][t] = row[0][t] + c

        rows_m = [v[0] for v in eqs.values()]
        rhs_v = [v[1] for v in eqs.values()]
        psi = Poly.zero(dim)
        if rows_m:
            try:
                sol = solve_min_norm(rows_m, rhs_v)
            except ValueError:
                raise IdentificationFailure(
                    "no homogeneous correction matches the canonical "
                    "monomial of coordinate %d at level %d"
                    % (pos + 1, s), coordinate=pos + 1, level=s)
            for t, expo in enumerate(ansatz):
                if sol[t] != 0:
                    psi = psi.add(Poly.monomial(
                        dim, expo + (0,) * (dim - len(expo)), sol[t]))
        if not psi.is_zero():
            psi_shifts[pos] = psi
        zvars.append(Poly.var(dim, pos).add(psi))
    identify = TriangularMap.shear(psi_shifts)
    shadows = [identify.pushforward(f, w1, cap) for f in shadows]
    return align, correct, identify, shadows, det


class LiftedSystem:
    """A system made free by fiber coordinates, with its chart.

    xi are the lifted fields on the ambient space: base variables
    first, fiber variables in order of creation, and the first n
    components of every xi_i are the original field untouched.  chart
    maps ambient points to the privileged coordinates in which the
    canonical system ``approx`` is the first-order model;
    fields_chart holds the lifted fields' jets in those coordinates.
    """

    def __init__(self, n, m, r, basis, xi, xi_poly, chart, anchor,
                 fiber_order, approx, fields_chart, frame, records):
        self.n = n
        self.m = m
        self.r = r
        self.basis = basis
        self.lifted_n = len(basis)
        self.weights = basis.free_weights
        self.xi = tuple(xi)
        self.xi_poly = tuple(xi_poly) if xi_poly is not None else None
        self.chart = chart
        self.anchor = tuple(anchor)
        self.anchor_lifted = tuple(anchor) + (0,) * (self.lifted_n - n)
        self.fiber_order = tuple(fiber_order)
        self.approx = approx
        self.fields_chart = tuple(fields_chart)
        self.frame = frame
        self.records = tuple(records)

    @property
    def xi_hat(self):
        return self.approx.fields

    def lift_point(self, x):
        if len(x) != self.n:
            raise SpecError("expected a base point with %d coordinates"
                            % self.n)
        return list(x) + [0] * (self.lifted_n - self.n)

    def project(self, p):
        if len(p) and (isinstance(p[0], (list, tuple))
                       or hasattr(p[0], "__len__")):
            return [list(row)[:self.n] for row in p]
        return list(p)[:self.n]

    def chart_apply(self, p):
        return self.chart.apply(p)

    def chart_inverse(self, z):
        return self.chart.apply_inverse(z)

    def var_names(self):
        return (["x%d" % (i + 1) for i in range(self.n)]
                + ["v%d" % k for k in self.fiber_order])

    def to_json(self):
        names = self.var_names()
        znames = ["z%d" % (j + 1) for j in range(self.lifted_n)]
        return {
            "n": self.n,
            "m": self.m,
            "r": self.r,
            "lifted_n": self.lifted_n,
            "weights": list(self.weights),
            "frame": list(self.frame.indices),
            "fiber_order": list(self.fiber_order),
            "anchor": [float(v) for v in self.anchor],
            "xi": [[expr_to_str(c, names) for c in f.comps]
                   for f in self.xi],
            "chart": [poly_to_str(c, names) for c in self.chart.comps],
            "xi_hat": [[poly_to_str(c, znames) for c in f.comps]
                       for f in self.approx.fields],
            "records": [
                {"level": rec["level"], "coords": list(rec["coords"]),
                 "fibers": list(rec["fibers"]), "dim": rec["dim"],
                 "det": float(rec["det"])}
                for rec in self.records],
        }

    def __repr__(self):
        return ("LiftedSystem(n=%d, lifted_n=%d, r=%d)"
                % (self.n, self.lifted_n, self.r))


def desingularize(fields, frame, r=None, trig=None, cap=None):
    """Lift along a frame until the system is free up to step r.

    Fiber coordinates arrive level by level for the bracket
    directions the frame does not cover, with rates given by the
    canonical monomials read through the chart built so far; each
    level then reruns the full chart chain on the enlarged system.
    """
    fields = list(fields)
    m = len(fields)
    n = len(fields[0].comps)
    if r is None:
        r = frame.basis.r
    if trig is None:
        trig = frame.trig
    if len(frame.indices) != n:
        raise SpecError("frame has %d directions for a %d-dimensional "
                        "state" % (len(frame.indices), n))
    basis = frame.basis
    if basis.m != m:
        raise SpecError("frame basis is for %d inputs, got %d fields"
                        % (basis.m, m))
    if basis.r != r:
        basis = build_hall_basis(m, r)
    if max(basis.element(j).length for j in frame.indices) > r:
        raise SpecError("frame uses a bracket longer than r=%d" % r)
    if cap is None:
        cap = 2 * r + 1

    anchor = list(frame.anchor)
    J = set(frame.indices)
    mons = canonical_monomials(basis)

    ident = [[F1 if i == j else F0 for j in range(n)] for i in range(n)]
    chart = TriangularMap.affine(ident, anchor)
    shadows = [taylor_truncate(f, anchor, _ones(n), cap, trig)
               for f in fields]
    coords = sorted(J)
    fiber_order = []
    fiber_rate = {}
    records = []
    for s in range(1, r + 1):
        new = [j for j in range(1, len(basis) + 1)
               if basis.element(j).length == s and j not in J]
        prev_dim = len(coords)
        dim = prev_dim + len(new)
        if new:
            chart = _pad_map(chart, len(new))
            shadows = [f.pad(dim, _ones(dim)) for f in shadows]
            for t, k in enumerate(new):
                # Rate of the new fiber: its canonical monomial read in
                # the coordinates of the previous level, whose leading
                # block matches the basis positions.
                rate = _reindex(mons[k - 1], dim)
                i = basis.element(k).phi - 1
                comps = list(shadows[i].comps)
                comps[prev_dim + t] = rate
                shadows[i] = WeightedPolynomialField(comps, _ones(dim),
                                                     shadows[i].exact)
                fiber_rate[k] = rate.subst(list(chart.comps))
                fiber_order.append(k)
        coords = sorted(set(coords) | set(new))
        align, correct, identify, shadows, det = _chart_round(
            shadows, basis, coords, s, cap)
        chart = identify.compose(correct).compose(align).compose(chart)
        records.append({"level": s, "coords": tuple(coords),
                        "fibers": tuple(new), "dim": len(coords),
                        "det": det, "maps": (align, correct, identify)})

    base_expr = [as_expr_field(f) for f in fields]
    xi = []
    for i in range(m):
        comps = list(base_expr[i].comps)
        for k in fiber_order:
            if basis.element(k).phi == i + 1:
                comps.append(poly_to_expr(fiber_rate[k]))
            else:
                comps.append(erat(0))
        xi.append(ExprField(comps))
    xi_poly = None
    if all(f.is_polynomial() for f in base_expr):
        N = len(basis)
        xi_poly = [WeightedPolynomialField(
            [expr_to_poly(c, N) for c in f.comps]) for f in xi]
    approx = canonical_fields(m, r)
    fields_chart = [f.with_weights(basis.free_weights) for f in shadows]
    return LiftedSystem(n, m, r, basis, xi, xi_poly, chart, anchor,
                        fiber_order, approx, fields_chart, frame, records)


def growth_vector(fields, basis, point, trig=None, tol=1e-8):
    """Ranks of the bracket flag at a point, one entry per length."""
    n = len(fields[0].comps)
    w1 = _ones(n)
    shadows = [taylor_truncate(f, point, w1, basis.r, trig)
               for f in fields]
    vals = []
    out = []
    for s in range(1, basis.r + 1):
        for j in range(1, len(basis) + 1):
            if basis.element(j).length != s:
                continue
            fld = evaluate_bracket(basis, j, shadows, weights=w1,
                                   wcap=basis.r)
            vals.append([float(c.constant_term()) for c in fld.comps])
        mat = np.array(vals, dtype=float)
        scale = max(1.0, float(np.abs(mat).max()))
        out.append(int(np.linalg.matrix_rank(mat, tol=tol * scale)))
    return tuple(out)
