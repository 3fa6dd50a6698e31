"""Lifting to a free nilpotent shadow.

A system whose bracket flag is thinner than the free one gains a
fiber coordinate per missing direction, level by level.  The rate of
a fiber added at level s is its canonical monomial read through the
chart that the levels below s build: each level runs one round of
exact polynomial coordinate changes on the lifted fields (_chart_round),
a linear map putting a bracket frame on the coordinate axes,
order-raising corrections that cancel low-order derivative
functionals, and a homogeneous identification matching the leading
graded part of every field against the canonical monomials.  Rounds
stop below the last level that adds a fiber, since no rate reads
them.  The output is the lifted fields alone: they are free up to
the step at the lifted anchor, so steering can be done upstairs and
the trajectory projected back down, and the privileged chart
upstairs comes from privcoord.first_order_approx, which runs the same
round once on the lifted fields.

The lifted fields keep the base type: polynomial fields lift to
polynomial fields, terms in sorted exponent order (desingularize says
why), and any other base lifts to expression fields.

Chart coefficients come from rational arithmetic on truncated jets:
with an exact anchor at which every trig argument of the base fields
vanishes, every coefficient is a Fraction; trig values elsewhere and
float anchors flow through the same code paths in floats.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from .canonical import canonical_monomials
from .errors import IdentificationFailure, SingularFrame, SpecError
from .hall import evaluate_bracket
from .poly import (ExprField, Poly, TriangularMap, WeightedPolynomialField,
                   as_expr_field, det_matrix, invert_matrix, is_exact,
                   poly_to_expr, solve_unique, taylor_truncate)

F0 = Fraction(0)
F1 = Fraction(1)

# Relative determinant gate of a bracket frame on float data: the
# covering, the frame check of desingularize and every chart round
# call a frame singular below this fraction of its column scale.
DET_THRESHOLD = 1e-9

# Relative rank tolerance of growth_vector's float bracket flag.
RANK_TOL = 1e-8


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


def _det_gate(det, rows):
    """Nonzero test: exact when the data is exact, relative otherwise."""
    if is_exact(det):
        return det != 0
    return abs(float(det)) > DET_THRESHOLD * _column_scale(rows)


def _bracket_values(fields, basis, indices, point):
    """Matrix of bracket direction values: rows are coordinates,
    columns follow ``indices``."""
    n = len(fields[0].comps)
    w1 = _ones(n)
    cap = max(basis.element(j).length for j in indices)
    shadows = [taylor_truncate(f, point, w1, cap) for f in fields]
    cols = []
    for j in indices:
        fld = evaluate_bracket(basis, j, shadows, weights=w1, wcap=cap)
        cols.append([c.constant_term() for c in fld.comps])
    return [[cols[k][i] for k in range(len(cols))] for i in range(n)]


def frame_combos(basis, n):
    """Every n-subset of the basis as (total bracket length, subset),
    cheapest first and in sorted order within a length."""
    return sorted(
        (sum(basis.element(j).length for j in c), c)
        for c in itertools.combinations(range(1, len(basis) + 1), n))


def cheapest_frame(basis, value_sets):
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
    best = None
    for level, combo in frame_combos(basis, n):
        if best is not None and level > best[0]:
            break
        dets = []
        for values in value_sets:
            rows = [[values[i][j - 1] for j in combo] for i in range(n)]
            det = det_matrix(rows)
            if not _det_gate(det, rows):
                break
            dets.append(det)
        else:
            score = min(abs(float(d)) for d in dets)
            if best is None or score > best[1]:
                best = (level, score, combo, dets)
    return None if best is None else best[2:]


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


def _chart_round(shadows, basis, coords, s, cap):
    """One level of the chart chain.

    shadows hold per-generator jets in the current coordinates with
    the anchor at the origin; coords are the Hall indices labelling
    the target coordinates, in basis order.  Entries of length <= s
    are chart coordinates proper; longer entries are frame
    placeholders whose low-order functionals are cleared but which
    get no homogeneous identification yet.  Returns the three maps,
    the shadows pushed through the first two (a caller that reads the
    shadows again pushes them through identify itself), and the frame
    determinant.
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
    if not _det_gate(det, rows):
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
    # of each field component into its canonical monomial.  The
    # correction is unique: a homogeneous psi that every leading field
    # annihilates would be a first integral of a bracket-generating
    # system.
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
                sol = solve_unique(rows_m, rhs_v)
            except ValueError:
                raise IdentificationFailure(
                    "no unique homogeneous correction matches the "
                    "canonical monomial of coordinate %d at level %d"
                    % (pos + 1, s), coordinate=pos + 1, level=s)
            for t, expo in enumerate(ansatz):
                if sol[t] != 0:
                    psi = psi.add(Poly.monomial(
                        dim, expo + (0,) * (dim - len(expo)), sol[t]))
        if not psi.is_zero():
            psi_shifts[pos] = psi
        zvars.append(Poly.var(dim, pos).add(psi))
    identify = TriangularMap.shear(psi_shifts)
    return align, correct, identify, shadows, det


class LiftedSystem:
    """A system made free by fiber coordinates.

    fields are the lifted fields on the ambient space: base variables
    first, fiber variables in order of creation (fiber_order holds
    their basis indices), and the first n components of every field
    are the original field untouched.  They are polynomial fields when
    every base field is one, expression fields otherwise.  At
    the lifted anchor lift_point(anchor) the brackets of the fields
    in basis order are a frame, so first_order_approx gives the
    privileged chart there, in which canonical_fields(m, r) is the
    first-order model.
    """

    def __init__(self, n, fields, fiber_order):
        self.n = n
        self.fields = tuple(fields)
        self.fiber_order = tuple(fiber_order)

    def lift_point(self, x):
        if len(x) != self.n:
            raise SpecError("expected a base point with %d coordinates"
                            % self.n)
        return list(x) + [0] * len(self.fiber_order)

    def project(self, p):
        return list(p)[:self.n]


def desingularize(fields, basis, indices, anchor):
    """Lift at anchor until the system is free up to step basis.r.

    indices name the basis elements of the bracket frame, one per
    state coordinate; a frame that fails the determinant gate at the
    anchor raises SingularFrame.  Fiber coordinates arrive level by
    level for the bracket directions the frame does not cover, with
    rates given by the canonical monomials read through the chart the
    rounds below that level build; rounds run only below the last
    level that adds a fiber.
    """
    fields = list(fields)
    m = len(fields)
    n = len(fields[0].comps)
    r = basis.r
    if len(indices) != n:
        raise SpecError("frame has %d directions for a %d-dimensional "
                        "state" % (len(indices), n))
    if basis.m != m:
        raise SpecError("frame basis is for %d inputs, got %d fields"
                        % (basis.m, m))
    rows = _bracket_values(fields, basis, indices, anchor)
    if not _det_gate(det_matrix(rows), rows):
        raise SingularFrame("bracket frame degenerates at the anchor",
                            frame=list(indices),
                            anchor=[float(v) for v in anchor])
    cap = 2 * r + 1

    anchor = list(anchor)
    J = set(indices)
    mons = canonical_monomials(basis)
    top = max((basis.element(j).length for j in range(1, len(basis) + 1)
               if j not in J), default=0)

    ident = [[F1 if i == j else F0 for j in range(n)] for i in range(n)]
    chart = TriangularMap.affine(ident, anchor)
    # Only the chart rounds, at levels below top, read these jets.
    shadows = ([taylor_truncate(f, anchor, _ones(n), cap) for f in fields]
               if top > 1 else None)
    coords = sorted(J)
    fiber_order = []
    fiber_rate = {}
    for s in range(1, top + 1):
        new = [j for j in range(1, len(basis) + 1)
               if basis.element(j).length == s and j not in J]
        prev_dim = len(coords)
        dim = prev_dim + len(new)
        # Rate of a new fiber: its canonical monomial read in the
        # coordinates of the previous level, whose leading block
        # matches the basis positions.
        rates = [_reindex(mons[k - 1], dim) for k in new]
        chart = _pad_map(chart, len(new))
        for k, rate in zip(new, rates):
            fiber_rate[k] = rate.subst(list(chart.comps))
            fiber_order.append(k)
        coords = sorted(set(coords) | set(new))
        if s == top:
            break
        if new:
            shadows = [f.pad(dim, _ones(dim)) for f in shadows]
            for t, (k, rate) in enumerate(zip(new, rates)):
                i = basis.element(k).phi - 1
                comps = list(shadows[i].comps)
                comps[prev_dim + t] = rate
                shadows[i] = WeightedPolynomialField(comps, _ones(dim))
        align, correct, identify, shadows, _ = _chart_round(
            shadows, basis, coords, s, cap)
        if s + 1 < top:
            # the next round reads the shadows in this round's chart
            shadows = [identify.pushforward(f, _ones(dim), cap)
                       for f in shadows]
        chart = identify.compose(correct).compose(align).compose(chart)

    N = n + len(fiber_order)
    rates = [[fiber_rate[k] if basis.element(k).phi == i + 1
              else Poly.zero(N) for k in fiber_order] for i in range(m)]
    if all(isinstance(f, WeightedPolynomialField) for f in fields):
        # Terms go in sorted exponent order: the replay kernels
        # (emit_fields) and the chart arithmetic of first_order_approx
        # sum terms in dict order, and every pinned law was computed
        # with the terms in this order.
        xi = [WeightedPolynomialField(
            [Poly(N, dict(sorted(c.pad(N).terms.items())))
             for c in list(f.comps) + rate])
            for f, rate in zip(fields, rates)]
    else:
        xi = [ExprField(list(as_expr_field(f).comps)
                        + [poly_to_expr(c) for c in rate])
              for f, rate in zip(fields, rates)]
    return LiftedSystem(n, xi, fiber_order)


def growth_vector(fields, basis, point):
    """Ranks of the bracket flag at a point, one entry per length."""
    values = np.array(_bracket_values(fields, basis,
                                      range(1, len(basis) + 1), point),
                      dtype=float)
    out = []
    for k in basis.level_dims:
        mat = values[:, :k]
        scale = max(1.0, float(np.abs(mat).max()))
        out.append(int(np.linalg.matrix_rank(mat, tol=RANK_TOL * scale)))
    return tuple(out)
