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

Bracket values at a point (frame_values) are read off the bracket
fields themselves (the covering compiles them instead); only the chart
rounds take Taylor jets.  Chart coefficients come from rational
arithmetic on those jets: with an exact anchor at which every trig
argument of the base fields vanishes, every coefficient is a
Fraction.  Jets that hold a float (a float anchor coordinate that the
fields read, a trig value away from zero) make the round a float one,
on the same code path: it turns the jets' exact coefficients into
floats on entry, and every constant it adds (coordinate axes, the
identity of invert_matrix, canonical monomials, the zeros its
equations start from) is a float too.  A Fraction operand of a float
operation rounds as float(F) would, so the round keeps the bits of
the mixed arithmetic, provided exact coefficients meet each other only
where float arithmetic on them is exact: units and small integers, as
in every system the tests pin.  growth_vector takes its ranks by
poly.rank, in floats; the package loads no numpy.
"""

import itertools
import math

from .canonical import canonical_monomials
from .errors import IdentificationFailure, SingularFrame, SpecError
from .hall import evaluate_brackets
from .poly import (ExprField, Poly, TriangularMap, WeightedPolynomialField,
                   as_expr_field, as_unit, coordinates, det_matrix,
                   identity, invert_matrix, is_exact, poly_to_expr, rank,
                   solve_unique, taylor_truncate, unit_of)

# Relative determinant gate of a bracket frame on float data: the
# covering, the frame check of desingularize and every chart round
# call a frame singular below this fraction of its column scale.
DET_THRESHOLD = 1e-9

# Relative rank tolerance of growth_vector's float bracket flag.
RANK_TOL = 1e-8


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


def column_norm(column):
    """Euclidean norm of one frame column, summed in coordinate order."""
    return math.sqrt(sum(float(v) ** 2 for v in column))


def _norm_gate(det, norms):
    """The relative gate on float data, given the frame's column norms
    in column order: |det| above DET_THRESHOLD times their product, a
    zero norm counting as 1."""
    scale = 1.0
    for norm in norms:
        scale *= norm if norm > 0 else 1.0
    return abs(float(det)) > DET_THRESHOLD * scale


def _det_gate(det, rows):
    """Nonzero test: exact when the data is exact, relative otherwise."""
    if is_exact(det):
        return det != 0
    return _norm_gate(det, [column_norm(col) for col in zip(*rows)])


def frame_values(brackets, point):
    """Matrix of bracket field values at a point: rows are coordinates,
    columns follow brackets (a table from evaluate_brackets)."""
    return [list(row) for row in zip(*(b.evaluate(point)
                                        for b in brackets))]


def frame_combos(basis, n):
    """Every n-subset of the basis as (total bracket length, subset),
    cheapest first and in sorted order within a length."""
    return sorted(
        (sum(basis.element(j).length for j in c), c)
        for c in itertools.combinations(range(1, len(basis) + 1), n))


def cheapest_frame(ranked, corners, det_at):
    """Cheapest ranked n-subset spanning at every corner.

    ranked holds (level, subset) pairs in frame_combos order, possibly
    with some left out.  det_at(corner, subset) is the magnitude of the
    subset's determinant at a corner when it clears the gate
    (_det_gate), None when it does not.  The first level holding a
    subset that clears the gate at every corner wins, and within it
    the largest worst-case magnitude, ties going to the first subset
    in sorted order.  Returns that subset, or None.  A subset is read
    corner by corner in order and dropped at its first failing one.
    """
    best = None
    for level, combo in ranked:
        if best is not None and level > best[0]:
            break
        score = math.inf
        for corner in corners:
            det = det_at(corner, combo)
            if det is None:
                break
            score = min(score, det)
        else:
            if best is None or score > best[1]:
                best = (level, score, combo)
    return None if best is None else best[2]


def _word_functional(frame, word, p):
    """((W_{i1} ... W_{ik}) p)(0) with the rightmost factor acting first."""
    cur = p
    for pos in reversed(word):
        cur = frame[pos].apply_to(cur)
    return cur.constant_term()


def _hom_exponents(limit, wt, target):
    """Exponent tuples over variables < limit with weighted degree
    target, in lexicographic order."""
    partial = [((), target)]
    for i in range(limit):
        partial = [(expo + (c,), rem - c * wt[i]) for expo, rem in partial
                   for c in range(rem // wt[i] + 1)]
    return [expo for expo, rem in partial if rem == 0]


def _chart_round(shadows, basis, coords, s, cap):
    """One level of the chart chain.

    shadows hold per-generator jets in the current coordinates with
    the anchor at the origin; coords are the Hall indices labelling
    the target coordinates, in basis order.  Entries of length <= s
    are chart coordinates proper; longer entries are frame
    placeholders whose low-order functionals are cleared but which
    get no homogeneous identification yet.  Brackets and pushforwards
    are cut at total degree cap, as the jets are; only the
    identification grades by bracket length.  Returns the three maps,
    the shadows pushed through the first two (a caller that reads the
    shadows again pushes them through identify itself), and the frame
    determinant.
    """
    m = len(shadows)
    dim = len(coords)
    wt = tuple(basis.element(j).length for j in coords)
    n_low = sum(1 for L in wt if L <= s)
    # Jets holding a float make the round a float one: their exact
    # coefficients, and every constant the round adds, are floats
    # from the start, as they would be at their first float operation.
    one = unit_of(c for f in shadows for c in f.comps)
    shadows = [WeightedPolynomialField([as_unit(c, one) for c in f.comps])
               for f in shadows]
    zero = one - one
    axes = coordinates(dim, one)

    def shear(shifts):
        # with no shift at all, the identity in the round's unit
        if all(q is None for q in shifts):
            return TriangularMap(axes, axes)
        return TriangularMap.shear(shifts)

    # Linear alignment: put the frame values on the coordinate axes.
    table = evaluate_brackets(basis, coords, shadows, cap)
    origin = (0,) * dim
    rows = [[table[k].comps[i].terms.get(origin, zero) for k in range(dim)]
            for i in range(dim)]
    det = det_matrix(rows)
    if not _det_gate(det, rows):
        raise SingularFrame("bracket frame degenerates at the anchor "
                            "(level %d)" % s, level=s,
                            det=float(det) if det else 0.0)
    align = TriangularMap.affine(invert_matrix(rows), rows, [0] * dim)
    shadows = [align.pushforward(f, cap) for f in shadows]

    # Frame fields in the aligned coordinates drive the derivative
    # functionals; only lengths <= s ever act as operators.
    frame = evaluate_brackets(basis, coords[:n_low], shadows, cap)

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
        target = axes[pos]
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
    correct = shear(shifts)
    shadows = [correct.pushforward(f, cap) for f in shadows]

    # Homogeneous identification: for every chart coordinate solve the
    # weighted-degree-matching correction that turns the leading part
    # of each field component into its canonical monomial.  The
    # correction is unique: a homogeneous psi that every leading field
    # annihilates would be a first integral of a bracket-generating
    # system.  Only here are fields graded by bracket length: low[i][k]
    # is component k of field i below weighted degree wt[k].  d_k of an
    # ansatz monomial of weighted degree wj is one monomial of weighted
    # degree wj - wt[k], so low[i][k] times it is exactly the product's
    # part below wj, with no two terms merged.
    mons = canonical_monomials(basis)
    low = [[f.comps[k].truncate(wt, wt[k] - 1) for k in range(n_low)]
           for f in shadows]
    psi_shifts = [None] * dim
    zvars = []
    for pos in range(n_low):
        wj = wt[pos]
        phi = basis.element(coords[pos]).phi
        ansatz = _hom_exponents(pos, wt, wj)
        cols = len(ansatz)
        reps = list(zvars) + axes[pos:]
        goal = as_unit(_reindex(mons[coords[pos] - 1], dim), one).subst(reps)

        contrib = [[None] * cols for _ in range(m)]
        for t, expo in enumerate(ansatz):
            mono = Poly.monomial(dim, expo + (0,) * (dim - len(expo)), one)
            for i in range(m):
                acc = Poly.zero(dim)
                for k in range(pos):
                    d = mono.diff(k)
                    if d.is_zero():
                        continue
                    acc = acc.add(low[i][k].mul(d))
                contrib[i][t] = acc

        eqs = {}

        def row_for(i, expo):
            row = eqs.get((i, expo))
            if row is None:
                row = [[zero] * cols, zero]
                eqs[(i, expo)] = row
            return row

        for i in range(m):
            want = goal if phi == i + 1 else Poly.zero(dim)
            for expo, c in low[i][pos].sub(want).terms.items():
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
        zvars.append(axes[pos].add(psi))
    identify = shear(psi_shifts)
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
    rows = frame_values(evaluate_brackets(basis, indices, fields), anchor)
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

    ident = identity(n, unit_of(anchor))
    chart = TriangularMap.affine(ident, ident, anchor)
    # Only the chart rounds, at levels below top, read these jets.
    shadows = ([taylor_truncate(f, anchor, cap) for f in fields]
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
            shadows = [f.pad(dim) for f in shadows]
            for t, (k, rate) in enumerate(zip(new, rates)):
                i = basis.element(k).phi - 1
                comps = list(shadows[i].comps)
                comps[prev_dim + t] = rate
                shadows[i] = WeightedPolynomialField(comps)
        align, correct, identify, shadows, _ = _chart_round(
            shadows, basis, coords, s, cap)
        if s + 1 < top:
            # the next round reads the shadows in this round's chart
            shadows = [identify.pushforward(f, cap) for f in shadows]
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
    """Ranks of the bracket flag at a point, one entry per length, each
    to RANK_TOL relative to the largest entry (or 1)."""
    values = frame_values(evaluate_brackets(
        basis, range(1, len(basis) + 1), fields), point)
    out = []
    for k in basis.level_dims:
        mat = [[float(v) for v in row[:k]] for row in values]
        scale = max([1.0] + [abs(v) for row in mat for v in row])
        out.append(rank(mat, RANK_TOL * scale))
    return tuple(out)
