"""Independent reference computations used to freeze expected values.

Everything here is deliberately written against different machinery
than the package under test: dimension counts come from Moebius
inversion, brackets and jets from sympy, integrals from scipy
quadrature, ODE propagation from scipy's integrators.  Tests compare
package output against these routes; the two sides share no code,
except for the reference replay, which drives the package's own exact
evaluate() to judge the compiled float kernels against it and runs a
plain-loop DOP853 on scipy's tableau to judge the compiled solver, and
the exact checks at the end of this file, which work on the package's
own Poly, TrigPoly and TriangularMap values (chart_fields and
jet_bracket_values also take the package's Taylor jets).
"""

import math
import random
from collections import namedtuple
from fractions import Fraction

import sympy
from scipy.integrate import quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as dop853

from nilsteer.hall import evaluate_brackets
from nilsteer.poly import (
    Expr, Poly, TriangularMap, WeightedPolynomialField, as_expr_field,
    expr_eval, is_exact, poly_to_expr, taylor_truncate, wdeg,
)
from nilsteer.steer import PiPoly, TrigPoly, simplify_value


# ---------------------------------------------------------------------------
# Dimension counts for the free Lie algebra


def moebius(n):
    if n == 1:
        return 1
    result = 1
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def witt_dimension(m, s):
    """Number of Lyndon words (basis elements) of length s on m letters."""
    total = 0
    for d in range(1, s + 1):
        if s % d == 0:
            total += moebius(d) * m ** (s // d)
    assert total % s == 0
    return total // s


def cumulative_dims(m, r):
    """Dimensions of the nilpotent quotients, degrees 1..r."""
    dims = []
    acc = 0
    for s in range(1, r + 1):
        acc += witt_dimension(m, s)
        dims.append(acc)
    return dims


# ---------------------------------------------------------------------------
# Structural checker for a Hall family
#
# The input is a neutral projection of a candidate basis: a list where
# entry k is either ('gen', i) for generator i (1-based) or
# ('br', left_pos, right_pos) with 0-based positions into the same
# list.  The checker never rebuilds the order; it verifies soundness
# and completeness of the family against the defining conditions.


def hall_family_errors(items, m, r):
    errors = []
    lengths = []
    trees = []
    for k, item in enumerate(items):
        if item[0] == "gen":
            lengths.append(1)
            trees.append(("g", item[1]))
        else:
            _, lp, rp = item
            if lp >= k or rp >= k:
                errors.append("element %d references later elements" % k)
                lengths.append(0)
                trees.append(None)
                continue
            lengths.append(lengths[lp] + lengths[rp])
            trees.append((trees[lp], trees[rp]))
    tree_pos = {t: k for k, t in enumerate(trees)}

    # ordered by length, generators are the first m in generator order
    for k in range(1, len(items)):
        if lengths[k] < lengths[k - 1]:
            errors.append("length order broken at %d" % k)
    gens = [it for it in items if it[0] == "gen"]
    if [g[1] for g in gens] != list(range(1, m + 1)):
        errors.append("generator block wrong: %r" % (gens,))

    def member_ok(lp, rp):
        lu, lv = lengths[lp], lengths[rp]
        if lu + lv == 2:
            return (items[lp][0] == "gen" and items[rp][0] == "gen"
                    and lp < rp)
        if items[rp][0] == "gen":
            return False
        _, bp, cp = items[rp]
        return bp <= lp < rp

    present = set()
    for k, item in enumerate(items):
        if item[0] == "br":
            _, lp, rp = item
            if not member_ok(lp, rp):
                errors.append("element %d fails membership conditions" % k)
            present.add((lp, rp))

    # completeness: every admissible pair of earlier members must appear
    for lp in range(len(items)):
        for rp in range(len(items)):
            if lengths[lp] + lengths[rp] > r:
                continue
            if member_ok(lp, rp) and (lp, rp) not in present:
                errors.append("missing bracket of %d and %d" % (lp, rp))

    # no duplicate trees
    if len(tree_pos) != len(trees):
        errors.append("duplicate trees present")
    return errors


def leaf_counts(items, m):
    """Generator multiplicities per element (m-vector each)."""
    counts = []
    for item in items:
        if item[0] == "gen":
            v = [0] * m
            v[item[1] - 1] = 1
            counts.append(tuple(v))
        else:
            _, lp, rp = item
            counts.append(tuple(a + b for a, b in zip(counts[lp],
                                                      counts[rp])))
    return counts


# ---------------------------------------------------------------------------
# sympy vector field tools


def sym_coords(n):
    return sympy.symbols("x1:%d" % (n + 1))


def sym_bracket(v, w, xs):
    return [sympy.expand(sum(v[i] * sympy.diff(w[j], xs[i])
                             - w[i] * sympy.diff(v[j], xs[i])
                             for i in range(len(xs))))
            for j in range(len(xs))]


def sym_apply(v, f, xs):
    return sympy.expand(sum(v[i] * sympy.diff(f, xs[i])
                            for i in range(len(xs))))


def sym_pushforward(v, phi, phi_inv, xs):
    """Transport field v through z = phi(x), both given as sympy lists."""
    n = len(xs)
    out = []
    for j in range(n):
        comp = sum(v[i] * sympy.diff(phi[j], xs[i]) for i in range(n))
        comp = comp.subs(list(zip(xs, phi_inv)), simultaneous=True)
        out.append(sympy.expand(comp))
    return out


def sym_taylor(expr, xs, anchor, order):
    """Plain multivariate Taylor polynomial (unweighted total degree)."""
    hs = sympy.symbols("h1:%d" % (len(xs) + 1))
    shifted = expr.subs([(x, a + h) for x, a, h in
                         zip(xs, anchor, hs)], simultaneous=True)
    poly = sympy.S(0)
    term = shifted
    # series via repeated differentiation at 0
    from itertools import product
    for degs in product(range(order + 1), repeat=len(xs)):
        if sum(degs) > order:
            continue
        d = shifted
        for h, k in zip(hs, degs):
            d = sympy.diff(d, h, k)
        c = d.subs([(h, 0) for h in hs], simultaneous=True)
        if c != 0:
            mono = sympy.S(1)
            for h, k in zip(hs, degs):
                mono *= h ** k / sympy.factorial(k)
            poly += c * mono
    return poly, hs


# ---------------------------------------------------------------------------
# Finite differences


def fd_directional(fun, point, direction, h=1e-4):
    """4th order central difference of fun along direction."""
    def at(t):
        return fun([p + t * d for p, d in zip(point, direction)])
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


# ---------------------------------------------------------------------------
# Numeric quadrature and propagation


def quad_over_periods(f, t_end, periods=None):
    """Integrate f on [0, t_end] in `periods` equal pieces (default:
    one per 2 pi) to keep quad honest.  For a trigonometric integrand
    pass the top frequency times the number of 2 pi periods, so that
    each piece holds one oscillation of the fastest term."""
    if periods is None:
        periods = max(1, int(round(t_end / (2 * math.pi))))
    edges = [t_end * k / periods for k in range(periods + 1)]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        val, _ = quad(f, a, b, limit=400, epsabs=1e-13, epsrel=1e-13)
        total += val
    return total


def propagate_ode(rhs, z0, t_end, rtol=1e-12, atol=1e-12):
    sol = solve_ivp(rhs, (0.0, t_end), [float(v) for v in z0],
                    method="DOP853", rtol=rtol, atol=atol,
                    dense_output=False)
    assert sol.success, sol.message
    return [float(v) for v in sol.y[:, -1]]


# ---------------------------------------------------------------------------
# Reference replay
#
# The per-call evaluation the package's compiled kernels replace: each
# amplitude goes through float() and each field through its exact
# evaluate() on every call.  The package's replay must agree bit for
# bit with this rhs under dop853_reference, a plain loop over the
# stages of the package's solver, with the same number of rhs
# evaluations in each period.  scipy's DOP853 judges the solver's
# algorithm: it sums its stages in BLAS dot products, so its bits
# differ, but its endpoints and step counts must agree closely.

Run = namedtuple("Run", "ok nfev y")


def _seq_sum(terms):
    """Sum of terms in order, from the first one."""
    terms = iter(terms)
    acc = next(terms)
    for v in terms:
        acc += v
    return acc


def dop853_reference(rhs, t0, t1, y0, tol):
    """DOP853 from y0 at t0 to t1 on ydot = rhs(t, *y), as scipy's
    solve_ivp(method="DOP853", rtol=tol, atol=tol, max_step=pi) runs
    it, with every stage combination summed in stage order over the
    nonzero tableau entries.  Three guards keep it in plain floats
    where scipy's numpy floats warn: a NaN step fails as a step below
    the float spacing, the start-step rule takes max(d1, d2) and never
    divides by a zero h0, and an error vector whose fifth-order part is
    zero has norm zero."""
    A, B, C = dop853.A, dop853.B, dop853.C
    n = len(y0)
    rn = math.sqrt(n)

    def combo(coeffs, ks, j):
        return _seq_sum(c * k[j] for c, k in zip(coeffs, ks) if c)

    def norm(v, sc):
        return math.sqrt(_seq_sum((v[j] / sc[j]) * (v[j] / sc[j])
                                  for j in range(n))) / rn

    t, y = t0, [float(v) for v in y0]
    f = rhs(t, *y)
    sc = [tol + abs(v) * tol for v in y]
    d0, d1 = norm(y, sc), norm(f, sc)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1 - t)
    f1 = rhs(t + h0, *[y[j] + h0 * f[j] for j in range(n)])
    d2 = norm([f1[j] - f[j] for j in range(n)], sc) / h0 if h0 else d1
    d = max(d1, d2)
    h_abs = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** 0.125
    h_abs = min(100 * h0, h_abs, t1 - t, math.pi)
    nfev = 2
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > math.pi:
            h_abs = math.pi
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                return Run(False, nfev, y)
            t_new = min(t + h_abs, t1)
            h = t_new - t
            ks = [f]
            for s in range(1, dop853.N_STAGES):
                ks.append(rhs(t + C[s] * h, *[
                    y[j] + combo(A[s], ks, j) * h for j in range(n)]))
            z = [y[j] + h * combo(B, ks, j) for j in range(n)]
            ks.append(rhs(t + h, *z))
            nfev += dop853.N_STAGES
            sc = [tol + max(abs(a), abs(b)) * tol for a, b in zip(y, z)]
            e5 = [combo(dop853.E5, ks, j) / sc[j] for j in range(n)]
            e3 = [combo(dop853.E3, ks, j) / sc[j] for j in range(n)]
            s5 = _seq_sum(v * v for v in e5)
            s3 = _seq_sum(v * v for v in e3)
            err = 0.0 if s5 == 0.0 else h * s5 / math.sqrt((s5 + 0.01 * s3)
                                                          * n)
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0,
                                                     0.9 * err ** -0.125)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err ** -0.125)
            rejected = True
        t, y, f = t_new, z, ks[-1]
        if t >= t1:
            return Run(True, nfev, y)


def scipy_dop853(rhs, t0, t1, y0, tol):
    """scipy's DOP853 with the settings of the package's solver."""
    sol = solve_ivp(lambda t, x: rhs(t, *x), (t0, t1),
                    [float(v) for v in y0], method="DOP853", rtol=tol,
                    atol=tol, max_step=math.pi)
    return Run(sol.success, sol.nfev, sol.y[:, -1].tolist())


def law_value(law, t, k=None):
    """A ControlLaw's value at t from its exact terms, term by term:
    period k's terms, or by default those of the period holding t."""
    if not law.periods:
        return [0.0] * law.m
    base = 2.0 * math.pi
    if k is None:
        k = min(max(int(t // base), 0), len(law.periods) - 1)
    tau = t - k * base
    gain = float(law.scale)
    out = []
    for terms in law.periods[k]["channels"]:
        val = 0.0
        for amp, w, q in terms:
            val += float(amp) * math.cos(w * tau - q * math.pi / 2.0)
        out.append(gain * val)
    return out


def reference_rhs(fields, law, k):
    """rhs(t, *x) of period k of the law from law_value() and the
    fields' exact evaluate(), summed from 0.0 over the nonzero inputs."""
    def rhs(t, *x):
        u = law_value(law, t, k)
        out = [0.0] * len(x)
        for ui, field in zip(u, fields):
            if ui == 0.0:
                continue
            for j, v in enumerate(field.evaluate(list(x))):
                out[j] += ui * float(v)
        return tuple(out)
    return rhs


def replay_reference(fields, x0, law, tol, solve=scipy_dop853):
    """The law's whole horizon replayed as sim.integrate does, one
    solve run per period from the end of the one before, driven by
    reference_rhs on that period's terms up to and including its end;
    a period with no terms leaves the state where it is.  Returns the
    Runs, one per solve."""
    base = 2.0 * math.pi
    x = [float(v) for v in x0]
    runs = []
    for k in range(law.nperiods):
        if not any(law.periods[k]["channels"]):
            continue
        run = solve(reference_rhs(fields, law, k), k * base,
                    (k + 1) * base, x, tol)
        runs.append(run)
        x = run.y
    return runs


def assert_same_replay(monkeypatch, fields, x0, law, tol):
    """Replay the law with sim.integrate and judge it: endpoint and
    per-solve nfev bit for bit those of dop853_reference on the
    reference rhs; each solve's endpoint within 0.1 tol max(1, |y|)
    of scipy's DOP853 run from the same start on the same compiled
    rhs, and its nfev equal to scipy's on at least 98% of the solves.
    Returns the rhs evaluations of the replay."""
    from nilsteer import sim

    calls = []
    solve = sim.solve_ivp

    def spy(*args):
        sol = solve(*args)
        calls.append((args, sol))
        return sol

    monkeypatch.setattr(sim, "solve_ivp", spy)
    end = sim.integrate(fields, x0, law, tol=tol).endpoint
    plain = replay_reference(fields, x0, law, tol, dop853_reference)
    assert all(run.ok for run in plain)
    assert [sol.nfev for _, sol in calls] == [run.nfev for run in plain]
    assert end == plain[-1].y
    same = 0
    for args, sol in calls:
        ref = scipy_dop853(*args)
        assert ref.ok
        bound = 0.1 * tol * max(1.0, max(abs(v) for v in ref.y))
        assert max(abs(a - b) for a, b in zip(sol.y, ref.y)) <= bound
        same += sol.nfev == ref.nfev
    assert same >= 0.98 * len(calls)
    return sum(sol.nfev for _, sol in calls)


# ---------------------------------------------------------------------------
# Sinusoid displacement recursions
#
# Two independent recursions predict properties of the per-class
# control matrix.  The first tracks the resonance coefficient of a
# bracket tree under the substitution that ties the extra frequency to
# the second channel; positivity of the result certifies the matrix
# entry is nonzero for singleton classes on two generators.


def alpha_coefficient(tree, omega1, omega2, omega3):
    """Resonance coefficient recursion over a bracket tree.

    tree is 1, 2 or a pair (t1, t2); frequencies are sympy-compatible
    numbers.  Base cases alpha_1 = 0, alpha_2 = 1.
    """
    def counts(t):
        if t == 1:
            return (1, 0)
        if t == 2:
            return (0, 1)
        a = counts(t[0])
        b = counts(t[1])
        return (a[0] + b[0], a[1] + b[1])

    def rec(t):
        if t == 1:
            return sympy.S(0)
        if t == 2:
            return sympy.S(1)
        m1, m2 = counts(t[0])
        num = m1 * omega1 + m2 * omega2
        den = m1 * omega1 + (m2 - 1) * omega2 - omega3
        return sympy.together(num / den * rec(t[0]) + rec(t[1]))

    return sympy.simplify(rec(tree))


def tilde_f(tree, nus):
    """Formal first-order displacement functional on a frequency tuple.

    Leaves of the tree consume one formal frequency each, left to
    right; the value is a rational function of the nus meaningful on
    the hyperplane where they sum to zero.
    """
    def leaves(t):
        if isinstance(t, tuple):
            return leaves(t[0]) + leaves(t[1])
        return 1

    def rec(t, offset):
        if not isinstance(t, tuple):
            return sympy.S(1) / nus[offset], 1
        f1, n1 = rec(t[0], offset)
        f2, n2 = rec(t[1], offset + n1)
        s1 = sum(nus[offset:offset + n1])
        return sympy.together(f1 / s1 * f2), n1 + n2

    val, used = rec(tree, 0)
    assert used == len(nus)
    return sympy.simplify(val)


# ---------------------------------------------------------------------------
# Random rational sampling


def rational_shares(count, rng, resolution=12):
    """Positive rationals summing exactly to one."""
    while True:
        raw = [rng.randint(0, resolution) for _ in range(count)]
        if sum(raw) > 0:
            break
    total = sum(raw)
    return [Fraction(a, total) for a in raw]


def rational_unit_pseudo_point(weights, rng, resolution=12):
    """Random point with pseudo-norm exactly one.

    Component j is +-(s_j)^{w_j} for shares s_j summing to one, so
    sum |z_j|^(1/w_j) = sum s_j = 1 holds in exact arithmetic.
    """
    shares = rational_shares(len(weights), rng, resolution)
    out = []
    for s, w in zip(shares, weights):
        sign = rng.choice([-1, 1])
        out.append(sign * s ** w)
    return out


def random_fraction(rng, lo=-2, hi=2, den=16):
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_rational_point(n, rng, lo=-2, hi=2, den=16):
    return [random_fraction(rng, lo, hi, den) for _ in range(n)]


def seeded(seed):
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Exact checks on package values
#
# Round trips and splittings the package has no use for itself: each
# one recomputes a value another way, so a test can compare the two
# exactly.


def check_inverse(tmap):
    """Verify symbolically that a TriangularMap's inv really inverts its
    comps."""
    ident = [Poly.var(tmap.n, i) for i in range(tmap.n)]
    back = [c.subst(list(tmap.inv)) for c in tmap.comps]
    forth = [c.subst(list(tmap.comps)) for c in tmap.inv]
    return back == ident and forth == ident


def chart_fields(fields, chart, basis):
    """The fields in the coordinates of a privileged chart.

    Their jets at the chart's anchor (total degree cap 2r + 1) go once
    through chart.map recentred at the anchor, so this judges the map
    the planner steers in, not the steps that built it.  Grade the
    result by basis.free_weights.
    """
    n = chart.n
    a = list(chart.anchor)
    cap = 2 * basis.r + 1
    centred = TriangularMap(
        [c.shift(a) for c in chart.map.comps],
        [c.sub(Poly.const(n, a[j])) for j, c in enumerate(chart.map.inv)])
    return [centred.pushforward(taylor_truncate(f, a, cap), cap)
            for f in fields]


def jet_bracket_values(fields, basis, indices, point):
    """Bracket values at point read off Taylor jets: every field cut
    at the longest listed bracket length about point, the jets
    bracketed, and the constant terms kept.  Rows are coordinates,
    columns follow indices, as in desing.frame_values, which reads the
    same numbers off the bracket fields themselves.
    """
    cap = max(basis.element(j).length for j in indices)
    jets = [taylor_truncate(f, point, cap) for f in fields]
    cols = [[c.constant_term() for c in b.comps]
            for b in evaluate_brackets(basis, indices, jets, cap)]
    return [list(row) for row in zip(*cols)]


def poly_graded_part(p, weights, d):
    """Terms of a Poly of weighted degree exactly d."""
    return Poly(p.n, {e: c for e, c in p.terms.items()
                      if wdeg(e, weights) == d})


def field_graded_part(field, weights, d):
    """Terms of a polynomial field of weighted degree exactly d
    (w(a) - w_j == d) under weights w."""
    return WeightedPolynomialField(
        [poly_graded_part(comp, weights, d + weights[j])
         for j, comp in enumerate(field.comps)])


def field_sub(a, b):
    """The field a - b, component by component."""
    return WeightedPolynomialField(
        [p.sub(q) for p, q in zip(a.comps, b.comps)])


def weighted_components(field, weights):
    """Split a polynomial field into its graded parts under weights.

    Returns {degree: field}, smallest degree first.  The degree of a
    term c*z^a d/dz_j is w(a) - w_j, so for a frame adapted to the
    filtration the leading block sits at degree -1.
    """
    degrees = set()
    for j, comp in enumerate(field.comps):
        for e in comp.terms:
            degrees.add(wdeg(e, weights) - weights[j])
    return {d: field_graded_part(field, weights, d)
            for d in sorted(degrees)}


def nonholonomic_order(f, fields, anchor, cap, tol=1e-12):
    """Order of vanishing of f at anchor along iterated field derivatives.

    Returns (order, mode) where order is the smallest total number of
    field applications whose result is nonzero at the anchor, or None
    when everything up to ``cap`` applications vanishes (read: order is
    at least cap + 1).  mode is 'exact' when every evaluation stayed
    rational and 'float' when trig forced numeric evaluation, in which
    case values below ``tol`` count as zero.
    """
    efields = [as_expr_field(x) for x in fields]
    f = f if isinstance(f, Expr) else poly_to_expr(f)
    mode = "exact"

    def value_nonzero(v):
        nonlocal mode
        if is_exact(v):
            return v != 0
        mode = "float"
        return abs(v) > tol

    if value_nonzero(expr_eval(f, anchor)):
        return 0, mode
    level = [f]
    for s in range(1, cap + 1):
        nxt = []
        hit = False
        for g in level:
            for xf in efields:
                h = xf.apply_to(g)
                nxt.append(h)
                if value_nonzero(expr_eval(h, anchor)):
                    hit = True
        if hit:
            return s, mode
        level = nxt
    return None, mode


def trig_derivative(u):
    """Exact derivative of a TrigPoly, term by term: keys (p, w, s, m,
    e) as TrigPoly keeps them, s = 0 for cos and s = 1 for sin."""
    out = {}

    def put(key, c):
        out[key] = out.get(key, 0) + c

    for (p, w, s, m, e), c in u.terms.items():
        if p > 0:
            put((p - 1, w, s, m, e), c * p)
        if w > 0:
            put((p, w, 1 - s, m, e), c * (-w if s == 0 else w))
    return TrigPoly(out)


def trig_value_zero(u):
    """A numeric TrigPoly's exact value at t = 0: its t^0 cosines."""
    out = {}
    for (p, w, s, m, e), c in u.terms.items():
        assert m == 0, "an amplitude monomial has no number value"
        if p == 0 and s == 0:
            out[e] = out.get(e, 0) + c
    return simplify_value(PiPoly(out))


def trig_eval_float(u, t):
    """A numeric TrigPoly's value at t, in floats."""
    total = 0.0
    for (p, w, s, m, e), c in u.terms.items():
        assert m == 0, "an amplitude monomial has no number value"
        base = math.cos(w * t) if s == 0 else math.sin(w * t)
        total += float(c) * math.pi ** e * t ** p * base
    return total


# ---------------------------------------------------------------------------
# Float linear algebra as the package wrote it before its tight loops:
# the reference for bit-for-bit checks of det_matrix, the covering's
# determinant gate and growth_vector's ranks.


def det_elimination(rows):
    """Determinant by Gaussian elimination over whole rows, with the
    largest-magnitude pivot (first on ties) on float data and the first
    nonzero one on exact data."""
    a = [[Fraction(x) if isinstance(x, int) else x for x in r] for r in rows]
    exact = not any(isinstance(x, float) for r in a for x in r)
    det = Fraction(1) if exact else 1.0
    for col in range(len(a)):
        pivot = None
        if exact:
            pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        else:
            best = 0.0
            for r in range(col, len(a)):
                if abs(a[r][col]) > best:
                    best, pivot = abs(a[r][col]), r
        if pivot is None:
            return Fraction(0) if exact else 0.0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        inv_p = 1 / a[col][col]
        for r in range(col + 1, len(a)):
            if a[r][col]:
                f = a[r][col] * inv_p
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def det_gate_reference(det, rows, threshold):
    """The relative determinant gate on float data: |det| above
    threshold times the product of the column norms, each a square
    root of its column's sum of squares, a zero norm counting as 1."""
    n = len(rows)
    scale = 1.0
    for k in range(n):
        norm = math.sqrt(sum(float(rows[i][k]) ** 2 for i in range(n)))
        scale *= norm if norm > 0 else 1.0
    return abs(float(det)) > threshold * scale


def numpy_growth_vector(fields, basis, point, tol):
    """Ranks of the bracket flag at a point from numpy's SVD rank, each
    to tol relative to the largest entry (or 1)."""
    import numpy as np

    brackets = evaluate_brackets(basis, range(1, len(basis) + 1), fields)
    values = np.array([[float(v) for v in b.evaluate(point)]
                       for b in brackets]).T
    out = []
    for k in basis.level_dims:
        mat = values[:, :k]
        scale = max(1.0, float(np.abs(mat).max()))
        out.append(int(np.linalg.matrix_rank(mat, tol=tol * scale)))
    return tuple(out)
