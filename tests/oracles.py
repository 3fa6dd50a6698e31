"""Independent reference computations used to freeze expected values.

Everything here is deliberately written against different machinery
than the package under test: dimension counts come from Moebius
inversion, brackets and jets from sympy, integrals from scipy
quadrature, ODE propagation from scipy's integrators.  Tests compare
package output against these routes; the two sides share no code,
except for the reference replay, which drives the package's own exact
evaluate() to judge the compiled float kernels against it.
"""

import math
import random
from fractions import Fraction

import sympy
from scipy.integrate import quad, solve_ivp


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
# bit, with the same number of rhs evaluations in each period.


def law_value(law, t, k=None):
    """A ControlLaw's value at t from its exact terms, term by term:
    period k's terms, or by default those of the period holding t."""
    if not law.periods:
        return [0.0] * law.m
    ts = float(law.time_scale)
    base = 2.0 * math.pi * ts
    if k is None:
        k = min(max(int(t // base), 0), len(law.periods) - 1)
    tau = (t - k * base) / ts
    gain = float(law.scale) / ts
    out = []
    for terms in law.periods[k]["channels"]:
        val = 0.0
        for amp, w, q in terms:
            val += float(amp) * math.cos(w * tau - q * math.pi / 2.0)
        out.append(gain * val)
    return out


def replay_reference(fields, x0, law, tol):
    """The law's whole horizon replayed with the integrator settings of
    sim.integrate, one solve_ivp run per period from the end of the
    one before, driven by evaluate() and law_value() on that period's
    terms up to and including its end; a period with no terms leaves
    the state where it is.  Returns the runs, one per solve."""

    def rhs_of(k):
        def rhs(t, x):
            u = law_value(law, t, k)
            out = [0.0] * len(x)
            for ui, field in zip(u, fields):
                if ui == 0.0:
                    continue
                for j, v in enumerate(field.evaluate(x.tolist())):
                    out[j] += ui * float(v)
            return out
        return rhs

    base = 2.0 * math.pi * float(law.time_scale)
    edges = [k * base for k in range(law.nperiods)] + [law.horizon]
    x = [float(v) for v in x0]
    runs = []
    for k, (a, b) in enumerate(zip(edges, edges[1:])):
        if not any(law.periods[k]["channels"]):
            continue
        sol = solve_ivp(rhs_of(k), (a, b), x, method="DOP853", rtol=tol,
                        atol=tol, max_step=math.pi)
        runs.append(sol)
        x = sol.y[:, -1].tolist()
    return runs


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
