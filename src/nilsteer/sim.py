"""Replay of control laws on driftless systems, and input bookkeeping.

integrate replays a whole law from its start: one adaptive DOP853
solve per period, restarted at each period edge, where the inputs
jump, and one output row per edge.  Inputs are evaluated straight
from their term lists, never resampled onto a grid.  A period's
right-hand side is one straight-line source holding its terms and
fields, with the law's values as arguments and the state coordinates
as scalar arguments, so all periods of one shape (fields and term
counts) share code compiled once per process (poly.load_kernel), and
one integrate call builds each shape's source once.  A
law turns its exact amplitudes into floats on first use, so the
right-hand side runs in plain floats, with the values the exact
evaluation would round to.  The solver is compiled the same way, once
per state dimension: scipy's DOP853 tableau, initial step and step
control, unrolled over the stages and the state coordinates in plain
floats.  The tableau's nonzero entries are copied from scipy
(scipy.integrate._ivp.dop853_coefficients) into this module, so that
neither replay nor importing the package loads scipy or numpy.  Its
stage sums run in stage order where scipy's run in BLAS dot products,
so its endpoints differ from scipy's in the last bits.
Input length is the time integral of the euclidean norm of the
control vector, by scipy's quad, which loads at the first
input_length.
"""

import collections
import functools
import math
import sys

from .errors import SpecError, StepFailure
from .poly import emit_fields, load_kernel
from .steer import TWO_PI

MAX_STEP = math.pi
TOL_FLOOR = 100 * sys.float_info.epsilon

# DOP853's tableau as scipy holds it, Hairer's coefficients rounded to
# floats: the nodes C and the rows A of stages 1 to 11, and the weights
# B of the solution and E5, E3 of the two error estimates over stages
# 0 to 12, each {stage: coefficient} over its nonzero entries in stage
# order.  Stage 12 is the solution's own rhs, which the next step
# reuses as its stage 0.
STAGES = 12
C = {1: 0.05260015195876773, 2: 0.0789002279381516, 3: 0.1183503419072274,
     4: 0.2816496580927726, 5: 0.3333333333333333, 6: 0.25,
     7: 0.3076923076923077, 8: 0.6512820512820513, 9: 0.6,
     10: 0.8571428571428571, 11: 1.0}
A = {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861,
        3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386,
        4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
        5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998,
        4: 0.10726203044637328, 5: -0.015319437748624402,
        6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414,
        4: -0.868219346841726, 5: 27.59209969944671, 6: 20.154067550477894,
        7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677,
        4: -0.590290826836843, 5: 21.230051448181193, 6: 15.279233632882423,
        7: -33.28821096898486, 8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064,
         4: 1.0914373489967295, 5: -8.149787010746927,
         6: -18.52006565999696, 7: 22.739487099350505,
         8: 2.4936055526796523, 9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725,
         4: -2.0008720582248625, 5: -17.9589318631188,
         6: 27.94888452941996, 7: -2.8589982771350235,
         8: -8.87285693353063, 9: 12.360567175794303,
         10: 0.6433927460157636},
}
B = {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259}
E5 = {0: 0.01312004499419488, 5: -1.2251564463762044,
      6: -0.4957589496572502, 7: 1.6643771824549864,
      8: -0.35032884874997366, 9: 0.3341791187130175,
      10: 0.08192320648511571, 11: -0.022355307863886294}
E3 = {0: -0.18980075407240762, 5: 4.450312892752409,
      6: 1.8915178993145003, 7: -5.801203960010585,
      8: -0.4226823213237919, 9: -0.1521609496625161,
      10: 0.20136540080403034, 11: 0.02265179219836082}


class Trajectory:
    """State rows of a replay, one per period edge: row k, a list of
    floats, is the state at time 2 pi k.  integrate checks each row
    before it stores it, so the rows are not checked again here."""

    __slots__ = ("states",)

    def __init__(self, states):
        self.states = states

    @property
    def endpoint(self):
        return self.states[-1]

    def __len__(self):
        return len(self.states)


def _rhs_source(fields, shape, n):
    """Source of kernel(gain, base, a0, w0, h0, a1, ...) -> rhs, where
    rhs(t, x0, ..., x(n-1)) is the tuple sum_i u_i(t) X_i(x) of one law
    period of the given shape, one (field index, term count) per live
    channel, each term (amp, w, phase) an argument triple.  It runs
    ControlLaw.eval's and the field kernels' float operations in their
    order, summed from 0.0, with the products by a literal 0.0 left out
    and those by a literal 1.0 taken as the input itself: at finite
    inputs neither changes a bit of the sum."""
    lines, cols = emit_fields([fields[i] for i, _ in shape])
    params, src = [], ["    def rhs(t, %s):" % ", ".join(
        "x%d" % j for j in range(n)), "        tau = t - base"]
    for i, (_, count) in enumerate(shape):
        val = "0.0"
        for j in range(len(params), len(params) + count):
            params.append(", a%d, w%d, h%d" % (j, j, j))
            val += " + a%d * cos(w%d * tau - h%d)" % (j, j, j)
        src.append("        u%d = gain * (%s)" % (i, val))
    src.extend("        " + line for line in lines)
    sums = []
    for j in range(n):
        terms = ["0.0"]
        for i, col in enumerate(cols):
            if col[j] == "1.0":
                terms.append("u%d" % i)
            elif col[j] != "0.0":
                terms.append("u%d * %s" % (i, col[j]))
        sums.append(" + ".join(terms))
    src.append("        return (%s,)" % ", ".join(sums))
    return "def kernel(gain, base%s):\n%s\n    return rhs\n" % (
        "".join(params), "\n".join(src))


def _sum(coeffs, names):
    """Source of the sum of coeffs[s] times names[s] over the stages s
    of the tableau entry coeffs, in its order."""
    return " + ".join("%r * %s" % (c, names[s]) for s, c in coeffs.items())


@functools.cache
def _dop853_source(n):
    """Source of kernel(rhs, t, t_end, tol, sqrt, nextafter, abs, min,
    max, y0, ..., y(n-1)) -> (ok, nfev, t, y), which solves ydot =
    rhs(t, *y) from t to t_end with DOP853 (Hairer, Norsett & Wanner,
    Solving ODEs I, II.10) as scipy's solve_ivp runs it at rtol = atol
    = tol and a largest step of pi: scipy's tableau, its initial step
    (order 7), its step control and its error norm.  Each stage sum is
    taken in stage order over the tableau's nonzero entries.

    ok is False where the step falls below ten spacings of the floats
    at t, which is where the solver stopped with state y; nfev counts
    the rhs calls, 2 to start and 12 per step attempt.  No operation
    of the solver raises on a float: a square is v * v, and no divisor
    can be zero (see the comments)."""
    ys = ["y%d" % j for j in range(n)]

    def row(s):
        return ["k%s_%d" % (s, j) for j in range(n)]

    def lhs(names):
        return ", ".join(names) + ","

    def norm(values):
        # scipy's RMS norm, of values scaled by sc0, sc1, ...
        return "sqrt(%s) / %r" % (" + ".join(
            "(%s / sc%d) * (%s / sc%d)" % (v, j, v, j)
            for j, v in enumerate(values)), math.sqrt(n))

    k = [row(s) for s in range(STAGES + 1)]
    src = ["def kernel(rhs, t, t_end, tol, sqrt, nextafter, abs, min, "
           "max, %s):" % ", ".join(ys),
           "    %s = rhs(t, %s)" % (lhs(k[0]), ", ".join(ys))]
    src += ["    sc%d = tol + abs(y%d) * tol" % (j, j) for j in range(n)]
    src += ["    d0 = " + norm(ys),
            "    d1 = " + norm(k[0]),
            "    if d0 < 1e-5 or d1 < 1e-5:",
            "        h0 = 1e-6",
            "    else:",
            "        h0 = 0.01 * d0 / d1",
            "    h0 = min(h0, t_end - t)",
            "    %s = rhs(t + h0, %s)" % (lhs(row("f")), ", ".join(
                "y%d + h0 * k0_%d" % (j, j) for j in range(n))),
            # h0 is 0 only where d1 is inf, and then max(d1, d2) is too
            "    d2 = %s / h0 if h0 else d1" % norm(
                ["(kf_%d - k0_%d)" % (j, j) for j in range(n)]),
            "    d = max(d1, d2)",
            "    if d <= 1e-15:",
            "        h_abs = max(1e-6, h0 * 1e-3)",
            "    else:",
            "        h_abs = (0.01 / d) ** 0.125",
            "    h_abs = min(100 * h0, h_abs, t_end - t, %r)" % MAX_STEP,
            "    nfev = 2",
            "    while True:",
            "        min_step = 10 * abs(nextafter(t, 1e999) - t)",
            "        if h_abs > %r:" % MAX_STEP,
            "            h_abs = %r" % MAX_STEP,
            "        elif h_abs < min_step:",
            "            h_abs = min_step",
            "        rejected = False",
            "        while True:",
            # a NaN step stops here too
            "            if not h_abs >= min_step:",
            "                return False, nfev, t, (%s,)" % ", ".join(ys),
            "            t_new = t + h_abs",
            "            if t_new - t_end > 0:",
            "                t_new = t_end",
            "            h = t_new - t"]
    for s in range(1, STAGES):
        src.append("            %s = rhs(t + %r * h, %s)" % (
            lhs(k[s]), C[s], ", ".join(
                "y%d + (%s) * h" % (j, _sum(A[s], [r[j] for r in k]))
                for j in range(n))))
    src += ["            z%d = y%d + h * (%s)" % (
        j, j, _sum(B, [r[j] for r in k])) for j in range(n)]
    src += ["            %s = rhs(t + h, %s)" % (
                lhs(k[STAGES]), ", ".join("z%d" % j for j in range(n))),
            "            nfev += 12"]
    src += ["            sc%d = tol + max(abs(y%d), abs(z%d)) * tol"
            % (j, j, j) for j in range(n)]
    for name, coeffs in (("e", E5), ("g", E3)):
        src += ["            %s%d = (%s) / sc%d" % (
            name, j, _sum(coeffs, [r[j] for r in k]), j) for j in range(n)]
    src += ["            s5 = " + " + ".join(
                "e%d * e%d" % (j, j) for j in range(n)),
            "            s3 = " + " + ".join(
                "g%d * g%d" % (j, j) for j in range(n)),
            # scipy's norm is 0 too where s5 is; s5 + 0.01 * s3 can
            # underflow to 0 only there
            "            if s5 == 0.0:",
            "                error_norm = 0.0",
            "            else:",
            "                error_norm = h * s5 / sqrt((s5 + 0.01 * s3)"
            " * %d)" % n,
            "            if error_norm < 1.0:",
            "                if error_norm == 0.0:",
            "                    factor = 10.0",
            "                else:",
            "                    factor = min(10.0, 0.9 * error_norm"
            " ** -0.125)",
            "                if rejected:",
            "                    factor = min(1.0, factor)",
            "                h_abs = h * factor",
            "                break",
            "            h_abs = h * max(0.2, 0.9 * error_norm ** -0.125)",
            "            rejected = True",
            "        t = t_new",
            "        %s = %s" % (", ".join(ys + k[0]), ", ".join(
                ["z%d" % j for j in range(n)] + k[STAGES])),
            "        if t - t_end >= 0:",
            "            return True, nfev, t, (%s,)" % ", ".join(ys)]
    return "\n".join(src) + "\n"


Solution = collections.namedtuple("Solution", "y nfev success message")


def solve_ivp(rhs, t0, t1, y0, tol):
    """Solve ydot = rhs(t, *y) from y0 at t0 to t1 > t0 with DOP853 at
    rtol = atol = tol and a largest step of pi.  Returns a Solution:
    the endpoint y, the rhs evaluation count nfev as scipy counts it,
    and success with a message where the step shrank below the float
    spacing or the state left the finite floats.  An OverflowError or
    ValueError of rhs propagates."""
    ok, nfev, t, y = load_kernel(_dop853_source(len(y0)))(
        rhs, t0, t1, tol, math.sqrt, math.nextafter, abs, min, max, *y0)
    if not ok:
        return Solution(y, nfev, False,
                        "step size fell below the float spacing at t = %r"
                        % t)
    if not all(map(math.isfinite, y)):
        return Solution(y, nfev, False, "state left the finite floats")
    return Solution(y, nfev, True, "")


def check_tol(tol):
    """Raise SpecError unless tol is a replay tolerance the solver can
    meet: finite and at least 100 machine epsilons, the floor scipy
    clamps its relative tolerance to."""
    if not (math.isfinite(tol) and tol >= TOL_FLOOR):
        raise SpecError("replay tolerance must be finite and at least "
                        "%r, got %r" % (TOL_FLOOR, tol), tol=tol)


def integrate(fields, x0, u, tol):
    """Solve xdot = sum_i u_i(t) X_i(x) from x0 under the whole law u.

    The output holds one row per period edge, from t = 0 to the law's
    end at 2 pi N.  The run makes one adaptive solve per period.  A law
    jumps at each period edge, and an explicit Runge-Kutta scheme that
    steps across a jump of its right-hand side shrinks its step there
    and misses by more than its tolerance; restarted at the edge, it
    sees a smooth right-hand side in every period.  Each solve runs
    solve_ivp on the compiled _rhs_source of its period's shape, loaded
    once per shape and call, with that period's terms up to and
    including its end; a period whose channels are all empty holds the
    state without a solve.

    A non-finite start, or a tolerance check_tol refuses, raises
    SpecError.  A solve that stops early, or whose right-hand side
    overflows or leaves its domain (sin or cos of an infinite
    coordinate), raises StepFailure, whose payload["trajectory"] holds
    the rows of the periods before it (None in the first period).
    """
    check_tol(tol)
    state = [float(v) for v in x0]
    if not all(map(math.isfinite, state)):
        raise SpecError("non-finite start %r" % (state,), x0=state)
    gain, periods = u.float_table()
    states = [state]
    kernels = {}
    for k, channels in enumerate(periods):
        shape = tuple((i, len(terms)) for i, (_, terms)
                      in enumerate(zip(fields, channels)) if terms)
        if shape:
            if shape not in kernels:
                kernels[shape] = load_kernel(
                    _rhs_source(fields, shape, len(state)))
            rhs = kernels[shape](gain, k * TWO_PI, *[
                v for i, _ in shape for term in channels[i] for v in term])
            try:
                sol = solve_ivp(rhs, k * TWO_PI, (k + 1) * TWO_PI, state,
                                tol)
                failure = None if sol.success else sol.message
            except (OverflowError, ValueError) as ex:
                failure = "right-hand side raised %s: %s" % (
                    type(ex).__name__, ex)
            if failure is not None:
                raise StepFailure("integrator stopped in period %d: %s"
                                  % (k, failure),
                                  trajectory=Trajectory(states)
                                  if len(states) > 1 else None)
            state = list(sol.y)
        states.append(state)
    return Trajectory(states)


def _quad_halving(f, a, b, depth):
    """quad of f over [a, b] to relative tolerance 1e-10; where quad
    reports a failure (subdivision limit, roundoff) the interval is
    halved and each half retried, at most depth times deep, after
    which quad's own warning stands."""
    # Imported here, not with the module: scipy.integrate leaves some
    # 31k objects that every full garbage collection of a steering
    # process would scan, and only input lengths need it.
    from scipy.integrate import quad

    if depth == 0:
        return quad(f, a, b, epsabs=1e-14, epsrel=1e-10, limit=200)[0]
    out = quad(f, a, b, epsabs=1e-14, epsrel=1e-10, limit=200,
               full_output=1)
    if len(out) == 3:
        return out[0]
    mid = 0.5 * (a + b)
    return (_quad_halving(f, a, mid, depth - 1)
            + _quad_halving(f, mid, b, depth - 1))


def input_length(u):
    """Integral of the euclidean norm of the control vector.

    Each period is split into ceil(w / 4) equal pieces, w the period's
    top frequency, so that quad sees about four oscillations of the
    fastest term per piece: a whole period of a fast law overruns
    quad's subdivision limit.  The norm has kinks where every channel
    vanishes at once, and a piece on which quad still fails is halved
    (_quad_halving).
    """
    if not u.periods:
        return 0.0
    ufun = u.eval

    def integrand(t):
        return math.sqrt(math.fsum(v * v for v in ufun(t)))

    total = 0.0
    for k, channels in enumerate(u.float_table()[1]):
        top = max((w for terms in channels for _, w, _ in terms),
                  default=0)
        pieces = max(1, math.ceil(top / 4))
        edges = [k * TWO_PI + TWO_PI * i / pieces for i in range(pieces)]
        edges.append((k + 1) * TWO_PI)
        for a, b in zip(edges, edges[1:]):
            total += _quad_halving(integrand, a, b, 8)
    return total


def input_sup_bound(u):
    """Certified bound on max_i sup_t |u_i(t)|.

    Per channel the peak of a trigonometric sum is at most the sum of
    the amplitude magnitudes, and that bound is tight for the
    single-term channels the steering layer emits.
    """
    if not u.periods:
        return 0.0
    gain, periods = u.float_table()
    gain = abs(gain)
    worst = 0.0
    for channels in periods:
        for terms in channels:
            peak = math.fsum(abs(a) for a, _, _ in terms)
            if peak > worst:
                worst = peak
    return gain * worst
