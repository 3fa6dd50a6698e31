"""Replay of control laws on driftless systems, and input bookkeeping.

integrate replays a whole law from its start: one adaptive high-order
Runge-Kutta solve per period, restarted at each period edge, where the
inputs jump, and one output row per edge.  Inputs are evaluated
straight from their term lists, never resampled onto a grid.  A
period's right-hand side is one straight-line source holding its
terms and fields, with the law's values as arguments, so all periods
of one shape (fields and term counts) share code compiled once per
process (poly.load_kernel).  A law turns its exact amplitudes into
floats on first use, so the right-hand side runs in plain floats,
with the values the exact evaluation would round to.  Input length is
the time integral of the euclidean norm of the control vector.
"""

import math

from scipy.integrate import quad, solve_ivp

from .errors import SpecError, StepFailure
from .poly import emit_fields, load_kernel
from .steer import TWO_PI


class Trajectory:
    """Time grid plus state rows."""

    __slots__ = ("times", "states")

    def __init__(self, times, states):
        times = [float(t) for t in times]
        states = [[float(v) for v in row] for row in states]
        if len(times) != len(states):
            raise SpecError("time grid and state rows disagree in length")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise SpecError("times must increase strictly")
        for t in times:
            if not math.isfinite(t):
                raise SpecError("non-finite time value")
        for row in states:
            for v in row:
                if not math.isfinite(v):
                    raise SpecError("non-finite state value")
        self.times = times
        self.states = states

    @property
    def endpoint(self):
        return self.states[-1]

    def __len__(self):
        return len(self.times)


def _rhs_source(live, n):
    """Source of kernel(gain, base, a0, w0, h0, a1, ...) -> rhs(t, x),
    the right-hand side sum_i u_i(t) X_i(x) of one law period, over
    the (field, channel terms) pairs of live, each term (amp, w, phase)
    an argument triple.  It runs ControlLaw.eval's and the field
    kernels' float operations in their order, summed from 0.0."""
    lines, cols = emit_fields([f for f, _ in live])
    params, src = [], ["    def rhs(t, x):", "        tau = t - base"]
    for i, (_, terms) in enumerate(live):
        val = "0.0"
        for j in range(len(params), len(params) + len(terms)):
            params.append(", a%d, w%d, h%d" % (j, j, j))
            val += " + a%d * cos(w%d * tau - h%d)" % (j, j, j)
        src.append("        u%d = gain * (%s)" % (i, val))
    src.append("        p = x.tolist()")
    src.extend("        " + line for line in lines)
    src.append("        return [%s]" % ", ".join(
        "0.0" + "".join(" + u%d * %s" % (i, col[j])
                        for i, col in enumerate(cols)) for j in range(n)))
    return "def kernel(gain, base%s):\n%s\n    return rhs\n" % (
        "".join(params), "\n".join(src))


def integrate(fields, x0, u, tol=1e-10):
    """Solve xdot = sum_i u_i(t) X_i(x) from x0 under the whole law u.

    The output holds one row per period edge, from t = 0 to the law's
    end at 2 pi N.  The run makes one adaptive solve per period.  A law
    jumps at each period edge, and an explicit Runge-Kutta scheme that
    steps across a jump of its right-hand side shrinks its step there
    and misses by more than its tolerance; restarted at the edge, it
    sees a smooth right-hand side in every period.  Each solve runs
    the compiled _rhs_source of its period's shape, on that period's
    terms up to and including its end, and a period whose channels
    are all empty holds the state without a solve.  A solve that stops
    early raises StepFailure, whose payload["trajectory"] holds the
    rows of the periods before it (None in the first period).
    """
    gain, periods = u.float_table()
    times, states = [0.0], [[float(v) for v in x0]]
    for k, channels in enumerate(periods):
        end = (k + 1) * TWO_PI
        state = states[-1]
        if any(channels):
            live = [(f, terms) for f, terms in zip(fields, channels)
                    if terms]
            rhs = load_kernel(_rhs_source(live, len(state)))(
                gain, k * TWO_PI,
                *[v for _, terms in live for term in terms for v in term])
            sol = solve_ivp(rhs, (k * TWO_PI, end), state,
                            method="DOP853", rtol=tol, atol=tol,
                            max_step=math.pi)
            if not sol.success:
                raise StepFailure("integrator stopped: %s" % sol.message,
                                  trajectory=Trajectory(times, states)
                                  if len(times) > 1 else None)
            state = sol.y[:, -1].tolist()
        times.append(end)
        states.append(state)
    return Trajectory(times, states)


def _quad_halving(f, a, b, depth):
    """quad of f over [a, b] to relative tolerance 1e-10; where quad
    reports a failure (subdivision limit, roundoff) the interval is
    halved and each half retried, at most depth times deep, after
    which quad's own warning stands."""
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
