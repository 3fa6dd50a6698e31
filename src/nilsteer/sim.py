"""Replay of control laws on driftless systems, and input bookkeeping.

integrate replays a whole law from its start: one adaptive high-order
Runge-Kutta solve per period, restarted at each period edge, where the
inputs jump, and one output row per edge.  Inputs are evaluated
straight from their term lists, never resampled onto a grid.  Each
replay compiles its fields to float kernels (``poly.compile_field``)
once, and a law turns its exact amplitudes into floats on its first
evaluation, so the right-hand side runs in plain floats, with the
values the exact evaluation would round to.  Input length is the time
integral of the euclidean norm of the control vector.
"""

import math

from scipy.integrate import quad, solve_ivp

from .errors import SpecError, StepFailure
from .poly import compile_field
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


def _period_rhs(kernels, u, k):
    """Right-hand side sum_i u_i(t) X_i(x) of the driftless system
    under period k of the law u, at every t, taking the state as a
    numpy array."""
    value = u.period_value

    def rhs(t, x):
        pt = x.tolist()
        out = [0.0] * len(pt)
        for ui, kernel in zip(value(k, t), kernels):
            if ui == 0.0:
                continue
            out = [o + ui * v for o, v in zip(out, kernel(pt))]
        return out

    return rhs


def integrate(fields, x0, u, tol=1e-10):
    """Solve xdot = sum_i u_i(t) X_i(x) from x0 under the whole law u.

    The output holds one row per period edge, from t = 0 to the law's
    end at 2 pi N.  The run makes one adaptive solve per period.  A law
    jumps at each period edge, and an explicit Runge-Kutta scheme that
    steps across a jump of its right-hand side shrinks its step there
    and misses by more than its tolerance; restarted at the edge, it
    sees a smooth right-hand side in every period.  Each solve
    evaluates only its own period's terms (ControlLaw.period_value),
    its end included, and a period whose channels are all empty holds
    the state without a solve.  A solve that stops early raises
    StepFailure, whose payload["trajectory"] holds the rows of the
    periods before it (None in the first period).
    """
    kernels = [compile_field(f) for f in fields]
    times, states = [0.0], [[float(v) for v in x0]]
    for k, channels in enumerate(u.float_table()[1]):
        end = (k + 1) * TWO_PI
        state = states[-1]
        if any(channels):
            sol = solve_ivp(_period_rhs(kernels, u, k), (k * TWO_PI, end),
                            state, method="DOP853", rtol=tol, atol=tol,
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
