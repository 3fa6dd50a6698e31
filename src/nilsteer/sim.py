"""Integration of driftless systems and input bookkeeping.

The integrator is a thin wrapper over an adaptive high-order
Runge-Kutta scheme, restarted at each period edge of the law, where
the inputs jump; inputs are evaluated straight from their term lists,
never resampled onto a grid.  Each integration compiles its fields to
float kernels (``poly.compile_field``) once, and a law turns its exact
amplitudes into floats on its first evaluation, so the right-hand side
runs in plain floats, with the values the exact evaluation would round
to.  Input length is the time integral of the euclidean norm of the
control vector.
"""

import math

from scipy.integrate import quad, solve_ivp

from .errors import DomainExit, SpecError, StepFailure
from .poly import compile_field
from .steer import TWO_PI


class Trajectory:
    """Time grid plus state rows, with provenance in meta."""

    __slots__ = ("times", "states", "meta")

    def __init__(self, times, states, meta=None):
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
        self.meta = dict(meta or {})

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


def _pieces(u, t0, t1, samples_per_period):
    """A run over [t0, t1] cut at each period edge inside it, as a list
    of (k, times): period k of u drives the piece (None when u has no
    periods), and times are its output points from its start to its
    end, so that consecutive pieces share one point.  Inside each
    period samples_per_period - 1 evenly spaced points are added.
    Points within 1e-9 of a period of either end are left out, so that
    an edge equal to t1 up to rounding makes no piece there; outside
    the law's horizon its first or last period drives the run, as in
    ControlLaw.eval."""
    if not u.periods:
        return [(None, [t0, t1])]
    gap = 1e-9 * TWO_PI
    cuts = [[t0]]
    k = 0
    while k * TWO_PI < t1 - gap:
        for i in range(samples_per_period):
            pt = k * TWO_PI + TWO_PI * i / samples_per_period
            if t0 + gap < pt < t1 - gap:
                cuts[-1].append(pt)
                if i == 0:
                    cuts.append([pt])
        k += 1
    cuts[-1].append(t1)
    last = len(u.periods) - 1
    return [(min(max(int(0.5 * (ts[0] + ts[-1]) // TWO_PI), 0), last), ts)
            for ts in cuts]


def integrate(fields, x0, u, span=None, tol=1e-10, domain=None,
              samples_per_period=1):
    """Solve xdot = sum_i u_i(t) X_i(x) from x0 under the law u.

    span defaults to the law's whole horizon.  The output grid always
    contains every period boundary of the law inside the span;
    samples_per_period adds interior points for plotting.  domain,
    when given, is a (lo, hi) box pair; leaving it aborts the run and
    attaches the partial trajectory to the error.

    The run makes one adaptive solve per period piece of the span.  A
    law jumps at each period edge, and an explicit Runge-Kutta scheme
    that steps across a jump of its right-hand side shrinks its step
    there and misses by more than its tolerance; restarted at the
    edge, it sees a smooth right-hand side on every piece.  Each piece
    evaluates only its own period's terms (ControlLaw.period_value),
    its end included, and a period whose channels are all empty holds
    the state without a solve.  The end row of each piece starts the
    next one.
    """
    if span is None:
        span = (0.0, u.horizon)
    t0, t1 = float(span[0]), float(span[1])
    x0 = [float(v) for v in x0]
    if t1 <= t0:
        return Trajectory([t0], [x0], {"tol": tol})
    kernels = [compile_field(f) for f in fields]
    periods = u.float_table()[1]
    events = None
    if domain is not None:
        lo = [float(v) for v in domain[0]]
        hi = [float(v) for v in domain[1]]

        def inside(t, x):
            return min(min(x[j] - lo[j], hi[j] - x[j])
                       for j in range(len(x)))

        inside.terminal = True
        inside.direction = -1
        events = [inside]

    meta = {"tol": tol, "span": (t0, t1)}
    times, states = [t0], [x0]
    for k, grid in _pieces(u, t0, t1, samples_per_period):
        if k is None or not any(periods[k]):
            times += grid[1:]
            states += [states[-1]] * (len(grid) - 1)
            continue
        # Without interior points the solver's own last step is the
        # end row; asking for it as an output would cost three more
        # evaluations for the dense output of that step.
        t_eval = grid[1:] if len(grid) > 2 else None
        sol = solve_ivp(_period_rhs(kernels, u, k), (grid[0], grid[-1]),
                        states[-1], method="DOP853", t_eval=t_eval,
                        rtol=tol, atol=tol, events=events,
                        max_step=math.pi)
        if t_eval is not None:
            times += sol.t.tolist()
            states += sol.y.T.tolist()
        elif sol.status == 0:
            times.append(grid[-1])
            states.append(sol.y[:, -1].tolist())
        if sol.status == 1:
            te = float(sol.t_events[0][0])
            partial = [(t, s) for t, s in zip(times, states) if t < te]
            ptimes = [t for t, _ in partial] + [te]
            pstates = [s for _, s in partial] + [sol.y_events[0][0].tolist()]
            raise DomainExit("trajectory left the domain box at t=%.6g" % te,
                             trajectory=Trajectory(ptimes, pstates, meta),
                             t_exit=te)
        if not sol.success:
            raise StepFailure("integrator stopped: %s" % sol.message,
                              trajectory=Trajectory(times, states, meta)
                              if len(times) > 1 else None)
    return Trajectory(times, states, meta)


def _quad_halving(f, a, b, tol, depth):
    """quad of f over [a, b]; where quad reports a failure (subdivision
    limit, roundoff) the interval is halved and each half retried, at
    most depth times deep, after which quad's own warning stands."""
    if depth == 0:
        return quad(f, a, b, epsabs=1e-14, epsrel=tol, limit=200)[0]
    out = quad(f, a, b, epsabs=1e-14, epsrel=tol, limit=200,
               full_output=1)
    if len(out) == 3:
        return out[0]
    mid = 0.5 * (a + b)
    return (_quad_halving(f, a, mid, tol, depth - 1)
            + _quad_halving(f, mid, b, tol, depth - 1))


def input_length(u, tol=1e-10):
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
            total += _quad_halving(integrand, a, b, tol, 8)
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
