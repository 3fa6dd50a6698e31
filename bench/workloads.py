"""The benchmark's workloads: set-up, seeded inputs, one query, one check.

Every call into the library goes through a module attribute
(``steer.exact_steer``, ``planner.global_plan``, ``sim.integrate``) so
that the tracer's wrappers see it.  Why each workload exists, and which
layer it loads, is written up in README.md next to this file.
"""

from fractions import Fraction

from nilsteer import canonical, planner, privcoord, sim, steer
from nilsteer.errors import NilsteerError  # noqa: F401  (for run.py)
from nilsteer.poly import ExprField, parse_expr


def spread_points(rng, dim):
    """Points of the unit cube [0, 1)^dim for one seed.

    The R_d low-discrepancy sequence (Roberts, 2018), shifted by a
    uniform offset drawn from the seeded generator.  Every seed gives
    other points, but a few dozen of them already cover the cube
    evenly, so means over a run's queries differ little from seed to
    seed, which independent uniform draws would not give.
    """
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = [(1.0 / g) ** (k + 1) for k in range(dim)]
    shift = [rng.random() for _ in range(dim)]
    i = 0
    while True:
        i += 1
        yield [(s + i * a) % 1.0 for s, a in zip(shift, alpha)]


def scaled(u, lo, hi):
    return lo + (hi - lo) * u


# Canonical endpoints must come back to the origin exactly; in float
# replay of the same law rounding leaves about 1e-16.
CANON_TOL = 1e-9
# Replay of a planned law on the true system must reach the goal.
REPLAY_TOL = 1e-4
# The replay's own error at this tolerance is about 1e-6, far inside
# REPLAY_TOL, and it costs a third less than the planner's 1e-10.
REPLAY_INTEGRATOR_TOL = 1e-8
PLAN_TOL = 1e-3


class Canon:
    """exact_steer on canonical (2,4) and (3,3), plans built in set-up.

    One query steers both systems, each from its own seeded start.  A
    (3,3) steer takes about half as long as a (2,4) one, so single
    steers would give a two-humped latency whose median sits in the gap
    and jumps between the humps from run to run.
    """

    name = "canon_steer"
    systems = ((2, 4), (3, 3))
    trace_queries = 20
    sample_queries = 100
    length_queries = 4

    def setup(self):
        out = []
        for m, r in self.systems:
            system = canonical.canonical_fields(m, r)
            out.append((system, steer.build_plan(system)))
        return out

    def inputs(self, rng, state):
        sizes = [system.n for system, _ in state]
        for u in spread_points(rng, sum(sizes)):
            starts = []
            for n in sizes:
                starts.append([scaled(v, -1.0, 1.0) for v in u[:n]])
                u = u[n:]
            yield starts

    def query(self, state, inp):
        return [steer.exact_steer(x, system, plan)
                for x, (system, plan) in zip(inp, state)]

    def check(self, state, inp, laws):
        """Each law steers its own start to the origin.

        z_init dilated back by the law's scale must be the start,
        exactly, and float replay of every period from z_init must land
        on the origin.
        """
        if len(laws) != len(state):
            return False
        for x, law, (system, _) in zip(inp, laws, state):
            z_init = law.meta["z_init"]
            if privcoord.dilate(z_init, law.scale, system.weights) \
                    != [Fraction(v) for v in x]:
                return False
            z = [float(v) for v in z_init]
            for period in law.periods:
                z = steer.propagate_period(system, period["channels"], z,
                                           float_mode=True)
            if max(abs(float(v)) for v in z) > CANON_TOL:
                return False
        return True

    def laws(self, result):
        return result


class Planned:
    """global_plan on a system handed over as field strings."""

    def setup(self):
        fields = [ExprField([parse_expr(c, self.names) for c in comps])
                  for comps in self.spec]
        if self.polynomial:
            fields = [f.to_poly_field() for f in fields]
        return fields, self.box, planner.PlannerConfig(**self.config)

    def query(self, state, inp):
        fields, box, config = state
        start, goal = inp
        return planner.global_plan(fields, start, goal, PLAN_TOL, box,
                                   config, r=self.r)

    def check(self, state, inp, result):
        """An independent replay of the law reaches the goal."""
        fields = state[0]
        start, goal = inp
        traj = sim.integrate(fields, start, result[0],
                             tol=REPLAY_INTEGRATOR_TOL)
        return max(abs(a - b) for a, b in zip(traj.endpoint, goal)) \
            <= REPLAY_TOL

    def laws(self, result):
        return [result[0]]


class Martinet(Planned):
    """Crossings of the Martinet singular plane x1 = 0."""

    name = "martinet_cross"
    names = ["x1", "x2", "x3"]
    spec = [["1", "0", "0"], ["0", "1", "x1^2"]]
    polynomial = True
    box = ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    config = {}
    r = None
    trace_queries = 4
    sample_queries = 6
    length_queries = 6

    def inputs(self, rng, state):
        for u in spread_points(rng, 6):
            start = [scaled(u[0], -0.7, -0.3), scaled(u[1], -0.5, 0.5),
                     scaled(u[2], -0.5, 0.5)]
            goal = [scaled(u[3], 0.3, 0.7), scaled(u[4], -0.5, 0.5),
                    scaled(u[5], -0.5, 0.5)]
            yield start, goal


class Unicycle(Planned):
    """Parking the unicycle from the origin; trig fields, one cell."""

    name = "unicycle_park"
    names = ["x", "y", "th"]
    spec = [["cos(th)", "sin(th)", "0"], ["0", "0", "1"]]
    polynomial = False
    box = ([-1.0, -1.0, -2.0], [1.0, 1.0, 2.0])
    config = {"grid": 4}
    r = 2
    trace_queries = 20
    sample_queries = 48
    length_queries = 24

    def inputs(self, rng, state):
        for u in spread_points(rng, 3):
            yield [0.0, 0.0, 0.0], [scaled(u[0], -0.8, 0.8),
                                    scaled(u[1], -0.8, 0.8),
                                    scaled(u[2], -1.5, 1.5)]


WORKLOADS = {w.name: w for w in (Canon(), Martinet(), Unicycle())}
