"""Exact sinusoidal steering of the canonical nilpotent system.

The classes of the basis (grouped by generator content) are steered
one per 2 pi period.  Within a period every class element gets a block
of unit-amplitude cosines at integer frequencies plus one resonance
sinusoid whose amplitude is solved for.  Each class has one frequency
plan, built by a chain rule meant to make the designated combination
the only integer one hitting zero, so that the net displacement of the
class coordinates is linear in the resonance amplitudes.
control_matrix is the one gate on a plan: it runs the class's period
once, with the amplitudes as symbols, and reads the linear map off the
monomials of degree one.  A plan that moves a settled coordinate,
whose displacement is not linear in the amplitudes, or whose control
matrix is too close to singular raises SingularMatrix.

Everything is integrated in closed form, on one representation.  A
TrigPoly is a sum of terms c t^p trig(w t) a^m pi^e with rational c,
integer frequencies w, a monomial m of the symbolic amplitudes and a
power e of pi, so every state value at a period boundary is a Laurent
polynomial of pi (a PiPoly) in exact steering, and a polynomial in
the amplitudes over those in control_matrix.  A coordinate's value at
the end of a period is its start plus the integral of its rate over
the period.  The rate is a sum of terms t^p trig(w1 t) times control
terms trig(w2 t), and each such pair integrates to a rational
combination of powers of 2 pi, read from a kept table.  Trajectories
are built only for the coordinates that some rate reads.  In float
mode the same code runs on float coefficients (m = e = 0), for the
float replay of a law: the period's amplitudes and state become floats
at its start, and exact values never meet floats (adding a float to a
PiPoly raises TypeError).

Laws are joined end to end by one routine, concatenate, which folds
every law's scale into its amplitudes.
"""

import functools
import json
import math
from fractions import Fraction

from .errors import SingularMatrix, SpecError, SteeringResidual
from .poly import det_matrix, invert_matrix, is_exact, mat_vec
from .privcoord import dilate, pseudo_norm

F0 = Fraction(0)
F1 = Fraction(1)
_PI_HAT = Fraction(math.pi)
# Length of one period of a law, in float time.
TWO_PI = 2.0 * math.pi
# Least |det| of a class's column-equilibrated control matrix, relative
# to the geometric mean of its row norms.
DET_THRESHOLD = 1e-6


# ---------------------------------------------------------------------------
# Laurent polynomials of pi


class PiPoly:
    """Laurent polynomial in pi with rational coefficients: the sum of
    c[k] pi^k over exponents k of either sign, zero coefficients left
    out, so equal values have equal dicts.

    It is the one exact number type of steering besides Fraction.
    + - * work with int, Fraction and PiPoly; / only by a nonzero
    rational or a monomial c pi^k, the ring's units.  Any other
    divisor, and any float operand, raises TypeError: exact values
    never meet floats.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = {k: v if type(v) is Fraction else Fraction(v)
                  for k, v in c.items() if v}

    def __bool__(self):
        return bool(self.c)

    def __add__(self, o):
        out = dict(self.c)
        for k, v in _terms(o):
            out[k] = out.get(k, F0) + v
        return PiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return PiPoly({k: -v for k, v in self.c.items()})

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        out = {}
        tb = _terms(o)
        for i, x in self.c.items():
            for j, y in tb:
                _put(out, i + j, x * y)
        return PiPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, PiPoly):
            if len(o.c) != 1:
                if not o.c:
                    raise ZeroDivisionError("division by a zero PiPoly")
                raise TypeError("%r is not a monomial, so it has no "
                                "inverse among Laurent polynomials" % (o,))
            ((shift, q),) = o.c.items()
        elif isinstance(o, (int, Fraction)):
            shift, q = 0, o
        else:
            return NotImplemented
        inv = F1 / q
        return PiPoly({k - shift: v * inv for k, v in self.c.items()})

    def __rtruediv__(self, o):
        return PiPoly(dict(_terms(o))) / self

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            o = PiPoly({0: o})
        if not isinstance(o, PiPoly):
            return NotImplemented
        return self.c == o.c

    def __float__(self):
        # Evaluate at the exact Fraction value of math.pi so huge
        # coefficient ratios cancel before float conversion.
        return float(sum((v * _PI_HAT ** k for k, v in self.c.items()),
                         F0))

    def __repr__(self):
        # The reduced-fraction form (num)/(1*pi^k), num free of a
        # factor of pi: pinned law digests hash it.
        if not self.c:
            return "(0)"
        shift = max(0, -min(self.c))
        num = " + ".join(_pi_term(v, k + shift)
                         for k, v in sorted(self.c.items()))
        if not shift:
            return "(%s)" % num
        return "(%s)/(%s)" % (num, _pi_term(1, shift))


def _pi_term(v, k):
    if k == 0:
        return str(v)
    if k == 1:
        return "%s*pi" % v
    return "%s*pi^%d" % (v, k)


def _terms(v):
    """(exponent, coefficient) pairs of an exact value."""
    if isinstance(v, PiPoly):
        return v.c.items()
    if isinstance(v, (int, Fraction)):
        return ((0, v),)
    raise TypeError("%r is not an exact value" % (v,))


def simplify_value(v):
    """A PiPoly with no power of pi but pi^0 collapses to its Fraction;
    any other value is returned as it is."""
    if isinstance(v, PiPoly) and not v.c.keys() - {0}:
        return v.c.get(0, F0)
    return v


# ---------------------------------------------------------------------------
# Trigonometric polynomials with integer frequencies


def _parts(v):
    """The (m, e) -> coefficient items of a value: an exact number has
    m = 0 and its powers of pi in e, a float has m = e = 0, and an
    amplitude polynomial is such a dict already."""
    if isinstance(v, dict):
        return v.items()
    if isinstance(v, PiPoly):
        return [((0, k), c) for k, c in v.c.items()]
    return [((0, 0), v)] if v else []


def _put(out, key, c):
    v = out.get(key)
    out[key] = c if v is None else v + c


class TrigPoly:
    """Sums of c t^p trig(w t) a^m pi^e, integer w >= 0, trig cos for
    s = 0 and sin for s = 1 (never at w = 0).

    terms maps the key (p, w, s, m, e) to c, a Fraction, or a float in
    float mode; no c is zero.  m is a monomial of the resonance
    amplitudes a_k with its exponents packed into one int (base r + 1,
    so a product of monomials is one integer add), and e a power of pi.
    Exact numbers have m = 0 and floats m = e = 0, so exact steering,
    float replay and the symbolic period of control_matrix share one
    product-to-sum, one antiderivative and one period integral.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: c for k, c in terms.items() if c}

    def add(self, o):
        out = dict(self.terms)
        for k, c in o.terms.items():
            _put(out, k, c)
        return TrigPoly(out)

    def mul(self, o):
        out = {}
        other = list(o.terms.items())
        for (p1, w1, s1, m1, e1), c1 in self.terms.items():
            h1 = c1 / 2
            for (p2, w2, s2, m2, e2), c2 in other:
                c = h1 * c2
                p, m, e = p1 + p2, m1 + m2, e1 + e2
                if s1 == s2:
                    # cos(a - b) plus cos(a + b), or minus it for two sines
                    _put(out, (p, abs(w1 - w2), 0, m, e), c)
                    _put(out, (p, w1 + w2, 0, m, e), -c if s1 else c)
                    continue
                # sin(a + b) plus sin(sine frequency - cosine frequency)
                _put(out, (p, w1 + w2, 1, m, e), c)
                d = w1 - w2 if s1 else w2 - w1
                if d > 0:
                    _put(out, (p, d, 1, m, e), c)
                elif d < 0:
                    _put(out, (p, -d, 1, m, e), -c)
        return TrigPoly(out)

    def antiderivative(self):
        """Primitive vanishing at t = 0, by parts."""
        out = {}
        for (p, w, s, m, e), c in self.terms.items():
            if w == 0:
                _put(out, (p + 1, 0, 0, m, e), c / (p + 1))
                continue
            while True:
                if s == 0:
                    _put(out, (p, w, 1, m, e), c / w)
                    if p == 0:
                        break
                    c = c * -p / w
                else:
                    c = -c / w
                    _put(out, (p, w, 0, m, e), c)
                    if p == 0:
                        _put(out, (0, 0, 0, m, e), -c)
                        break
                    c = c * -p
                s = 1 - s
                p -= 1
        return TrigPoly(out)

    def __repr__(self):
        return "TrigPoly(%d terms)" % len(self.terms)


def poly_on_trigs(poly, trajs, cache):
    """Evaluate a Poly on TrigPoly arguments; cache keeps the powers
    of the arguments, keyed by (index, exponent)."""

    def power(i, k):
        key = (i, k)
        hit = cache.get(key)
        if hit is None:
            if k == 1:
                hit = trajs[i]
            else:
                hit = power(i, k - 1).mul(trajs[i])
            cache[key] = hit
        return hit

    total = {}
    for expo, coef in poly.terms.items():
        term = None
        for i, a in enumerate(expo):
            if not a:
                continue
            if term is None:
                # the first factor carries the coefficient
                term = TrigPoly({k: coef * c
                                 for k, c in power(i, a).terms.items()})
            else:
                term = term.mul(power(i, a))
        for k, c in (term.terms.items() if term else
                     [((0, 0, 0, 0, 0), coef)]):
            _put(total, k, c)
    return TrigPoly(total)


# ---------------------------------------------------------------------------
# Frequency plans


class SlotPlan:
    """Frequencies for one class element.

    channels[c] lists the unit-amplitude basic frequencies on channel
    c+1; the resonance sinusoid (whose amplitude is solved for) sits on
    resonance_channel at frequency resonance.  carrier, when nonzero,
    is one more unit cosine on the resonance channel, used when that
    channel would otherwise have no basic of its own.
    """

    __slots__ = ("element", "channels", "resonance_channel", "resonance",
                 "carrier")

    def __init__(self, element, channels, resonance_channel, resonance,
                 carrier):
        self.element = element
        self.channels = tuple(tuple(c) for c in channels)
        self.resonance_channel = resonance_channel
        self.resonance = resonance
        self.carrier = carrier

    def to_json(self):
        return {
            "element": self.element,
            "channels": [list(c) for c in self.channels],
            "resonance_channel": self.resonance_channel,
            "resonance": self.resonance,
            "carrier": self.carrier,
        }


class ClassPlan:
    """Frequency and matrix data for one equivalence class.

    The stored matrix A is column equilibrated: slot k's probe column
    is divided by the exact power of two ``gains[k]`` nearest its
    norm, so the determinant threshold measures angular independence
    instead of raw scale.  solve_amps undoes the gains, returning the
    actual resonance amplitudes.
    """

    def __init__(self, class_id, elements, delta, epsilon, slots):
        self.class_id = class_id
        self.elements = tuple(elements)
        self.delta = tuple(delta)
        self.epsilon = epsilon
        self.slots = list(slots)
        self.A = None
        self.B = None
        self.det = None
        self.gains = None

    def solve_amps(self, delta_target):
        if self.B is None:
            raise SpecError("class plan has no control matrix yet",
                            class_id=self.class_id)
        raw = mat_vec(self.B, list(delta_target))
        return [simplify_value(a / g) for g, a in zip(self.gains, raw)]

    def max_frequency(self):
        top = 0
        for slot in self.slots:
            for ch in slot.channels:
                for w in ch:
                    top = max(top, w)
            top = max(top, slot.resonance, slot.carrier)
        return top

    def to_json(self):
        out = {
            "class_id": self.class_id,
            "elements": list(self.elements),
            "delta": list(self.delta),
            "epsilon": self.epsilon,
            "slots": [s.to_json() for s in self.slots],
        }
        if self.A is not None:
            out["A"] = [[float(x) for x in row] for row in self.A]
            out["det"] = float(self.det)
        return out


class FrequencyPlan:
    """Plans for every class of a basis, in steering order."""

    def __init__(self, m, r, classes):
        self.m = m
        self.r = r
        self.classes = list(classes)

    def to_json(self):
        return {"m": self.m, "r": self.r,
                "classes": [c.to_json() for c in self.classes]}


def plan_frequencies(basis, class_id):
    """Assign integer frequencies to the slots of one class.

    The chain rule keeps every new frequency strictly above sum(delta)
    times everything assigned so far, which makes the designated
    per-slot resonances the only vanishing integer combinations
    reachable with the multiplicities any coordinate can produce;
    control_matrix checks the outcome exactly.  The
    channel fill order rotates with the slot position, giving each slot
    of a multi-element class a different magnitude pattern; identical
    patterns make the probe columns nearly parallel.
    """
    cls = basis.classes[class_id]
    delta = basis.element(cls[0]).delta
    m = basis.m
    total = sum(delta)
    if total == 1:
        gen = delta.index(1) + 1
        slot = SlotPlan(cls[0], [()] * m, gen, 0, 0)
        return ClassPlan(class_id, cls, delta, 0, [slot])
    eps = (total - 1) % 2
    vmax = 0

    def fresh():
        nonlocal vmax
        val = total * vmax + 1
        vmax = max(vmax, val)
        return val

    slots = []
    for pos, element in enumerate(cls):
        res_ch = basis.element(element).phi
        counts = [delta[c - 1] - (1 if c == res_ch else 0)
                  for c in range(1, m + 1)]
        channels = [[] for _ in range(m)]
        for step in range(m):
            c = (pos + step) % m
            channels[c] = [fresh() for _ in range(counts[c])]
        resonance = sum(sum(ch) for ch in channels)
        vmax = max(vmax, resonance)
        carrier = fresh() if not channels[res_ch - 1] else 0
        slots.append(SlotPlan(element, channels, res_ch, resonance,
                              carrier))
    return ClassPlan(class_id, cls, delta, eps, slots)


def template_channels(entry, amps):
    """Per-channel term lists (amp, freq, quarter) for one period."""
    m = len(entry.delta)
    channels = [[] for _ in range(m)]
    for slot, amp in zip(entry.slots, amps):
        for c in range(m):
            for w in slot.channels[c]:
                channels[c].append((F1, w, 0))
        channels[slot.resonance_channel - 1].append(
            (amp, slot.resonance, entry.epsilon))
        if slot.carrier:
            channels[slot.resonance_channel - 1].append(
                (F1, slot.carrier, 0))
    return channels


def channel_trigpolys(channels):
    """One TrigPoly per channel: the sum of its terms (amp, w, q), each
    amp cos(w t - q pi / 2)."""
    out = []
    for terms in channels:
        acc = {}
        for amp, w, q in terms:
            s = q % 2
            if s and not w:
                continue
            for (m, e), c in _parts(amp):
                _put(acc, (0, w, s, m, e), -c if q % 4 >= 2 else c)
        out.append(TrigPoly(acc))
    return out


@functools.lru_cache(maxsize=None)
def _moment(p, w, s):
    """Integral of t^p cos(w t) (s = 0) or t^p sin(w t) (s = 1) over
    one period [0, 2 pi], as pairs (k, r) for the sum of r (2 pi)^k.

    It is the antiderivative's value at 2 pi, where every sine vanishes
    and every cosine is one, so its t^k cosine coefficients sum to r.
    Moments are kept, like kernels: each kernel reads two, and kernels
    share most of them (building the (2,5) plan reads 15076 distinct
    moments 41602 times).
    """
    if s and not w:
        return ()
    prim = TrigPoly({(p, w, s, 0, 0): F1}).antiderivative()
    out = {}
    for (k, _, trig, _, _), r in prim.terms.items():
        if trig == 0:
            _put(out, k, r)
    return tuple((k, r) for k, r in out.items() if r)


@functools.lru_cache(maxsize=None)
def _kernel(p, w1, s1, w2, s2):
    """Integral of t^p trig(w1 t) trig(w2 t) over one period, where
    trig is cos for s = 0 and sin for s = 1.

    Returns the exact integral, as pairs (e, c) for the sum of c pi^e,
    and its float value.  TrigPoly.mul's product to sum splits it into
    single-frequency moments.  Kernels are kept: periods read the same
    few hundred over and over.
    """
    prod = TrigPoly({(p, w1, s1, 0, 0): F1}).mul(
        TrigPoly({(0, w2, s2, 0, 0): F1}))
    total = {}
    for (q, w, s, _, _), c in prod.terms.items():
        for k, r in _moment(q, w, s):
            _put(total, k, c * r * 2 ** k)
    exact = PiPoly(total)
    return tuple(exact.c.items()), float(exact)


def period_end(init, f, u, float_mode):
    """init plus the integral of f(t) u(t) over one period [0, 2 pi],
    where u is free of powers of t: each pair of a term of f and a
    term of u reads its integral from _kernel.

    Floats sum by math.fsum.  Otherwise the end value comes back as
    (m, e) -> coefficient, zero coefficients left out; the terms of u
    are grouped by trig(w t), so that f meets each kernel once.
    """
    if float_mode:
        terms = [init]
        us = [(w, s, c) for (_, w, s, _, _), c in u.terms.items()]
        for (p, w1, s1, _, _), c1 in f.terms.items():
            terms.extend(c1 * c2 * _kernel(p, w1, s1, w2, s2)[1]
                         for w2, s2, c2 in us)
        return math.fsum(terms)
    groups = {}
    for (_, w2, s2, m2, e2), c2 in u.terms.items():
        groups.setdefault((w2, s2), []).append((m2, e2, c2))
    total = dict(_parts(init))
    for (w2, s2), us in groups.items():
        inner = {}
        for (p, w1, s1, m1, e1), c1 in f.terms.items():
            for k, r in _kernel(p, w1, s1, w2, s2)[0]:
                _put(inner, (m1, e1 + k), c1 * r)
        for (m1, e1), c1 in inner.items():
            for m2, e2, c2 in us:
                _put(total, (m1 + m2, e1 + e2), c1 * c2)
    return {k: c for k, c in total.items() if c}


def _period(system, us, state, stop, float_mode):
    """End values of coordinates 1..stop after one period of the
    channel TrigPolys us from state, as period_end gives them.

    The canonical dynamics are triangular: coordinate j moves at rate
    f_j(t) u_phi(j)(t), where f_j = P_j of the trajectories before j,
    so no coordinate after stop is needed.  The trajectory of a
    coordinate, the TrigPoly x_j(0) plus the antiderivative of its
    rate, is built only when some monomial reads that coordinate;
    none reads the top-weight ones.
    """
    read = {i for mono in system.monomials[:stop] for expo in mono.terms
            for i, a in enumerate(expo) if a}
    trajs = []
    out = []
    cache = {}
    for j in range(stop):
        f = poly_on_trigs(system.monomials[j], trajs, cache)
        u = us[system.basis.element(j + 1).phi - 1]
        out.append(period_end(state[j], f, u, float_mode))
        traj = None
        if j in read:
            traj = f.mul(u).antiderivative().add(TrigPoly(
                {(0, 0, 0, m, e): c for (m, e), c in _parts(state[j])}))
        trajs.append(traj)
    return out


def propagate_period(system, channels, state, float_mode):
    """State after one 2 pi period of the given controls, exact as
    Laurent polynomials of pi, or in floats when float_mode is set: the
    channel amplitudes and the state are then made floats once, here,
    and every TrigPoly of the period holds floats only.  Each end
    value is x_j(0) plus the integral of its rate over the period, in
    closed form (period_end).
    """
    if float_mode:
        channels = [[(float(a), w, q) for a, w, q in terms]
                    for terms in channels]
        state = [float(v) for v in state]
    end = _period(system, channel_trigpolys(channels), state, system.n,
                  float_mode)
    if float_mode:
        return end
    return [simplify_value(PiPoly({e: c for (_, e), c in v.items()}))
            for v in end]


def control_matrix(system, entry):
    """Fill entry.A, the displacement matrix of one class: column k is
    the net change of the class coordinates per unit of slot k's
    resonance amplitude.  Also fills entry.B, its inverse, and
    entry.det.

    One period runs with the resonance amplitudes a_k as symbols, up to
    the last coordinate read: the last class coordinate, or the last
    coordinate of an earlier class if that comes later.  A is read off
    the monomials a_k of the class coordinates.  From the zero state no
    secular term precedes the designed resonance, so every entry is
    c pi with c rational: A is pi times a rational matrix A0, det(A) is
    pi^q det(A0), and B is the inverse of A0 over Q divided by pi.
    Raises SingularMatrix, with the class_id, when a settled coordinate
    moves, when a class coordinate has a constant term (the basics
    alone displace it), a monomial of degree other than one, or an
    entry that is not c pi, and below DET_THRESHOLD.

    It is the one gate on a plan, and a complete one: the class and
    settled coordinates move at rates that read only strictly shorter
    coordinates, which exact_steer has set to exact zero when the
    class's period starts.  So the zero-state period is their true
    displacement from any start, as a polynomial identity in the a_k.
    exact_steer's SteeringResidual check stays as the run-time guarantee.
    """
    elements = entry.elements
    q = len(entry.slots)
    base = system.r + 1
    unit = {base ** k: k for k in range(q)}
    earlier = [j for j in range(1, system.n + 1)
               if system.basis.class_of[j] < entry.class_id]
    channels = template_channels(entry, [{(base ** k, 0): F1}
                                         for k in range(q)])
    end = _period(system, channel_trigpolys(channels), [F0] * system.n,
                  max(elements + tuple(earlier)), float_mode=False)
    for j in earlier:
        if end[j - 1]:
            raise SingularMatrix(
                "the period of class %d displaces settled coordinate %d"
                % (entry.class_id, j), class_id=entry.class_id)
    cols = [[F0] * q for _ in range(q)]
    for i, j in enumerate(elements):
        for (mono, e), c in end[j - 1].items():
            if mono not in unit:
                raise SingularMatrix(
                    ("coordinate %d of class %d is not linear in the "
                     "resonance amplitudes" if mono else "basics alone "
                     "displace coordinate %d of class %d")
                    % (j, entry.class_id), class_id=entry.class_id)
            if e != 1:
                raise SingularMatrix(
                    "slot %d of class %d moves coordinate %d by a term "
                    "that is not a rational multiple of pi"
                    % (unit[mono], entry.class_id, j),
                    class_id=entry.class_id)
            cols[unit[mono]][i] = c
    gains = []
    for k in range(q):
        norm = math.sqrt(math.fsum(float(x * _PI_HAT) ** 2
                                   for x in cols[k]))
        if norm == 0.0:
            raise SingularMatrix("slot %d displaces nothing" % k,
                                 class_id=entry.class_id)
        gains.append(Fraction(2) ** round(math.log2(norm)))
    a0 = [[cols[k][i] / gains[k] for k in range(q)] for i in range(q)]
    a = [[PiPoly({1: x}) for x in row] for row in a0]
    det = PiPoly({q: det_matrix(a0)})
    det_f = abs(float(det))
    norms = [math.sqrt(math.fsum(float(x) ** 2 for x in row))
             for row in a]
    if any(n == 0.0 for n in norms):
        raise SingularMatrix("zero row in control matrix",
                             class_id=entry.class_id)
    geo = math.exp(math.fsum(math.log(n) for n in norms) / q)
    if not det or det_f < DET_THRESHOLD * geo:
        raise SingularMatrix(
            "control matrix determinant %.3e below threshold %.3e"
            % (det_f, DET_THRESHOLD * geo), class_id=entry.class_id)
    entry.A = a
    entry.B = [[PiPoly({-1: x}) for x in row] for row in invert_matrix(a0)]
    entry.det = det
    entry.gains = gains


def plan_class(system, class_id):
    """The frequency plan of one class, with its control matrix.

    One chain plan per class, gated by control_matrix alone: a plan it
    rejects raises SingularMatrix with the class_id, and is not retried.
    """
    entry = plan_frequencies(system.basis, class_id)
    control_matrix(system, entry)
    return entry


def build_plan(system):
    entries = [plan_class(system, ci)
               for ci in range(len(system.basis.classes))]
    return FrequencyPlan(system.m, system.r, entries)


# ---------------------------------------------------------------------------
# Control laws


class ControlLaw:
    """Concatenated per-period sinusoidal controls.

    Each period holds one term list per channel; a term (amp, w, q)
    contributes amp * cos(w tau - q pi/2) on the period's local time
    tau in [0, 2 pi].  Period k runs on [2 pi k, 2 pi (k + 1)], and the
    law's value is scale times the period value at tau = t mod 2 pi, so
    ``scale`` implements the dilation homogeneity.
    """

    def __init__(self, m, periods, scale=F1, meta=None):
        self.m = m
        self.periods = list(periods)
        self.scale = scale
        self.meta = meta or {}
        self._floats = None

    @property
    def nperiods(self):
        return len(self.periods)

    def float_table(self):
        """(scale, periods) in floats, where periods[k][i] lists channel
        i's terms of period k as (amp, w, q pi / 2).  Built on first use
        and kept: steering alone never converts its exact amplitudes."""
        if self._floats is None:
            self._floats = (
                float(self.scale),
                [[tuple((float(a), w, q * math.pi / 2.0)
                        for a, w, q in terms)
                  for terms in p["channels"]] for p in self.periods])
        return self._floats

    def eval(self, t):
        """Control values at time t, as floats, from the terms of period
        k holding t (clamped) at tau = t - 2 pi k."""
        if not self.periods:
            return [0.0] * self.m
        gain, periods = self.float_table()
        k = min(max(int(t // TWO_PI), 0), len(periods) - 1)
        tau = t - k * TWO_PI
        cos = math.cos
        out = []
        for terms in periods[k]:
            val = 0.0
            for amp, w, phase in terms:
                val += amp * cos(w * tau - phase)
            out.append(gain * val)
        return out

    def to_json(self):
        periods = []
        for p in self.periods:
            periods.append({
                "class_id": p.get("class_id"),
                "elements": list(p.get("elements", ())),
                "channels": [[[float(a), int(w), int(q)]
                              for a, w, q in terms]
                             for terms in p["channels"]],
            })
        out = {
            "m": self.m,
            "scale": float(self.scale),
            "periods": periods,
        }
        if is_exact(self.scale):
            out["scale_exact"] = str(Fraction(self.scale))
        return out

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, blob):
        if isinstance(blob, str):
            blob = json.loads(blob)
        periods = []
        for p in blob["periods"]:
            periods.append({
                "class_id": p.get("class_id"),
                "elements": tuple(p.get("elements", ())),
                "channels": [[(a, int(w), int(q)) for a, w, q in terms]
                             for terms in p["channels"]],
            })
        scale = blob.get("scale", 1.0)
        if "scale_exact" in blob:
            scale = Fraction(blob["scale_exact"])
        return cls(blob["m"], periods, scale)


def exact_steer(x_init, system, plan):
    """Steer the canonical system from x_init to the origin by plan.

    Returns a ControlLaw on [0, 2 pi N].  The propagation always runs
    as Laurent polynomials of pi, so the canonical endpoint is exactly
    zero: float coordinates are dyadic rationals already, and when the
    pseudo-norm of the state has no exact root the normalisation scale
    is rounded to a nearby dyadic (the scale only conditions the
    amplitude magnitudes, so exactness of the root is not needed).
    A start of the wrong dimension or not finite raises SpecError.
    """
    if len(x_init) != system.n:
        raise SpecError("state has dimension %d, expected %d"
                        % (len(x_init), system.n))
    weights = system.weights
    try:
        x = [Fraction(v) for v in x_init]
    except (ValueError, OverflowError):
        raise SpecError("non-finite start %r" % (list(x_init),),
                        x_init=list(x_init))
    lam = pseudo_norm(x, weights)
    if lam == 0:
        return ControlLaw(system.m, [], F1,
                          meta={"z_init": [F0] * system.n})
    if not is_exact(lam):
        lam = Fraction(float(lam))
    state = dilate(x, F1 / lam, weights)
    z_init = list(state)
    periods = []
    done = []
    for entry in plan.classes:
        target = [-(state[j - 1]) for j in entry.elements]
        amps = entry.solve_amps(target)
        channels = template_channels(entry, amps)
        state = propagate_period(system, channels, state,
                                 float_mode=False)
        for j in entry.elements + tuple(done):
            if state[j - 1]:
                raise SteeringResidual(
                    "class %d left coordinate %d off zero"
                    % (entry.class_id, j),
                    class_id=entry.class_id, coordinate=j)
            state[j - 1] = F0
        done.extend(entry.elements)
        periods.append({
            "class_id": entry.class_id,
            "elements": entry.elements,
            "channels": channels,
            "amps": amps,
        })
    return ControlLaw(system.m, periods, lam,
                      meta={"z_init": z_init})


def concatenate(laws, m):
    """Join laws of m channels end to end.

    Every law's scale is folded into its amplitudes, so the joined law
    has scale 1; a law with another channel count raises SpecError.
    An empty join is the empty law.
    """
    if any(law.m != m for law in laws):
        raise SpecError("laws disagree on the number of channels")
    periods = []
    for law in laws:
        for p in law.periods:
            channels = [[(a * law.scale, w, q) for a, w, q in terms]
                        for terms in p["channels"]]
            periods.append(dict(p, channels=channels))
    return ControlLaw(m, periods)
