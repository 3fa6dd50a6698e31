"""Exact sinusoidal steering of the canonical nilpotent system.

The classes of the basis (grouped by generator content) are steered
one per 2 pi period.  Within a period every class element gets a block
of unit-amplitude cosines at integer frequencies plus one resonance
sinusoid whose amplitude is solved for.  Each class has one frequency
plan, built by a chain rule meant to make the designated combination
the only integer one hitting zero, so that the net displacement of the
class coordinates is linear in the resonance amplitudes.

Every period runs through one period map.  The channel signature of a
period lists each channel's terms as (w, q), for amp cos(w t - q pi/2),
and the map of a signature on canonical (m, r) is the end state of one
period as a sparse polynomial in every term's amplitude and in the
start values of the coordinates some monomial reads, with exact Laurent
polynomials of pi (PiPoly) as coefficients.  It is complete: the
dynamics are triangular, so a coordinate's rate reads only those start
values, and every other start value only adds to its own coordinate.
One symbolic period builds it, and it is kept at module level, keyed
on (m, r, signature), like the integral tables: a plan's classes, the
laws steered by the plan and their float replays share one map per
class.  control_matrix, the one gate on a plan, reads the class's
linear map off it with the basics set to 1 and the start to 0; a plan
that moves a settled coordinate, whose displacement is not linear in
the amplitudes, or whose control matrix is too close to singular
raises SingularMatrix.  exact_steer evaluates it exactly, and a float
replay of a law evaluates it in floats (propagate_period).

The symbolic period is integrated in closed form on one
representation.  A TrigPoly is a sum of terms c t^p trig(w t) a^m pi^e
with rational c, integer frequencies w, a monomial m of the map's
variables and a power e of pi.  A coordinate's displacement over a
period is the integral of its rate, a sum of terms t^p trig(w1 t) times
control terms trig(w2 t); each such pair integrates to a rational
combination of powers of 2 pi, read from a kept table.  Trajectories
are built only for the coordinates that some rate reads.  Exact values
never meet floats (adding a float to a PiPoly raises TypeError): a
float replay converts the amplitudes and the state once, and the map's
coefficients once per map.

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
_PI_NUM, _PI_DEN = _PI_HAT.numerator, _PI_HAT.denominator
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
        # The exact value at the Fraction value of math.pi, so huge
        # coefficient ratios cancel before rounding, as one quotient of
        # ints: int division rounds correctly, as float(Fraction) does,
        # and needs no gcd on the way.
        num, den = 0, 1
        for k, v in self.c.items():
            up, down = (_PI_NUM, _PI_DEN) if k >= 0 else (_PI_DEN, _PI_NUM)
            n = v.numerator * up ** abs(k)
            d = v.denominator * down ** abs(k)
            num, den = num * d + n * den, den * d
        return num / den

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
    """The (m, e) -> coefficient items of an exact value: a number has
    m = 0 and its powers of pi in e, and a polynomial in a period map's
    variables is such a dict already."""
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

    terms maps the key (p, w, s, m, e) to c, a nonzero Fraction.  m is
    a monomial of a period map's variables with its exponents packed
    into one int (base r + 1, so a product of monomials is one integer
    add), and e a power of pi; exact numbers have m = 0.
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
    total = {}
    for expo, coef in poly.terms.items():
        for k, c in monomial_on_trigs(expo, coef, trajs, cache).terms.items():
            _put(total, k, c)
    return TrigPoly(total)


def monomial_on_trigs(expo, coef, trajs, cache):
    """coef times the product of trajs[i]^expo[i], as poly_on_trigs
    keeps the powers."""
    term = None
    for i, a in enumerate(expo):
        if not a:
            continue
        factor = _kept_power(trajs, cache, i, a, TrigPoly.mul)
        if term is None:
            # the first factor carries the coefficient
            term = TrigPoly({k: coef * c for k, c in factor.terms.items()})
        else:
            term = term.mul(factor)
    return TrigPoly({(0, 0, 0, 0, 0): coef}) if term is None else term


def _kept_power(xs, cache, i, k, mul):
    """xs[i] to the power k under mul, kept in cache by (i, k)."""
    hit = cache.get((i, k))
    if hit is None:
        hit = xs[i] if k == 1 else mul(
            _kept_power(xs, cache, i, k - 1, mul), xs[i])
        cache[i, k] = hit
    return hit


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
    one period [0, T], T = 2 pi, as pairs (k, r) for the sum of r T^k.

    By parts, with sin(w T) = 0 and cos(w T) = 1 for w > 0: the cosine
    moment is -p/w times the sine moment of p - 1, and the sine moment
    is -T^p/w plus p/w times the cosine moment of p - 1 (0 at p = 0).
    Moments are kept, like kernels: each kernel reads two, and kernels
    share most of them.
    """
    if not w:
        return () if s else ((p + 1, Fraction(1, p + 1)),)
    if not p:
        return ()
    lower = _moment(p - 1, w, 1 - s)
    if not s:
        return tuple((k, -p * r / w) for k, r in lower)
    return ((p, Fraction(-1, w)),) + tuple((k, p * r / w)
                                           for k, r in lower)


@functools.lru_cache(maxsize=None)
def _kernel(p, w1, s1, w2, s2):
    """Integral of t^p trig(w1 t) trig(w2 t) over one period, where
    trig is cos for s = 0 and sin for s = 1, as pairs (e, c) for the
    sum of c pi^e.  The product to sum splits it into the moments at
    w1 + w2 and |w1 - w2|.  Kernels are kept: a period reads the same
    few hundred over and over.
    """
    if s1 == s2:
        # cos(a - b) plus cos(a + b), or minus it for two sines
        parts = ((abs(w1 - w2), 0, 1), (w1 + w2, 0, -1 if s1 else 1))
    else:
        # sin(a + b) plus sin(sine frequency - cosine frequency)
        d = w1 - w2 if s1 else w2 - w1
        parts = ((w1 + w2, 1, 1), (abs(d), 1, 1 if d >= 0 else -1))
    total = {}
    for w, s, sign in parts:
        for k, r in _moment(p, w, s):
            _put(total, k, sign * r * 2 ** k / 2)
    return tuple((e, c) for e, c in total.items() if c)


def period_integral(f, u):
    """The integral of f(t) u(t) over one period [0, 2 pi], as (m, e)
    -> coefficient, zero coefficients left out.  Each pair of a term
    of f and a term of u reads its integral from _kernel, which needs
    only their summed power of t; the terms of u are grouped by
    t^p trig(w t), so that f meets each kernel once.  Without a power
    of t, a term of f meets only its own trig(w t): distinct trigs are
    orthogonal over the period.
    """
    groups = {}
    for (p2, w2, s2, m2, e2), c2 in u.terms.items():
        groups.setdefault((p2, w2, s2), []).append((m2, e2, c2))
    secular = [g for g in groups if g[0]]
    inner = {g: {} for g in groups}
    for (p1, w1, s1, m1, e1), c1 in f.terms.items():
        own = (0, w1, s1)
        meets = groups if p1 else secular + [own] if own in groups \
            else secular
        for g in meets:
            p2, w2, s2 = g
            acc = inner[g]
            for k, r in _kernel(p1 + p2, w1, s1, w2, s2):
                _put(acc, (m1, e1 + k), c1 * r)
    total = {}
    for g, us in groups.items():
        for (m1, e1), c1 in inner[g].items():
            for m2, e2, c2 in us:
                _put(total, (m1 + m2, e1 + e2), c1 * c2)
    return {k: c for k, c in total.items() if c}


def rate_integral(poly, trajs, cache, u):
    """period_integral of poly_on_trigs(poly, trajs, cache) times u,
    with each monomial's last factor multiplied onto u rather than onto
    the others: the product of the others then meets, term by term,
    only the few trigs of that product that it does not integrate to
    zero against."""
    total = {}
    for expo, coef in poly.terms.items():
        rest = list(expo)
        last = max((i for i, a in enumerate(expo) if a), default=None)
        if last is None:
            part = period_integral(TrigPoly({(0, 0, 0, 0, 0): coef}), u)
        else:
            rest[last] -= 1
            part = period_integral(
                monomial_on_trigs(rest, coef, trajs, cache),
                trajs[last].mul(u))
        for k, c in part.items():
            _put(total, k, c)
    return {k: c for k, c in total.items() if c}


def _reads(system):
    """The coordinates (0-based) that some monomial reads."""
    return sorted({i for mono in system.monomials for expo in mono.terms
                   for i, a in enumerate(expo) if a})


def _period(system, us, state, read):
    """Displacements of every coordinate over one period of the channel
    TrigPolys us from state, as period_integral gives them.

    The canonical dynamics are triangular: coordinate j moves at rate
    f_j(t) u_phi(j)(t), where f_j = P_j of the trajectories before j.
    The trajectory of a coordinate, the TrigPoly x_j(0) plus the
    antiderivative of its rate, is built only for the coordinates in
    read, those some monomial reads (_reads), so only their start
    values enter; the others, the top-weight ones among them, need
    their displacement alone (rate_integral).
    """
    trajs = []
    out = []
    cache = {}
    for j in range(system.n):
        u = us[system.basis.element(j + 1).phi - 1]
        traj = None
        if j in read:
            traj = TrigPoly({(0, 0, 0, m, e): c
                             for (m, e), c in _parts(state[j])})
        if not u.terms:
            # a silent channel moves its coordinates not at all
            out.append({})
        elif traj is None:
            out.append(rate_integral(system.monomials[j], trajs, cache, u))
        else:
            f = poly_on_trigs(system.monomials[j], trajs, cache)
            out.append(period_integral(f, u))
            traj = traj.add(f.mul(u).antiderivative())
        trajs.append(traj)
    return out


# ---------------------------------------------------------------------------
# Period maps


class PeriodMap:
    """One period of a channel signature on the canonical system, as a
    polynomial map from its variables to the displacement of every
    coordinate.

    The signature lists each channel's terms as (w, q), for amp
    cos(w t - q pi / 2).  The variables are the amplitude of every
    channel term, in channel order, then the start value of every
    coordinate in reads, the coordinates some monomial reads.  disp[j]
    lists coordinate j's displacement as pairs (powers, coef): powers
    is a tuple of (variable, exponent) pairs and coef a dict e -> c,
    the Laurent polynomial of pi, the sum of c pi^e, that the monomial
    carries.  The map is complete: the rates read only the start values
    of reads, and every other start value enters its own coordinate
    alone, as the constant of its trajectory, so the end state of any
    amplitudes from any start is the start plus disp.
    """

    __slots__ = ("reads", "disp", "_floats")

    def __init__(self, system, signature):
        # One symbolic period: variable v is the monomial base^v, as in
        # TrigPoly keys, and no exponent reaches base, since a
        # coordinate's rate has total weight at most r.
        base = system.r + 1
        channels = []
        nvars = 0
        for terms in signature:
            channels.append([({(base ** (nvars + i), 0): F1}, w, q)
                             for i, (w, q) in enumerate(terms)])
            nvars += len(terms)
        self.reads = _reads(system)
        state = [F0] * system.n
        for i, j in enumerate(self.reads):
            state[j] = {(base ** (nvars + i), 0): F1}
        self.disp = [_unpack(d, base) for d in _period(
            system, channel_trigpolys(channels), state, set(self.reads))]
        self._floats = None

    def end_state(self, amps, state):
        """The exact end state from exact amplitudes and state, as
        dicts e -> c for the sum of c pi^e."""
        # A zero variable drops its terms and a unit one drops out of
        # them: the basics are 1, and most start values of exact
        # steering are 0.
        vals = [None if not v else True if type(v) is Fraction and v == 1
                else dict(_terms(v))
                for v in amps + [state[j] for j in self.reads]]
        powers = {}
        out = []
        for x, terms in zip(state, self.disp):
            total = dict(_terms(x))
            for mono, acc in terms:
                for v, k in mono:
                    val = vals[v]
                    if val is None:
                        break
                    if val is not True:
                        acc = _product(acc, _kept_power(vals, powers, v, k,
                                                        _product))
                else:
                    for e, c in acc.items():
                        _put(total, e, c)
            out.append(total)
        return out

    def float_end_state(self, amps, state):
        """The end state from float amplitudes and state, each moved
        coordinate summed by math.fsum on the map's coefficients,
        rounded once, on first use, from their exact values."""
        if self._floats is None:
            self._floats = [(j, [(mono, float(PiPoly(coef)))
                                 for mono, coef in terms])
                            for j, terms in enumerate(self.disp) if terms]
        vals = amps + [state[j] for j in self.reads]
        out = list(state)
        for j, terms in self._floats:
            parts = [state[j]]
            for mono, c in terms:
                for v, k in mono:
                    c *= vals[v] if k == 1 else vals[v] ** k
                parts.append(c)
            # one addition rounds as fsum does
            out[j] = math.fsum(parts) if len(parts) > 2 \
                else parts[0] + parts[1]
        return out


def _unpack(disp, base):
    """The (powers, coef) pairs of a displacement (m, e) -> c whose
    monomials m pack variable v's exponent in digit v of base."""
    coefs = {}
    for (m, e), c in disp.items():
        coefs.setdefault(m, {})[e] = c
    out = []
    for m, coef in coefs.items():
        mono = []
        v = 0
        while m:
            m, k = divmod(m, base)
            if k:
                mono.append((v, k))
            v += 1
        out.append((tuple(mono), coef))
    return out


def _product(a, b):
    """The product of two Laurent polynomials of pi, dicts e -> c."""
    out = {}
    items = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in items:
            _put(out, e1 + e2, c1 * c2)
    return out


# The period map of each (m, r, signature), built on first use and
# kept, like _kernel and _moment: a plan's classes, every period of
# every law steered by it and every float replay of those laws share
# one map per class.
_MAPS = {}


def period_map(system, channels):
    """The PeriodMap of the signature of channels, lists of terms
    (amp, w, q), on the canonical system."""
    signature = tuple(tuple((w, q) for _, w, q in terms)
                      for terms in channels)
    key = (system.m, system.r, signature)
    pmap = _MAPS.get(key)
    if pmap is None:
        pmap = _MAPS[key] = PeriodMap(system, signature)
    return pmap


def propagate_period(system, channels, state, float_mode):
    """State after one 2 pi period of the given controls.

    The period map of the channels' signature, kept by (m, r,
    signature), is evaluated at the channels' amplitudes and the
    state: exactly, as Laurent polynomials of pi, or in floats when
    float_mode is set, when the amplitudes and the state are made
    floats once, here.  The map is complete (PeriodMap), so it holds
    for any amplitudes from any start, and exact steering, the plan
    gate and a law's float replay all run the same polynomial, the
    replay at float rounding only.
    """
    pmap = period_map(system, channels)
    amps = [a for terms in channels for a, _, _ in terms]
    if float_mode:
        return pmap.float_end_state([float(a) for a in amps],
                                    [float(v) for v in state])
    return [simplify_value(PiPoly(v)) for v in pmap.end_state(amps, state)]


def control_matrix(system, entry):
    """Fill entry.A, the displacement matrix of one class: column k is
    the net change of the class coordinates per unit of slot k's
    resonance amplitude.  Also fills entry.B, its inverse, and
    entry.det.

    A is read off the class's period map, with the basics set to 1,
    the start to 0 and the resonance amplitudes a_k kept as symbols:
    the monomials a_k of the class coordinates.  The map covers every
    coordinate, so the check no longer stops at the last coordinate
    it reads.  From the zero state no secular term precedes the
    designed resonance, so every entry is c pi with c rational: A is
    pi times a rational matrix A0, det(A) is pi^q det(A0), and B is
    the inverse of A0 over Q divided by pi.  Raises SingularMatrix,
    with the class_id, when a settled coordinate moves, when a class
    coordinate has a constant term (the basics alone displace it), a
    monomial of degree other than one, or an entry that is not c pi,
    and below DET_THRESHOLD.

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
    # a_k enters as the int base^k, its monomial as TrigPoly keys pack
    # it; a basic is the Fraction 1, and its monomial is 0
    channels = template_channels(entry, [base ** k for k in range(q)])
    monos = [a if type(a) is int else 0
             for terms in channels for a, _, _ in terms]
    pmap = period_map(system, channels)
    end = {}
    for j in earlier + list(elements):
        out = {}
        for mono, coef in pmap.disp[j - 1]:
            key = 0
            for v, k in mono:
                if v >= len(monos):
                    break  # a start value, 0 in the zero state
                key += k * monos[v]
            else:
                for e, c in coef.items():
                    _put(out, (key, e), c)
        end[j] = {k: c for k, c in out.items() if c}
    for j in earlier:
        if end[j]:
            raise SingularMatrix(
                "the period of class %d displaces settled coordinate %d"
                % (entry.class_id, j), class_id=entry.class_id)
    cols = [[F0] * q for _ in range(q)]
    for i, j in enumerate(elements):
        for (mono, e), c in end[j].items():
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
        norm = math.sqrt(math.fsum(float(PiPoly({1: x})) ** 2
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
    # most classes hold one slot, whose inverse is a reciprocal
    inv = [[F1 / a0[0][0]]] if q == 1 else invert_matrix(a0)
    entry.B = [[PiPoly({-1: x}) for x in row] for row in inv]
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
