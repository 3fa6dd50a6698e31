"""Exact sinusoidal steering of the canonical nilpotent system.

The classes of the basis (grouped by generator content) are steered
one per 2 pi period.  Within a period every class element gets a block
of unit-amplitude cosines at carefully spaced integer frequencies plus
one resonance sinusoid whose amplitude is solved for; the frequency
spacing guarantees that the only integer combination hitting zero is
the designated one, so the net displacement of the class coordinates
is exactly linear in the resonance amplitudes.

Everything is integrated in closed form.  Controls are trigonometric
polynomials with integer frequencies, so every state value at a period
boundary lies in the field of rational functions of pi, which PiPoly
and PiFrac implement.  A coordinate's value at the end of a period is
its start plus the integral of its rate over the period.  The rate is
a sum of terms t^p trig(w1 t) times control terms trig(w2 t), and each
such pair integrates to a rational combination of powers of 2 pi, read
from a kept table.  Trajectories, as TrigPoly, are built only for the
coordinates that some rate reads.  In float mode the same sums run in
floating point, for the float replay of a law.

Laws are joined end to end by one routine, concatenate, which folds
every law's scale into its amplitudes.
"""

import functools
import itertools
import json
import math
from fractions import Fraction

from .errors import (SearchBudgetExhausted, SingularMatrix, SpecError,
                     SteeringResidual)
from .poly import det_matrix, invert_matrix, is_exact, mat_vec
from .privcoord import dilate, pseudo_norm

F0 = Fraction(0)
F1 = Fraction(1)
HALF = Fraction(1, 2)
_PI_HAT = Fraction(math.pi)
# Length of one period of a law, in float time.
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Rational functions of pi


class PiPoly:
    """Polynomial in pi with rational coefficients."""

    __slots__ = ("c", "_hash")

    def __init__(self, c=None):
        self.c = {}
        self._hash = None
        if c:
            for d, v in c.items():
                if v != 0:
                    self.c[d] = Fraction(v)

    @classmethod
    def const(cls, q):
        return cls({0: Fraction(q)})

    def is_zero(self):
        return not self.c

    def degree(self):
        return max(self.c) if self.c else -1

    def lead(self):
        return self.c[self.degree()]

    def add(self, o):
        out = dict(self.c)
        for d, v in o.c.items():
            nv = out.get(d, F0) + v
            if nv == 0:
                out.pop(d, None)
            else:
                out[d] = nv
        return PiPoly(out)

    def neg(self):
        return PiPoly({d: -v for d, v in self.c.items()})

    def mul(self, o):
        out = {}
        for d1, v1 in self.c.items():
            for d2, v2 in o.c.items():
                d = d1 + d2
                nv = out.get(d, F0) + v1 * v2
                if nv == 0:
                    out.pop(d, None)
                else:
                    out[d] = nv
        return PiPoly(out)

    def scale(self, q):
        return PiPoly({d: v * q for d, v in self.c.items()})

    def __eq__(self, o):
        return isinstance(o, PiPoly) and self.c == o.c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.c.items()))
        return self._hash

    def eval_fraction(self, x):
        total = F0
        for d, v in self.c.items():
            total += v * x ** d
        return total

    def __float__(self):
        # Evaluate at the exact Fraction value of math.pi so huge
        # coefficient ratios cancel before float conversion.
        return float(self.eval_fraction(_PI_HAT))

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for d in sorted(self.c):
            v = self.c[d]
            if d == 0:
                bits.append(str(v))
            elif d == 1:
                bits.append("%s*pi" % v)
            else:
                bits.append("%s*pi^%d" % (v, d))
        return " + ".join(bits)


def _pp_divmod(a, b):
    q = {}
    r = dict(a.c)
    db = b.degree()
    lb = b.lead()
    while r and max(r) >= db:
        d = max(r)
        qd = d - db
        qc = r[d] / lb
        q[qd] = q.get(qd, F0) + qc
        for bd, bc in b.c.items():
            nd = bd + qd
            nv = r.get(nd, F0) - qc * bc
            if nv == 0:
                r.pop(nd, None)
            else:
                r[nd] = nv
    return PiPoly(q), PiPoly(r)


def _pp_primitive(p):
    """Scale to coprime integer coefficients (primitive part)."""
    num_gcd = 0
    den_lcm = 1
    for v in p.c.values():
        num_gcd = math.gcd(num_gcd, v.numerator)
        den_lcm = den_lcm * v.denominator // math.gcd(
            den_lcm, v.denominator)
    if num_gcd == 0:
        return p
    return p.scale(Fraction(den_lcm, num_gcd))


def _pp_gcd(a, b):
    # primitive remainder sequence keeps coefficient growth tame
    a = _pp_primitive(a)
    b = _pp_primitive(b)
    while not b.is_zero():
        _, r = _pp_divmod(a, b)
        if not r.is_zero():
            r = _pp_primitive(r)
        a, b = b, r
    if a.is_zero():
        return PiPoly.const(1)
    return a.scale(F1 / a.lead())


def _as_pipoly(x):
    if isinstance(x, PiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return PiPoly.const(x)
    raise TypeError("cannot lift %r into a pi-polynomial" % (x,))


_PP_ONE = PiPoly.const(1)


class PiFrac:
    """Element of the field of rational functions of pi.

    Arithmetic is lazy: results are not reduced to lowest terms, so
    the hot propagation loops never run polynomial gcds.  Equality
    cross-multiplies and zero tests look only at the numerator, both
    of which are exact on unreduced values; reduced() gives the
    canonical coprime monic-denominator form when it is worth having.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        num = _as_pipoly(num)
        den = _PP_ONE if den is None else _as_pipoly(den)
        if den.is_zero():
            raise ZeroDivisionError("pi-fraction with zero denominator")
        if num.is_zero():
            den = _PP_ONE
        elif reduce and (den.degree() > 0 or den.lead() != 1):
            g = _pp_gcd(num, den)
            if g.degree() > 0:
                num, _ = _pp_divmod(num, g)
                den, _ = _pp_divmod(den, g)
            lc = den.lead()
            if lc != 1:
                num = num.scale(F1 / lc)
                den = den.scale(F1 / lc)
        self.num = num
        self.den = den

    @classmethod
    def lift(cls, x):
        if isinstance(x, PiFrac):
            return x
        return cls(_as_pipoly(x), None, reduce=False)

    def reduced(self):
        return PiFrac(self.num, self.den)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, o):
        if isinstance(o, float):
            return float(self) + o
        if isinstance(o, (int, Fraction)):
            if o == 0:
                return self
            return PiFrac(self.num.add(self.den.scale(Fraction(o))),
                          self.den, reduce=False)
        if isinstance(o, PiPoly):
            o = PiFrac.lift(o)
        if not isinstance(o, PiFrac):
            return NotImplemented
        if self.den == o.den:
            return PiFrac(self.num.add(o.num), self.den, reduce=False)
        return PiFrac(self.num.mul(o.den).add(o.num.mul(self.den)),
                      self.den.mul(o.den), reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return PiFrac(self.num.neg(), self.den, reduce=False)

    def __sub__(self, o):
        if isinstance(o, float):
            return float(self) - o
        if isinstance(o, (int, Fraction)):
            return self.__add__(-o)
        if isinstance(o, PiPoly):
            o = PiFrac.lift(o)
        if not isinstance(o, PiFrac):
            return NotImplemented
        return self.__add__(o.__neg__())

    def __rsub__(self, o):
        if isinstance(o, float):
            return o - float(self)
        return self.__neg__().__add__(o)

    def __mul__(self, o):
        if isinstance(o, float):
            return float(self) * o
        if isinstance(o, (int, Fraction)):
            if o == 0:
                return PiFrac(PiPoly(), None, reduce=False)
            return PiFrac(self.num.scale(Fraction(o)), self.den,
                          reduce=False)
        if isinstance(o, PiPoly):
            o = PiFrac.lift(o)
        if not isinstance(o, PiFrac):
            return NotImplemented
        return PiFrac(self.num.mul(o.num), self.den.mul(o.den),
                      reduce=False)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, float):
            return float(self) / o
        if isinstance(o, (int, Fraction)):
            return PiFrac(self.num.scale(F1 / Fraction(o)), self.den,
                          reduce=False)
        if isinstance(o, PiPoly):
            o = PiFrac.lift(o)
        if not isinstance(o, PiFrac):
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero pi-fraction")
        return PiFrac(self.num.mul(o.den), self.den.mul(o.num),
                      reduce=False)

    def __rtruediv__(self, o):
        if isinstance(o, float):
            return o / float(self)
        return PiFrac.lift(o).__truediv__(self)

    def __eq__(self, o):
        if isinstance(o, float):
            return float(self) == o
        if isinstance(o, (int, Fraction, PiPoly)):
            o = PiFrac.lift(o)
        if not isinstance(o, PiFrac):
            return NotImplemented
        if self.den == o.den:
            return self.num == o.num
        return self.num.mul(o.den) == o.num.mul(self.den)

    def __float__(self):
        den = self.den.eval_fraction(_PI_HAT)
        if den == 0:
            return float(self.num) / 0.0
        return float(self.num.eval_fraction(_PI_HAT) / den)

    def __abs__(self):
        return abs(float(self))

    def __repr__(self):
        r = self.reduced()
        if r.den == _PP_ONE:
            return "(%s)" % repr(r.num)
        return "(%s)/(%s)" % (repr(r.num), repr(r.den))


def simplify_value(v):
    """Canonicalise a PiFrac; one that is actually rational collapses
    back to Fraction."""
    if isinstance(v, PiFrac):
        v = v.reduced()
        if v.den == _PP_ONE and v.num.degree() <= 0:
            return v.num.c.get(0, F0)
    return v


# ---------------------------------------------------------------------------
# Trigonometric polynomials with integer frequencies


def _acc(out, p, w, s, c):
    if not c:
        return
    key = (p, w, s)
    cur = out.get(key)
    nv = c if cur is None else cur + c
    if not nv:
        out.pop(key, None)
    else:
        out[key] = nv


def _acc_cos(out, p, w, c):
    _acc(out, p, abs(w), 0, c)


def _acc_sin(out, p, w, c):
    if w == 0:
        return
    if w < 0:
        _acc(out, p, -w, 1, -c)
    else:
        _acc(out, p, w, 1, c)


def _exact_sum(terms):
    """Exact sum of c * k over (c, k) pairs, c exact and k a PiPoly,
    as an unreduced PiFrac (or zero).

    Numerators are grouped by denominator before any division, so
    unreduced adds do not pile up denominator degree.
    """
    groups = {}
    for c, k in terms:
        if k.is_zero():
            continue
        if isinstance(c, PiFrac):
            num, den = c.num.mul(k), c.den
        else:
            num, den = k.scale(c), _PP_ONE
        cur = groups.get(den)
        groups[den] = num if cur is None else cur.add(num)
    total = F0
    for den, num in groups.items():
        total = PiFrac(num, den, reduce=False) + total
    return total


class TrigPoly:
    """Sums of t^p cos(w t) and t^p sin(w t), integer w >= 0.

    Closed under products (by product-to-sum) and antiderivatives (by
    parts), which is all the per-period propagation needs.  Values at
    multiples of 2 pi are exact because every sine vanishes and every
    cosine is one there.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (p, w, s), c in terms.items():
                _acc(self.terms, p, w, s, c)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(0, 0, 0): c})

    @classmethod
    def sinusoid(cls, amp, w, quarter):
        """amp * cos(w t - quarter * pi / 2)."""
        q = quarter % 4
        out = {}
        if q == 0:
            _acc_cos(out, 0, w, amp)
        elif q == 1:
            _acc_sin(out, 0, w, amp)
        elif q == 2:
            _acc_cos(out, 0, w, -amp)
        else:
            _acc_sin(out, 0, w, -amp)
        return cls(out)

    def is_zero(self):
        return not self.terms

    def add(self, o):
        out = dict(self.terms)
        for (p, w, s), c in o.terms.items():
            _acc(out, p, w, s, c)
        return TrigPoly(out)

    def mul(self, o):
        out = {}
        for (p1, w1, s1), c1 in self.terms.items():
            for (p2, w2, s2), c2 in o.terms.items():
                p = p1 + p2
                c = c1 * c2 * HALF
                if s1 == 0 and s2 == 0:
                    _acc_cos(out, p, w1 - w2, c)
                    _acc_cos(out, p, w1 + w2, c)
                elif s1 == 1 and s2 == 1:
                    _acc_cos(out, p, w1 - w2, c)
                    _acc_cos(out, p, w1 + w2, -c)
                elif s1 == 1:
                    _acc_sin(out, p, w1 + w2, c)
                    _acc_sin(out, p, w1 - w2, c)
                else:
                    _acc_sin(out, p, w1 + w2, c)
                    _acc_sin(out, p, w2 - w1, c)
        return TrigPoly(out)

    def antiderivative(self):
        """Primitive vanishing at t = 0."""
        out = {}
        for (p, w, s), c in self.terms.items():
            if w == 0:
                _acc(out, p + 1, 0, 0, c * Fraction(1, p + 1))
                continue
            pp, cc, ss = p, c, s
            while True:
                if ss == 0:
                    _acc_sin(out, pp, w, cc * Fraction(1, w))
                    if pp == 0:
                        break
                    cc = cc * Fraction(-pp, w)
                    ss = 1
                    pp -= 1
                else:
                    _acc_cos(out, pp, w, cc * Fraction(-1, w))
                    if pp == 0:
                        break
                    cc = cc * Fraction(pp, w)
                    ss = 0
                    pp -= 1
        prim = TrigPoly(out)
        v0 = prim.value_zero()
        if v0:
            prim = prim.add(TrigPoly.const(-v0))
        return prim

    def value_zero(self):
        vals = [c for (p, w, s), c in self.terms.items()
                if p == 0 and s == 0]
        if any(isinstance(c, float) for c in vals):
            return math.fsum(float(c) for c in vals)
        return simplify_value(_exact_sum((c, _PP_ONE) for c in vals))

    def __repr__(self):
        return "TrigPoly(%d terms)" % len(self.terms)


def poly_on_trigs(poly, trajs, cache=None):
    """Evaluate a Poly on TrigPoly arguments."""
    if cache is None:
        cache = {}

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

    total = TrigPoly.zero()
    for expo, coef in poly.terms.items():
        term = TrigPoly.const(coef)
        for i, a in enumerate(expo):
            if a:
                term = term.mul(power(i, a))
        total = total.add(term)
    return total


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
                 carrier=0):
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

    def __init__(self, class_id, elements, delta, epsilon, slots,
                 spacing):
        self.class_id = class_id
        self.elements = tuple(elements)
        self.delta = tuple(delta)
        self.epsilon = epsilon
        self.slots = list(slots)
        self.spacing = spacing
        self.A = None
        self.B = None
        self.det = None
        self.gains = None

    @property
    def is_generator(self):
        return self.delta and sum(self.delta) == 1

    def solve_amps(self, delta_target):
        if self.B is None:
            raise SpecError("class plan has no control matrix yet",
                            class_id=self.class_id)
        raw = mat_vec(self.B, list(delta_target))
        out = []
        for g, a in zip(self.gains, raw):
            a = a / g
            if isinstance(a, PiFrac):
                a = simplify_value(a)
            out.append(a)
        return out

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
            "spacing": self.spacing,
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


def plan_frequencies(basis, class_id, spacing=1, rotation=0):
    """Assign integer frequencies to the slots of one class.

    The chain rule keeps every new frequency strictly above sum(delta)
    times everything assigned so far (scaled by ``spacing``), which
    makes the designated per-slot resonances the only vanishing integer
    combinations reachable with the multiplicities any coordinate can
    produce; verify_nonresonance double-checks that combinatorially.
    The channel fill order rotates with the slot position (plus
    ``rotation``), giving each slot of a multi-element class a
    different magnitude pattern; identical patterns make the probe
    columns nearly parallel.
    """
    cls = basis.classes[class_id]
    delta = basis.element(cls[0]).delta
    m = basis.m
    total = sum(delta)
    if total == 1:
        gen = delta.index(1) + 1
        slot = SlotPlan(cls[0], [()] * m, gen, 0, 0)
        return ClassPlan(class_id, cls, delta, 0, [slot], spacing)
    eps = (total - 1) % 2
    vmax = 0

    def fresh():
        nonlocal vmax
        val = spacing * total * vmax + 1
        vmax = max(vmax, val)
        return val

    slots = []
    for pos, element in enumerate(cls):
        res_ch = basis.element(element).phi
        counts = [delta[c - 1] - (1 if c == res_ch else 0)
                  for c in range(1, m + 1)]
        channels = [[] for _ in range(m)]
        for step in range(m):
            c = (pos + rotation + step) % m
            channels[c] = [fresh() for _ in range(counts[c])]
        resonance = sum(sum(ch) for ch in channels)
        vmax = max(vmax, resonance)
        carrier = fresh() if not channels[res_ch - 1] else 0
        slots.append(SlotPlan(element, channels, res_ch, resonance,
                              carrier))
    return ClassPlan(class_id, cls, delta, eps, slots, spacing)


def _signed_sums(pool, count):
    """All achievable (sum, multiset) pairs using ``count`` signed
    factors drawn with repetition from ``pool``."""
    signed = []
    for w in sorted(set(pool)):
        signed.append((w, 1))
        signed.append((w, -1))
    out = []
    for combo in itertools.combinations_with_replacement(signed, count):
        total = sum(w * s for w, s in combo)
        out.append((total, combo))
    return out


def _reduce_pairs(combo):
    """Cancel matched +/- occurrences of the same frequency in the same
    channel; such pairs only produce phase-quadrature terms with no net
    period displacement."""
    out = {}
    freqs = {(c, w) for c, w, _s in combo}
    for c, w in freqs:
        k = combo.get((c, w, 1), 0) - combo.get((c, w, -1), 0)
        if k > 0:
            out[(c, w, 1)] = k
        elif k < 0:
            out[(c, w, -1)] = -k
    return frozenset(out.items())


def _negate(sig):
    return frozenset(((c, w, -s), k) for (c, w, s), k in sig)


def verify_nonresonance(basis, entry):
    """Check that the only vanishing integer frequency combinations in
    this class's period are the designated slot resonances.

    A settled coordinate of an earlier class would be displaced by a
    zero-sum signed combination matching its generator counts, so up to
    matched-pair cancellation none may exist; for the class itself the
    combinations must be exactly the designed one per slot, keeping the
    endpoint linear in the resonance amplitudes.  Later classes are
    free to drift.
    """
    m = basis.m
    pools = [[] for _ in range(m)]
    for slot in entry.slots:
        for c in range(m):
            pools[c].extend(slot.channels[c])
        pools[slot.resonance_channel - 1].append(slot.resonance)
        if slot.carrier:
            pools[slot.resonance_channel - 1].append(slot.carrier)
    designed = set()
    for slot in entry.slots:
        combo = {}
        for c in range(m):
            for w in slot.channels[c]:
                key = (c, w, -1)
                combo[key] = combo.get(key, 0) + 1
        key = (slot.resonance_channel - 1, slot.resonance, 1)
        combo[key] = combo.get(key, 0) + 1
        designed.add(frozenset(combo.items()))
    allowed = {frozenset()} | designed | {_negate(s) for s in designed}
    per_channel = {}
    for ci in range(entry.class_id + 1):
        delta_j = basis.element(basis.classes[ci][0]).delta
        if sum(delta_j) == 1:
            continue
        own = ci == entry.class_id
        lists = []
        for c in range(m):
            key = (c, delta_j[c])
            if key not in per_channel:
                per_channel[key] = _signed_sums(pools[c], delta_j[c])
            lists.append(per_channel[key])
        found = set()
        for parts in itertools.product(*lists):
            if sum(p[0] for p in parts) != 0:
                continue
            combo = {}
            for c, (_total, factors) in enumerate(parts):
                for w, s in factors:
                    key = (c, w, s)
                    combo[key] = combo.get(key, 0) + 1
            found.add(_reduce_pairs(combo))
        if own:
            if not found <= allowed or not designed <= found:
                return False
        elif found - {frozenset()}:
            return False
    return True


def template_channels(entry, amps):
    """Per-channel term lists (amp, freq, quarter) for one period."""
    m = len(entry.delta)
    channels = [[] for _ in range(m)]
    for slot, amp in zip(entry.slots, amps):
        for c in range(m):
            for w in slot.channels[c]:
                channels[c].append((F1, w, 0))
        quarter = 0 if entry.is_generator else entry.epsilon
        channels[slot.resonance_channel - 1].append(
            (amp, slot.resonance, quarter))
        if slot.carrier:
            channels[slot.resonance_channel - 1].append(
                (F1, slot.carrier, 0))
    return channels


def channel_trigpolys(channels):
    out = []
    for terms in channels:
        u = TrigPoly.zero()
        for amp, w, q in terms:
            u = u.add(TrigPoly.sinusoid(amp, w, q))
        out.append(u)
    return out


def _moment(p, w, s):
    """Integral of t^p cos(w t) (s = 0) or t^p sin(w t) (s = 1) over
    one period [0, 2 pi], as {k: r} for the sum of r (2 pi)^k.

    By parts, with T = 2 pi, sin(w T) = 0 and cos(w T) = 1:
    C_q = -(q / w) S_(q-1) and S_q = -T^q / w + (q / w) C_(q-1), from
    C_0 = S_0 = 0.  At w = 0 the cosine moment is T^(p+1) / (p + 1).
    """
    if w == 0:
        return {p + 1: Fraction(1, p + 1)} if s == 0 else {}
    cos, sin = {}, {}
    for q in range(1, p + 1):
        nxt = {k: r * Fraction(q, w) for k, r in cos.items()}
        nxt[q] = Fraction(-1, w)
        cos = {k: r * Fraction(-q, w) for k, r in sin.items()}
        sin = nxt
    return sin if s else cos


@functools.lru_cache(maxsize=None)
def _kernel(p, w1, s1, w2, s2):
    """Integral of t^p trig(w1 t) trig(w2 t) over one period, where
    trig is cos for s = 0 and sin for s = 1.

    Returns the exact integral, a PiPoly, and its float value.  Product
    to sum splits it into two single-frequency moments.  Kernels are
    kept: periods read the same few hundred over and over.
    """
    if s1 == s2:
        # cos(a - b) plus cos(a + b), or minus it for two sines
        parts = ((w1 - w2, 0, HALF), (w1 + w2, 0, -HALF if s1 else HALF))
    else:
        # sin(a + b) plus sin(sine frequency - cosine frequency)
        parts = ((w1 + w2, 1, HALF), (w1 - w2 if s1 else w2 - w1, 1, HALF))
    total = {}
    for w, s, half in parts:
        if w < 0 and s:
            half = -half
        for k, r in _moment(p, abs(w), s).items():
            total[k] = total.get(k, F0) + half * r
    exact = PiPoly({k: r * 2 ** k for k, r in total.items()})
    return exact, float(exact)


def period_end(init, f, u, float_mode):
    """init plus the integral of f(t) u(t) over one period [0, 2 pi],
    where u is free of powers of t: each pair of a term of f and a
    term of u reads its integral from _kernel.

    Exact values sum in the pi-fraction field, floats by math.fsum.
    """
    us = [(w, s, c) for (_, w, s), c in u.terms.items()]
    if float_mode:
        us = [(w, s, float(c)) for w, s, c in us]
        terms = [float(init)]
        for (p, w1, s1), c1 in f.terms.items():
            c1 = float(c1)
            terms.extend(c1 * c2 * _kernel(p, w1, s1, w2, s2)[1]
                         for w2, s2, c2 in us)
        return math.fsum(terms)
    total = [(init, _PP_ONE)]
    for w2, s2, c2 in us:
        inner = _exact_sum(
            (c1, _kernel(p, w1, s1, w2, s2)[0])
            for (p, w1, s1), c1 in f.terms.items())
        total.append((inner * c2, _PP_ONE))
    return simplify_value(_exact_sum(total))


def propagate_period(system, channels, state, float_mode):
    """State after one 2 pi period of the given controls, exact in the
    pi-fraction field, or in floats when float_mode is set.

    The canonical dynamics are triangular: coordinate j moves at rate
    f_j(t) u_phi(j)(t), where f_j = P_j of the trajectories before j.
    Its end value is x_j(0) plus the integral of that rate over the
    period, in closed form (period_end).  The trajectory of a
    coordinate, the TrigPoly x_j(0) plus the antiderivative of its
    rate, is built only when some monomial reads that coordinate;
    none reads the top-weight ones.
    """
    us = channel_trigpolys(channels)
    read = {i for mono in system.monomials for expo in mono.terms
            for i, a in enumerate(expo) if a}
    trajs = []
    out = []
    cache = {}
    for j in range(system.n):
        f = poly_on_trigs(system.monomials[j], trajs, cache)
        u = us[system.basis.element(j + 1).phi - 1]
        out.append(period_end(state[j], f, u, float_mode))
        traj = None
        if j in read:
            traj = f.mul(u).antiderivative()
            if state[j]:
                traj = traj.add(TrigPoly.const(state[j]))
        trajs.append(traj)
    return out


def control_matrix(system, entry, det_threshold=1e-6):
    """Displacement matrix of one class: column k is the net change of
    the class coordinates under a unit probe on slot k's resonance.

    Also verifies that the basics alone produce exactly zero net
    change, fills entry.A / entry.B / entry.det, and raises
    SingularMatrix below the determinant threshold.
    """
    elements = entry.elements
    q = len(entry.slots)
    zero_state = [F0] * system.n
    earlier = [j for j in range(1, system.n + 1)
               if system.basis.class_of[j] < entry.class_id]

    def check_settled(end, what):
        for j in earlier:
            if simplify_value(end[j - 1]):
                raise SingularMatrix(
                    "%s of class %d displaces settled coordinate %d"
                    % (what, entry.class_id, j), class_id=entry.class_id)

    if not entry.is_generator:
        base = propagate_period(
            system, template_channels(entry, [F0] * q), zero_state,
            float_mode=False)
        for j in elements:
            v = simplify_value(base[j - 1])
            if v:
                raise SingularMatrix(
                    "basics alone displace coordinate %d of class %d"
                    % (j, entry.class_id), value=float(v))
        check_settled(base, "basics")
    cols = []
    for k in range(q):
        amps = [F1 if i == k else F0 for i in range(q)]
        end = propagate_period(system, template_channels(entry, amps),
                               zero_state, float_mode=False)
        check_settled(end, "probe %d" % k)
        cols.append([PiFrac.lift(end[j - 1]) for j in elements])
    gains = []
    for k in range(q):
        norm = math.sqrt(math.fsum(float(x) ** 2 for x in cols[k]))
        if norm == 0.0:
            raise SingularMatrix("slot %d displaces nothing" % k,
                                 class_id=entry.class_id)
        gains.append(Fraction(2) ** round(math.log2(norm)))
    a = [[cols[k][i] / gains[k] for k in range(q)] for i in range(q)]
    det = det_matrix(a)
    det_f = abs(float(det)) if det else 0.0
    norms = [math.sqrt(math.fsum(float(x) ** 2 for x in row))
             for row in a]
    if any(n == 0.0 for n in norms):
        raise SingularMatrix("zero row in control matrix",
                             class_id=entry.class_id)
    geo = math.exp(math.fsum(math.log(n) for n in norms) / q)
    if not det or det_f < det_threshold * geo:
        raise SingularMatrix(
            "control matrix determinant %.3e below threshold %.3e"
            % (det_f, det_threshold * geo), class_id=entry.class_id)
    entry.A = a
    entry.B = invert_matrix(a)
    entry.det = det
    entry.gains = gains
    return a


def plan_class(system, class_id, budget=64, det_threshold=1e-6):
    """Frequencies plus control matrix.  The rotation advances on every
    retry (reseeding the candidate search and cycling the channel fill
    order) and the spacing doubles every eight retries, until the
    budget runs out."""
    last = None
    for attempt in range(budget):
        spacing = 1 << (attempt // 8)
        entry = plan_frequencies(system.basis, class_id, spacing,
                                 rotation=attempt)
        if not entry.is_generator and not verify_nonresonance(
                system.basis, entry):
            last = "resonant frequency combination (attempt %d)" % attempt
            continue
        try:
            control_matrix(system, entry, det_threshold=det_threshold)
            return entry
        except SingularMatrix as exc:
            last = exc
    raise SearchBudgetExhausted(
        "no usable frequencies for class %d after %d attempts"
        % (class_id, budget), last_error=str(last))


def build_plan(system, budget=64, det_threshold=1e-6):
    entries = [plan_class(system, ci, budget, det_threshold)
               for ci in range(len(system.basis.classes))]
    return FrequencyPlan(system.m, system.r, entries)


def steer_class(delta_target, entry):
    """Channel terms realising a prescribed net change of one class."""
    amps = entry.solve_amps(delta_target)
    return template_channels(entry, amps), amps


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
        """Control values at time t, as floats."""
        if not self.periods:
            return [0.0] * self.m
        k = min(max(int(t // TWO_PI), 0), len(self.periods) - 1)
        return self.period_value(k, t)

    def period_value(self, k, t):
        """Values at time t of period k's terms, as floats: the period's
        sum at tau = t - 2 pi k, also where t lies outside period k, so
        that a replay can hold one period up to and including its end."""
        gain, periods = self.float_table()
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


def exact_steer(x_init, system, plan=None):
    """Steer the canonical system from x_init to the origin.

    Returns a ControlLaw on [0, 2 pi N].  The propagation always runs
    in the pi-fraction field, so the canonical endpoint is exactly
    zero: float coordinates are dyadic rationals already, and when the
    pseudo-norm of the state has no exact root the normalisation scale
    is rounded to a nearby dyadic (the scale only conditions the
    amplitude magnitudes, so exactness of the root is not needed).
    """
    if len(x_init) != system.n:
        raise SpecError("state has dimension %d, expected %d"
                        % (len(x_init), system.n))
    weights = system.weights
    x = [Fraction(v) for v in x_init]
    lam = pseudo_norm(x, weights)
    if lam == 0:
        return ControlLaw(system.m, [], F1,
                          meta={"z_init": [F0] * system.n})
    if not is_exact(lam):
        lam = Fraction(float(lam))
    if plan is None:
        plan = build_plan(system)
    state = dilate(x, F1 / lam, weights)
    z_init = list(state)
    periods = []
    done = []
    for entry in plan.classes:
        target = [-(state[j - 1]) for j in entry.elements]
        channels, amps = steer_class(target, entry)
        state = propagate_period(system, channels, state,
                                 float_mode=False)
        for j in entry.elements + tuple(done):
            if simplify_value(state[j - 1]):
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


def concatenate(laws, m=None):
    """Join laws end to end.

    Every law's scale is folded into its amplitudes, so the joined law
    has scale 1; laws with different channel counts raise SpecError.
    m is the channel count, needed only when laws is empty (the join
    is then the empty law).
    """
    if m is None:
        if not laws:
            raise SpecError("an empty join needs its channel count")
        m = laws[0].m
    if any(law.m != m for law in laws):
        raise SpecError("laws disagree on the number of channels")
    periods = []
    for law in laws:
        for p in law.periods:
            channels = [[(a * law.scale, w, q) for a, w, q in terms]
                        for terms in p["channels"]]
            periods.append(dict(p, channels=channels))
    return ControlLaw(m, periods)
