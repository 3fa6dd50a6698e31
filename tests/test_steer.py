"""Tests for exact sinusoidal steering of the canonical forms."""

import copy
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from sympy.simplify.fu import TR8
from hypothesis import given, settings, strategies as st

import oracles
from nilsteer.canonical import canonical_fields
from nilsteer import steer
from nilsteer.errors import SingularMatrix, SpecError, SteeringResidual
from nilsteer.poly import det_matrix, invert_matrix, mat_vec
from nilsteer.privcoord import dilate, pseudo_norm
from nilsteer.steer import (
    ClassPlan, ControlLaw, FrequencyPlan, PiPoly, SlotPlan, TrigPoly,
    _kernel, build_plan, channel_trigpolys, concatenate, control_matrix,
    exact_steer, period_integral, plan_class, plan_frequencies, TWO_PI,
    propagate_period, simplify_value, template_channels,
)

F = Fraction


def pi_times(q):
    return PiPoly({1: F(q)})


def assert_exact_zero(v, label=""):
    assert not simplify_value(v), (label, v)


def slot_amps(plan, period):
    """The resonance amplitude of each slot of a law period's class,
    read off its channels: the one term on the slot's resonance channel
    at its resonance frequency with the class's quarter, which the
    chain rule leaves unique."""
    entry = plan.classes[period["class_id"]]
    out = []
    for slot in entry.slots:
        (amp,) = [a for a, w, q in
                  period["channels"][slot.resonance_channel - 1]
                  if (w, q) == (slot.resonance, entry.epsilon)]
        out.append(amp)
    return out


@pytest.fixture(scope="module")
def sys22():
    return canonical_fields(2, 2)


@pytest.fixture(scope="module")
def sys23():
    return canonical_fields(2, 3)


@pytest.fixture(scope="module")
def sys24():
    return canonical_fields(2, 4)


@pytest.fixture(scope="module")
def sys33():
    return canonical_fields(3, 3)


@pytest.fixture(scope="module")
def plan22(sys22):
    return build_plan(sys22)


@pytest.fixture(scope="module")
def plan23(sys23):
    return build_plan(sys23)


@pytest.fixture(scope="module")
def plan24(sys24):
    return build_plan(sys24)


def law_rhs(system, law):
    """Canonical dynamics driven by a control law, for scipy."""
    dyn = [(system.monomials[j - 1], system.basis.element(j).phi)
           for j in range(1, system.n + 1)]

    def rhs(t, z):
        us = law.eval(t)
        return [float(mono.eval(list(z))) * us[ch - 1] for mono, ch in dyn]

    return rhs


def ode_endpoint(system, law, z0):
    return oracles.propagate_ode(law_rhs(system, law),
                                 [float(v) for v in z0],
                                 TWO_PI * law.nperiods,
                                 rtol=1e-11, atol=1e-12)


# ---------------------------------------------------------------------------
# Laurent polynomials of pi


def test_pipoly_product_and_evaluation():
    a = PiPoly({0: 2, 1: 3})
    b = PiPoly({0: 1, 1: -1})
    assert a * b == PiPoly({0: 2, 1: 1, 2: -3})
    assert a * PiPoly({-1: 1}) == PiPoly({-1: 2, 0: 3})
    assert float(b) == pytest.approx(1.0 - math.pi, abs=1e-15)
    assert not a + -a
    assert a - a == 0


def test_pifrac_equality_without_reduction():
    # zero coefficients are never stored, so equal values have equal
    # dicts and compare equal to the rationals they are
    assert PiPoly({1: 1, -1: 0}) == PiPoly({1: 1})
    assert PiPoly({0: F(3, 2), 2: 0}) == F(3, 2)
    assert F(3, 2) == PiPoly({0: F(3, 2)})
    assert PiPoly({}) == 0
    assert PiPoly({1: 1}) != PiPoly({-1: 1})
    assert PiPoly({0: 1}) != 1.0 and not PiPoly({0: 1}) == "1"


def test_pifrac_gcd_cancels_common_factor():
    # (pi^3 + 2 pi) / (3 pi) = pi^2 / 3 + 2 / 3: division by a monomial
    # is a shift, and only monomials are units of the ring
    x = PiPoly({3: 1, 1: 2})
    assert x / PiPoly({1: 3}) == PiPoly({2: F(1, 3), 0: F(2, 3)})
    assert x / PiPoly({-2: 1}) == PiPoly({5: 1, 3: 2})
    with pytest.raises(TypeError):
        x / PiPoly({1: 1, 0: 1})
    with pytest.raises(TypeError):
        1 / PiPoly({1: 1, 0: 1})


def test_pifrac_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PiPoly({0: 1}) / PiPoly({})
    with pytest.raises(ZeroDivisionError):
        1 / PiPoly({1: 0})
    with pytest.raises(ZeroDivisionError):
        PiPoly({1: 1}) / F(0)


def test_pifrac_scalar_fast_paths():
    x = PiPoly({1: F(1, 2)})
    assert x + 0 == x
    assert x * F(2) == PiPoly({1: 1})
    assert (x * 4) / 2 == PiPoly({1: 1})
    assert 1 / (x * 2) == PiPoly({-1: 1})
    assert 3 - x == PiPoly({0: 3, 1: F(-1, 2)})
    # exact values never turn into floats: a float replay converts
    # its inputs up front instead
    for op in (lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5,
               lambda: 0.5 * x, lambda: x / 0.5, lambda: 0.5 / x):
        with pytest.raises(TypeError):
            op()
    assert float(x) == pytest.approx(math.pi / 2, abs=1e-15)


def small_fraction():
    return st.fractions(min_value=-3, max_value=3, max_denominator=8)


def pipoly_strategy():
    return st.dictionaries(st.integers(-3, 3), small_fraction(),
                           max_size=4).map(PiPoly)


def monomial_strategy():
    return st.builds(lambda k, q: PiPoly({k: q}), st.integers(-3, 3),
                     small_fraction().filter(bool))


@settings(max_examples=50, deadline=None)
@given(pipoly_strategy(), pipoly_strategy(), pipoly_strategy(),
       monomial_strategy(), small_fraction())
def test_pifrac_field_axioms(a, b, c, unit, q):
    # ring axioms of Q[pi, 1/pi], with rationals mixed in, and division
    # by its units, the monomials
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * 1 == a and a + 0 == a
    assert_exact_zero(a - a)
    assert q * a == a * PiPoly({0: q})
    assert (a + q) - q == a
    assert (a / unit) * unit == a
    assert float(a * unit) == pytest.approx(float(a) * float(unit),
                                            rel=1e-12, abs=1e-12)


def test_simplify_value_collapses_rational_fractions():
    three = PiPoly({1: 3}) / PiPoly({1: 1})
    out = simplify_value(three)
    assert isinstance(out, F) and out == 3
    out = simplify_value(PiPoly({}))
    assert isinstance(out, F) and out == 0
    pi = PiPoly({1: 1})
    assert simplify_value(pi) is pi
    assert isinstance(simplify_value(PiPoly({-1: 1})), PiPoly)
    assert simplify_value(F(5, 7)) == F(5, 7)


def test_coeff_is_zero_accepts_both_kinds():
    # Zero tests on coefficients are plain truthiness, for every kind.
    assert not F(0)
    assert not PiPoly({})
    assert not PiPoly({1: F(1)}) + PiPoly({1: F(-1)})
    assert not 0.0
    assert F(1, 9)
    assert pi_times(1)
    assert PiPoly({-1: F(-1, 15)})
    assert 1e-300


def test_pipoly_repr_is_the_reduced_fraction():
    # pinned law digests hash this form: (num)/(1*pi^k), num free of
    # a factor of pi
    assert repr(PiPoly({1: F(3, 2)})) == "(3/2*pi)"
    assert repr(PiPoly({-2: 1, -1: 2})) == "(1 + 2*pi)/(1*pi^2)"
    assert repr(PiPoly({-1: F(-1, 3), 2: 5})) == "(-1/3 + 5*pi^3)/(1*pi)"
    assert repr(PiPoly({0: 1, 2: -1})) == "(1 + -1*pi^2)"
    assert repr(PiPoly({})) == "(0)"


@settings(max_examples=50, deadline=None)
@given(pipoly_strategy())
def test_pipoly_float_is_the_exact_value_rounded(a):
    exact = sum((c * steer._PI_HAT ** k for k, c in a.c.items()), F(0))
    assert float(a) == float(exact)


# ---------------------------------------------------------------------------
# Trigonometric polynomials


ONE = TrigPoly({(0, 0, 0, 0, 0): F(1)})


def sinusoid(amp, w, q):
    """amp cos(w t - q pi / 2) as a TrigPoly."""
    return channel_trigpolys([[(amp, w, q)]])[0]


def end_value(d):
    """The number an exact period_integral result stands for."""
    assert all(m == 0 for m, _ in d), d
    return simplify_value(PiPoly({e: c for (_, e), c in d.items()}))


def test_sinusoid_quarter_convention():
    for q in range(4):
        u = sinusoid(F(3, 2), 5, q)
        for t in (0.0, 0.37, 1.9, 4.4):
            want = 1.5 * math.cos(5 * t - q * math.pi / 2)
            assert oracles.trig_eval_float(u, t) == pytest.approx(
                want, abs=1e-12)
    # a Laurent amplitude splits into one term per power of pi
    u = sinusoid(PiPoly({1: 2, -1: F(1, 3)}), 4, 2)
    assert u.terms == {(0, 4, 0, 0, 1): -2, (0, 4, 0, 0, -1): F(-1, 3)}
    assert not sinusoid(F(1), 0, 1).terms


def test_product_matches_pointwise_values():
    a = sinusoid(F(1), 3, 0).add(sinusoid(F(2), 5, 1))
    b = sinusoid(F(1), 1, 1).add(sinusoid(PiPoly({1: -1}), 2, 0))
    ab = a.mul(b)
    for t in (0.0, 0.21, 1.3, 2.8, 5.9):
        assert oracles.trig_eval_float(ab, t) == pytest.approx(
            oracles.trig_eval_float(a, t) * oracles.trig_eval_float(b, t),
            abs=1e-12)


def test_amplitude_monomials_multiply_by_adding_keys():
    # a0 cos t times a0 a1 sin 2t (base 3: a0 = 1, a0 a1 = 4) is
    # a0^2 a1 (key 5) times (sin 3t + sin t) / 2
    a = TrigPoly({(0, 1, 0, 1, 0): F(1)})
    b = TrigPoly({(0, 2, 1, 4, 1): F(3)})
    assert a.mul(b).terms == {(0, 3, 1, 5, 1): F(3, 2),
                              (0, 1, 1, 5, 1): F(3, 2)}


def test_antiderivative_inverts_derivative():
    u = TrigPoly({(1, 3, 0, 0, 0): F(2), (0, 1, 1, 0, 1): F(-1, 3),
                  (2, 0, 0, 0, -2): F(1, 5), (1, 2, 1, 7, 0): F(4)})
    back = oracles.trig_derivative(u.antiderivative())
    diff = back.add(TrigPoly({k: -c for k, c in u.terms.items()}))
    assert not diff.terms
    # the primitive vanishes at t = 0 for every (m, e)
    at_zero = {}
    for (p, _, s, m, e), c in u.antiderivative().terms.items():
        if p == 0 and s == 0:
            at_zero[m, e] = at_zero.get((m, e), 0) + c
    assert at_zero and not any(at_zero.values())


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_antiderivative_matches_quadrature():
    u = TrigPoly({(1, 4, 0, 0, 0): F(1), (0, 2, 1, 0, 0): F(3),
                  (0, 0, 0, 0, 0): F(1, 7)})
    horizon = 2 * math.pi
    # one quad piece per oscillation of the top frequency; a whole
    # period in one piece trips quad's roundoff detection
    top = max(w for _, w, _, _, _ in u.terms)
    ref = oracles.quad_over_periods(
        lambda t: oracles.trig_eval_float(u, t), horizon, top)
    got = oracles.trig_eval_float(u.antiderivative(), horizon)
    assert got == pytest.approx(ref, abs=1e-10)
    exact = end_value(period_integral(u, ONE))
    assert float(exact) == pytest.approx(ref, abs=1e-10)


def test_squared_cosine_integrates_to_pi_exactly():
    u = sinusoid(F(1), 3, 0)
    assert period_integral(u, u) == {(0, 1): F(1)}
    # amplitude monomials ride along: (a0 cos 3t)^2 integrates to a0^2 pi
    a = TrigPoly({(0, 3, 0, 1, 0): F(1)})
    assert period_integral(a, a) == {(2, 1): F(1)}


def sympy_period_integral(expr, t, moments):
    """sympy's integral of expr, a sum of terms c t^p trig(j t) with
    integer j >= 0, over [0, 2 pi].  moments caches sympy's integral of
    t^p cos(k t) and t^p sin(k t) for a symbolic positive integer k
    and for k = 0, keyed by (p, trig, k > 0)."""
    k = sympy.Symbol("k", integer=True, positive=True)
    total = 0
    for term in sympy.Add.make_args(sympy.expand(expr)):
        c, rest = term.as_independent(t)
        trigs = rest.atoms(sympy.cos, sympy.sin)
        trig, freq = sympy.cos, 0
        if trigs:
            (factor,) = trigs
            trig, freq = factor.func, factor.args[0] / t
            rest = rest / factor
        key = (sympy.degree(rest, t), trig, freq != 0)
        if key not in moments:
            moments[key] = sympy.integrate(
                t ** key[0] * trig((k if freq else 0) * t),
                (t, 0, 2 * sympy.pi))
        total += c * moments[key].subs(k, freq)
    return sympy.expand(total)


def test_kernels_match_sympy():
    t = sympy.Symbol("t", real=True)
    trigs = (sympy.cos, sympy.sin)
    moments = {}
    for p, w1, w2, s1, s2 in itertools.product(range(5), range(7), range(7),
                                               (0, 1), (0, 1)):
        expr = TR8(t ** p * trigs[s1](w1 * t) * trigs[s2](w2 * t))
        want = sympy_period_integral(expr, t, moments)
        got = sum(sympy.Rational(r.numerator, r.denominator) * sympy.pi ** d
                  for d, r in _kernel(p, w1, s1, w2, s2))
        assert sympy.expand(got - want) == 0, (p, w1, s1, w2, s2)


# ---------------------------------------------------------------------------
# One-period propagation


def test_constant_controls_sweep_quadratic_area(sys22):
    a, b = F(1, 3), F(-2, 5)
    channels = [[(a, 0, 0)], [(b, 0, 0)]]
    end = propagate_period(sys22, channels, [F(0)] * 3, float_mode=False)
    assert end[0] == pi_times(2 * a)
    assert end[1] == pi_times(2 * b)
    assert end[2] == PiPoly({2: 2 * a * b})


def test_float_period_matches_ode(sys33):
    # the float evaluation of a period map, which a law's float replay
    # runs, against scipy on the canonical fields, on signatures no
    # plan has: repeated and zero frequencies, all four quarters
    rng = oracles.seeded(59)
    for _ in range(3):
        state = oracles.random_rational_point(sys33.n, rng, lo=-1, hi=1)
        channels = [[(rng.uniform(-1.0, 1.0), rng.randint(0, 6),
                      rng.randint(0, 3)) for _ in range(3)]
                    for _ in range(3)]
        end = propagate_period(sys33, channels, state, float_mode=True)
        law = ControlLaw(3, [{"channels": channels}])
        want = ode_endpoint(sys33, law, state)
        assert max(abs(a - b) for a, b in zip(end, want)) <= 1e-9
        assert max(abs(a - b) for a, b in zip(end, state)) > 1e-2


def test_zero_controls_fix_the_state(sys23):
    rng = oracles.seeded(11)
    state = oracles.random_rational_point(sys23.n, rng)
    end = propagate_period(sys23, [[], []], state, float_mode=False)
    assert [simplify_value(v) for v in end] == state


# ---------------------------------------------------------------------------
# Period maps


def random_amplitude(rng):
    """A rational or, one time in three, a Laurent polynomial of pi."""
    q = oracles.random_fraction(rng, -1, 1, 16)
    if rng.random() < 1 / 3:
        return PiPoly({rng.choice((-1, 1)): q, 0: F(1, rng.randint(2, 9))})
    return q


@pytest.mark.parametrize("m,r", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_period_map_is_the_direct_period(m, r):
    # every class's signature, every amplitude of it seeded and exact,
    # from a seeded exact start: the map's end state is the TrigPoly
    # period run on those values, and its float evaluation the DOP853
    # replay of the canonical fields
    system = canonical_fields(m, r)
    rng = oracles.seeded(100 * m + r)
    read = set(steer._reads(system))
    for entry in build_plan(system).classes:
        channels = [[(random_amplitude(rng), w, q) for _, w, q in terms]
                    for terms in template_channels(
                        entry, [F(1)] * len(entry.slots))]
        state = oracles.random_rational_point(system.n, rng, lo=-1, hi=1)
        disp = steer._period(system, channel_trigpolys(channels), state,
                             read)
        direct = [simplify_value(x + end_value(d))
                  for x, d in zip(state, disp)]
        end = propagate_period(system, channels, state, float_mode=False)
        assert end == direct, entry.class_id
        assert end != state
        floats = propagate_period(system, channels, state, float_mode=True)
        law = ControlLaw(m, [{"channels": [
            [(float(a), w, q) for a, w, q in terms] for terms in channels]}])
        want = ode_endpoint(system, law, state)
        assert max(abs(a - b) for a, b in zip(floats, want)) <= 1e-9, \
            entry.class_id


def test_period_maps_are_built_once_per_class(monkeypatch):
    # the plan builds one map per class signature; a second plan, the
    # laws it steers and their float replays build none
    monkeypatch.setattr(steer, "_MAPS", {})
    real = steer.PeriodMap
    built = []

    def counting(system, signature):
        built.append(signature)
        return real(system, signature)

    monkeypatch.setattr(steer, "PeriodMap", counting)
    plan = build_plan(canonical_fields(2, 4))
    assert len(built) == len(set(built)) == len(plan.classes)
    del built[:]
    system = canonical_fields(2, 4)
    plan = build_plan(system)
    rng = oracles.seeded(29)
    for _ in range(20):
        law = exact_steer(oracles.random_rational_point(system.n, rng),
                          system, plan)
        z = [float(v) for v in law.meta["z_init"]]
        for p in law.periods:
            z = propagate_period(system, p["channels"], z, float_mode=True)
        assert max(abs(v) for v in z) <= 1e-9
    assert built == []


# ---------------------------------------------------------------------------
# Frequency plans: frozen values for the small systems


def test_generator_classes_use_constant_controls(plan23):
    for ci in (0, 1):
        entry = plan23.classes[ci]
        assert sum(entry.delta) == 1
        slot = entry.slots[0]
        assert slot.resonance == 0 and slot.carrier == 0
        assert all(not ch for ch in slot.channels)
        assert entry.A[0][0] * entry.gains[0] == pi_times(2)


SMALL_PLAN_TABLE = [
    # class_id, elements, eps, channels, res, carrier, raw entry
    (2, (3,), 1, ((1,), ()), 1, 3, F(1)),
    (3, (4,), 0, ((1, 4), ()), 5, 16, F(-1, 8)),
    (4, (5,), 0, ((1,), (4,)), 5, 0, F(-1, 40)),
    (5, (6,), 1, ((1, 5, 21), ()), 27, 109, F(-1, 420)),
    (6, (7,), 1, ((1, 5), (21,)), 27, 0, F(-1, 1890)),
    (7, (8,), 1, ((1,), (5, 21)), 27, 0, F(-1, 11340)),
]


@pytest.mark.parametrize("ci,elems,eps,channels,res,car,raw",
                         SMALL_PLAN_TABLE)
def test_frozen_single_slot_plans(plan24, ci, elems, eps, channels, res,
                                  car, raw):
    entry = plan24.classes[ci]
    assert entry.elements == elems
    assert entry.epsilon == eps
    slot = entry.slots[0]
    assert slot.channels == channels
    assert slot.resonance_channel == 2
    assert slot.resonance == res
    assert slot.carrier == car
    assert entry.A[0][0] * entry.gains[0] == pi_times(raw)
    assert entry.det


def test_plans_stable_across_nilpotency_order(plan23, plan24):
    for ci in (2, 3, 4):
        a = plan23.classes[ci].slots[0]
        b = plan24.classes[ci].slots[0]
        assert (a.channels, a.resonance, a.carrier) == \
            (b.channels, b.resonance, b.carrier)


FROZEN_25 = {
    8: ([(9, ((1, 6, 31, 156), ()), 2, 194, 971)], 0.886956),
    9: ([(10, ((1, 6, 31), (156,)), 2, 194, 0),
         (13, ((4856, 24281, 121406), (971,)), 2, 151514, 0)], -0.584363),
    10: ([(11, ((1, 6), (31, 156)), 2, 194, 0),
          (14, ((24281, 121406), (971, 4856)), 2, 151514, 0)], -0.940762),
    11: ([(12, ((1,), (6, 31, 156)), 2, 194, 0)], 1.170417),
}


@pytest.fixture(scope="module")
def sys25():
    return canonical_fields(2, 5)


@pytest.mark.parametrize("ci", sorted(FROZEN_25))
def test_frozen_weight_five_plans(sys25, ci):
    entry = plan_class(sys25, ci)
    slots, det = FROZEN_25[ci]
    got = [(s.element, s.channels, s.resonance_channel, s.resonance,
            s.carrier) for s in entry.slots]
    assert got == slots
    assert float(entry.det) == pytest.approx(det, abs=1e-4)


def test_multi_element_classes_have_two_slots(sys25):
    # the two weight-5 classes with repeated generator counts carry two
    # basis elements each and need a genuinely 2x2 matrix
    assert sys25.basis.classes[9] == (10, 13)
    assert sys25.basis.classes[10] == (11, 14)


def test_chain_invariants(sys25):
    for ci in (8, 9, 10, 11):
        entry = plan_frequencies(sys25.basis, ci)
        total = sum(entry.delta)
        seen = 0
        for slot in entry.slots:
            basics = [w for ch in slot.channels for w in ch]
            for w in sorted(basics) + ([slot.carrier] if slot.carrier
                                       else []):
                assert w > total * seen or seen == 0
                seen = max(seen, w)
            # all-plus resonance: the solved sinusoid sits exactly at
            # the sum of the slot's basic frequencies
            assert slot.resonance == sum(basics)
            seen = max(seen, slot.resonance)


def test_rotation_permutes_channel_fill_order(sys25):
    # the two slots of a multi-slot class fill their channels in
    # different orders: the first-filled channel holds the slot's
    # smallest basic frequency
    for ci in (9, 10):
        entry = plan_frequencies(sys25.basis, ci)
        first = [min(range(2), key=lambda c: min(slot.channels[c]))
                 for slot in entry.slots]
        assert first == [0, 1], ci


def test_plan_and_basis_json(sys23, plan23):
    blob = plan23.to_json()
    assert json.loads(json.dumps(blob)) == blob
    assert (blob["m"], blob["r"]) == (2, 3)
    for entry in blob["classes"]:
        assert set(entry) == {"class_id", "elements", "delta", "epsilon",
                              "slots", "A", "det"}
    slot_freqs = [w for entry in blob["classes"] for slot in entry["slots"]
                  for w in [x for ch in slot["channels"] for x in ch]
                  + [slot["resonance"], slot["carrier"]]]
    assert max(c.max_frequency() for c in plan23.classes) == max(slot_freqs)
    basis = sys23.basis.to_json()
    assert json.loads(json.dumps(basis)) == basis
    names = [e["name"] for e in basis["elements"]]
    assert names[:3] == ["X1", "X2", "[X1,X2]"]
    assert names == [sys23.basis.name(j) for j in range(1, 6)]


# ---------------------------------------------------------------------------
# Resonance: the exact period is the one gate


def test_matched_in_phase_pair_cancels_in_one_period(sys22):
    # the same frequency, in phase, on both channels of (2,2): x1 is
    # sin(w t) / w, so the rate x1 u2 of coordinate 3 is a pure
    # quadrature term and its period integral is exactly zero
    for w in (1, 5):
        channels = [[(F(1), w, 0)], [(F(1), w, 0)]]
        end = propagate_period(sys22, channels, [F(0)] * 3,
                               float_mode=False)
        for j, v in enumerate(end, 1):
            assert_exact_zero(v, "w %d, coordinate %d" % (w, j))


def test_control_matrix_rejects_mismatched_resonance(sys22):
    # resonance 2 over a single basic 1 closes no zero sum, so the
    # period leaves coordinate 3 where it is
    bad = ClassPlan(2, (3,), (1, 1), 1, [SlotPlan(3, [(1,), ()], 2, 2, 3)])
    with pytest.raises(SingularMatrix, match="slot 0 displaces nothing") \
            as info:
        control_matrix(sys22, bad)
    assert info.value.payload == {"class_id": 2}


def resonant_carrier_plan(system):
    # (2,4) coordinate 6: carrier 3 closes 1 + 2 = 3 against the
    # already-settled length-3 coordinate 4
    ci = system.basis.class_of[6]
    return ClassPlan(ci, (6,), (3, 1), 1,
                     [SlotPlan(6, [(1, 2, 3), ()], 2, 6, 3)])


def test_resonant_carrier_displaces_a_settled_coordinate(sys24):
    with pytest.raises(SingularMatrix, match="settled coordinate 4"):
        control_matrix(sys24, resonant_carrier_plan(sys24))


# ---------------------------------------------------------------------------
# Control matrices


def test_probe_columns_match_ode_integration(sys23, plan23):
    for entry in plan23.classes[2:]:
        q = len(entry.slots)
        for k in range(q):
            amps = [F(1) if i == k else F(0) for i in range(q)]
            law = ControlLaw(2, [{"channels":
                                  template_channels(entry, amps)}])
            end = ode_endpoint(sys23, law, [0.0] * sys23.n)
            for i, j in enumerate(entry.elements):
                want = float(entry.A[i][k] * entry.gains[k])
                assert end[j - 1] == pytest.approx(want, abs=1e-8)


def test_basics_alone_displace_nothing(sys24, plan24):
    for entry in plan24.classes[2:]:
        law = ControlLaw(2, [{"channels": template_channels(
            entry, [F(0)] * len(entry.slots))}])
        end = ode_endpoint(sys24, law, [0.0] * sys24.n)
        assert max(abs(v) for v in end) < 1e-8


def test_matrix_entry_matches_symbolic_integration(plan23):
    # independent route: sympy integrates the explicit closed-form
    # integrands for the two weight-3 classes over one period
    t, a = sympy.symbols("t a")
    v1 = sympy.sin(t) + sympy.sin(4 * t) / 4
    disp = sympy.integrate(v1 ** 2 / 2 * sympy.cos(5 * t),
                           (t, 0, 2 * sympy.pi))
    entry = plan23.classes[3]
    assert sympy.simplify(disp + sympy.pi / 8) == 0
    assert entry.A[0][0] * entry.gains[0] == pi_times(F(-1, 8))

    u2 = a * sympy.cos(5 * t) + sympy.cos(4 * t)
    v1 = sympy.sin(t)
    v2 = sympy.integrate(u2, t)
    disp = sympy.expand(sympy.integrate(v1 * v2 * u2, (t, 0, 2 * sympy.pi)))
    assert sympy.simplify(disp.diff(a) + sympy.pi / 40) == 0
    assert sympy.simplify(disp.diff(a, 2)) == 0
    entry = plan23.classes[4]
    assert entry.A[0][0] * entry.gains[0] == pi_times(F(-1, 40))


def test_inverse_is_exact(sys25):
    entry = plan_class(sys25, 9)
    prod = [mat_vec(entry.B, [row[k] for row in entry.A])
            for k in range(2)]
    for k in range(2):
        for i in range(2):
            want = F(1) if i == k else F(0)
            assert_exact_zero(prod[k][i] - want)


def test_field_linear_algebra_on_rationals():
    rows = [[F(1), F(2)], [F(3), F(4)]]
    assert det_matrix(rows) == F(-2)
    inv = invert_matrix(rows)
    assert inv == [[F(-2), F(1)], [F(3, 2), F(-1, 2)]]
    with pytest.raises(SingularMatrix):
        invert_matrix([[F(1), F(2)], [F(2), F(4)]])


def test_solved_amplitudes_realize_the_target(sys24, plan24):
    entry = plan24.classes[6]
    amps = entry.solve_amps([F(3, 7)])
    assert len(amps) == 1
    channels = template_channels(entry, amps)
    end = propagate_period(sys24, channels, [F(0)] * sys24.n,
                           float_mode=False)
    for j in range(1, 7):
        assert_exact_zero(end[j - 1], "coordinate %d" % j)
    assert_exact_zero(end[6] - F(3, 7))


def test_solving_without_a_control_matrix_raises(sys23):
    entry = plan_frequencies(sys23.basis, 3)
    with pytest.raises(SpecError) as info:
        entry.solve_amps([F(1)])
    assert info.value.payload == {"class_id": 3}


def test_determinant_threshold_raises(sys23, monkeypatch):
    monkeypatch.setattr(steer, "DET_THRESHOLD", 1e9)
    entry = plan_frequencies(sys23.basis, 2)
    with pytest.raises(SingularMatrix, match="determinant") as info:
        control_matrix(sys23, entry)
    assert info.value.payload == {"class_id": 2}


def fresh_maps(patch):
    """Empty the period-map cache until patch undoes it, so that the
    next period map is built anew and dropped afterwards."""
    patch.setattr(steer, "_MAPS", {})


def skew_period_end(patch, coordinate, key):
    """Make the symbolic period add one unit of the (m, e) term key to
    the displacement of coordinate (1-based) in every period map built
    until patch undoes it; a map's variable v is the monomial (r + 1)^v.
    """
    fresh_maps(patch)
    real = steer._period

    def skewed(system, us, state, read):
        end = real(system, us, state, read)
        skew = end[coordinate - 1] = dict(end[coordinate - 1])
        skew[key] = skew.get(key, 0) + 1
        return end

    patch.setattr(steer, "_period", skewed)


def test_plan_class_raises_on_a_rejected_plan(sys23, sys24, monkeypatch):
    # one plan per class: a control matrix below the gate, or a
    # resonant plan, is a named error naming the class, not a retry
    with monkeypatch.context() as patch:
        patch.setattr(steer, "DET_THRESHOLD", 1e9)
        with pytest.raises(SingularMatrix, match="determinant") as info:
            plan_class(sys23, 2)
        assert info.value.payload == {"class_id": 2}
    # an entry that is not c pi cannot be factored out of A: a0 alone
    # (variable 1, monomial 4), without pi, on class coordinate 3
    with monkeypatch.context() as patch:
        skew_period_end(patch, 3, (4, 0))
        with pytest.raises(SingularMatrix, match="multiple of pi") as info:
            plan_class(sys23, 2)
        assert info.value.payload == {"class_id": 2}
    # generator classes pass the same gate: a unit constant input
    # moves the generator coordinate by 2 pi
    entry = plan_class(sys23, 0)
    assert entry.A[0][0] * entry.gains[0] == pi_times(2)
    bad = resonant_carrier_plan(sys24)
    monkeypatch.setattr(steer, "plan_frequencies", lambda *a: bad)
    with pytest.raises(SingularMatrix, match="settled coordinate 4") \
            as info:
        plan_class(sys24, bad.class_id)
    assert info.value.payload == {"class_id": bad.class_id}


# (2,3) class 2 is coordinate 3 alone.  Its map's variables are the
# basic on channel 1 (variable 0, monomial 1 in base r + 1 = 4), the
# resonance amplitude a0 (variable 1, monomial 4; a0^2 is 8) and the
# carrier (variable 2) on channel 2, then the start values.
@pytest.mark.parametrize("coordinate,key,match,payload", [
    (3, (8, 1), "not linear", {}),
    (3, (1, 1), "basics alone displace coordinate 3", {}),
    (1, (4, 1), "settled coordinate 1", {}),
    (2, (0, 0), "settled coordinate 2", {}),
], ids=["degree-2", "constant", "settled-a0", "settled-constant"])
def test_control_matrix_checks_every_monomial(sys23, monkeypatch,
                                              coordinate, key, match,
                                              payload):
    skew_period_end(monkeypatch, coordinate, key)
    with pytest.raises(SingularMatrix, match=match) as info:
        plan_class(sys23, 2)
    assert info.value.payload == dict(payload, class_id=2)


def test_plan_class_runs_one_period_per_class(sys33, monkeypatch):
    # one symbolic period per class, the one that builds its period
    # map, over every coordinate: no numeric probe period
    fresh_maps(monkeypatch)
    real = steer._period
    runs = []

    def spy(system, us, state, read):
        runs.append(real(system, us, state, read))
        return runs[-1]

    def forbidden(*args):
        raise AssertionError("a numeric probe period")

    monkeypatch.setattr(steer, "_period", spy)
    monkeypatch.setattr(steer, "propagate_period", forbidden)
    for ci in range(len(sys33.basis.classes)):
        plan_class(sys33, ci)
        assert len(runs) == ci + 1
    assert [len(end) for end in runs] == [sys33.n] * 13


@pytest.mark.parametrize("m,r", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3),
                                 (4, 2)])
def test_control_matrix_matches_unit_probes(m, r):
    # the reference definition of A: one exact period per unit probe,
    # and the basics alone leave the class coordinates at zero
    system = canonical_fields(m, r)
    zero = [F(0)] * system.n
    for entry in build_plan(system).classes:
        q = len(entry.slots)
        for k in range(-1, q):
            amps = [F(int(i == k)) for i in range(q)]
            end = propagate_period(system, template_channels(entry, amps),
                                   zero, float_mode=False)
            for i, j in enumerate(entry.elements):
                want = entry.A[i][k] * entry.gains[k] if k >= 0 else 0
                assert end[j - 1] == want, (entry.class_id, k, j)


# ---------------------------------------------------------------------------
# Exact steering


def test_steer_rational_point_lands_exactly(sys23, plan23):
    rng = oracles.seeded(7)
    z0 = oracles.rational_unit_pseudo_point(sys23.weights, rng)
    law = exact_steer(z0, sys23, plan23)
    assert law.scale == 1
    state = [F(v) for v in z0]
    for p in law.periods:
        state = propagate_period(sys23, p["channels"], state,
                                 float_mode=False)
        state = [simplify_value(v) for v in state]
    for j, v in enumerate(state):
        assert_exact_zero(v, "coordinate %d" % (j + 1))
    end = ode_endpoint(sys23, law, z0)
    assert max(abs(v) for v in end) < 1e-8


def test_steer_matches_independent_integrator(sys24, plan24):
    rng = oracles.seeded(19)
    z0 = oracles.random_rational_point(sys24.n, rng)
    law = exact_steer(z0, sys24, plan24)
    end = ode_endpoint(sys24, law, z0)
    assert max(abs(v) for v in end) < 1e-7


def test_steer_scale_is_homogeneous(sys23, plan23):
    rng = oracles.seeded(23)
    z0 = oracles.rational_unit_pseudo_point(sys23.weights, rng)
    law1 = exact_steer(z0, sys23, plan23)
    law4 = exact_steer(dilate(z0, F(4), sys23.weights), sys23, plan23)
    assert law4.scale == 4 * law1.scale
    for p1, p4 in zip(law1.periods, law4.periods):
        assert slot_amps(plan23, p1) == slot_amps(plan23, p4)


def test_steer_float_input_stays_exact(sys22, plan22):
    law = exact_steer([0.125, -0.5, 0.75], sys22, plan22)
    assert isinstance(law.scale, F)
    assert all(isinstance(v, F) for v in law.meta["z_init"])
    end = ode_endpoint(sys22, law, [0.125, -0.5, 0.75])
    assert max(abs(v) for v in end) < 1e-9


def test_steer_irrational_pseudo_norm_rounds_the_scale(sys22, plan22):
    # pseudo-norm 1/3 + sqrt(1/2): no exact root, so the scale is the
    # nearest dyadic and the endpoint is still exactly zero
    z0 = [F(1, 3), F(0), F(1, 2)]
    assert not isinstance(pseudo_norm(z0, sys22.weights), F)
    law = exact_steer(z0, sys22, plan22)
    assert isinstance(law.scale, F)
    end = ode_endpoint(sys22, law, z0)
    assert max(abs(v) for v in end) < 1e-9


def test_steer_zero_point_gives_empty_law(sys23, plan23):
    law = exact_steer([F(0)] * sys23.n, sys23, plan23)
    assert law.nperiods == 0
    assert law.eval(0.0) == [0.0, 0.0]


def test_steer_checks_dimension(sys23, plan23):
    with pytest.raises(SpecError):
        exact_steer([F(1)] * 4, sys23, plan23)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_steer_rejects_a_non_finite_start(sys23, plan23, bad):
    # Fraction(v) raised a bare ValueError or OverflowError
    start = [0.5, bad, 0.0, 0.0, 0.0]
    with pytest.raises(SpecError) as exc:
        exact_steer(start, sys23, plan23)
    got = exc.value.payload["x_init"]
    assert got[0] == 0.5 and got[2:] == [0.0] * 3
    assert repr(got[1]) == repr(bad)


def corrupted_plan(plan, class_id):
    """A copy of plan whose class_id entry solves for twice the
    amplitudes it should; the original plan is left untouched."""
    entry = copy.copy(plan.classes[class_id])
    entry.B = [[2 * x for x in row] for row in entry.B]
    classes = list(plan.classes)
    classes[class_id] = entry
    return FrequencyPlan(plan.m, plan.r, classes)


def test_steer_raises_on_a_corrupted_control_matrix(sys22, plan22):
    bad = corrupted_plan(plan22, 2)
    with pytest.raises(SteeringResidual) as info:
        exact_steer([F(0), F(0), F(1)], sys22, bad)
    assert info.value.code == "steering-residual"
    assert info.value.payload == {"class_id": 2, "coordinate": 3}
    law = exact_steer([F(0), F(0), F(1)], sys22, plan22)
    assert law.nperiods == 3


_OPTIMIZED_STEER = """
import copy
from fractions import Fraction
from nilsteer.canonical import canonical_fields
from nilsteer.errors import SteeringResidual
from nilsteer.steer import FrequencyPlan, build_plan, exact_steer
assert not __debug__
system = canonical_fields(2, 2)
plan = build_plan(system)
entry = copy.copy(plan.classes[2])
entry.B = [[2 * x for x in row] for row in entry.B]
bad = FrequencyPlan(plan.m, plan.r, plan.classes[:2] + [entry])
try:
    exact_steer([Fraction(0), Fraction(0), Fraction(1)], system, bad)
except SteeringResidual as exc:
    print(exc.code, sorted(exc.payload.items()))
"""


def test_steering_residual_survives_optimized_mode():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_STEER],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "steering-residual [('class_id', 2), ('coordinate', 3)]")


# sha256 of the period maps a cold plan of each canonical system
# builds: per map in key order, the key, the read coordinates and, per
# coordinate, the sorted (monomial, sorted pi coefficients) pairs, so
# that the digest does not depend on the order terms were summed in.
PINNED_MAPS = [
    (2, 2, "9f00d672ddcc6583bd2fe5afaa98b44aa40a3287fd6ec1b5438d8409ffc29751"),
    (2, 3, "e96351644a9188e2224c9f81243b0f8318190518c8cce56cd2d63a3973ba41ec"),
    (3, 2, "c896fb01f189f141ad4693e9564c0e2966d2ff7390d90a8dc0a58601afdd5d43"),
    (2, 4, "70443263e93b9b3ffb65481c303681fe2b9ae70dd778d4b082b9f9bf00f4b2eb"),
    (3, 3, "f77e75a2c3fc7c6d175fe3262d9436f236cde5c6d6d764ae768b97ae4e10e6ab"),
    (4, 3, "894ef1350861c8334cb56cd30e55ae57b79842d5471b8daa75624a0c35c51275"),
    (3, 4, "fa368bfad0fe4e07cbd5dfe368e9b4c57ce080104ff1b69c09b698ca28c752eb"),
    (2, 5, "0b0e07fd21e81f5cbd00f5ddf15dfe133b6929fd0e61618952ebe0e8e149a223"),
]


@pytest.mark.parametrize("m,r,digest", PINNED_MAPS,
                         ids=["%d-%d" % p[:2] for p in PINNED_MAPS])
def test_pinned_period_maps(m, r, digest, monkeypatch):
    fresh_maps(monkeypatch)
    steer._kernel.cache_clear()
    build_plan(canonical_fields(m, r))
    maps = [(key, pmap.reads,
             [sorted((mono, sorted(coef.items())) for mono, coef in terms)
              for terms in pmap.disp])
            for key, pmap in sorted(steer._MAPS.items())]
    got = hashlib.sha256(repr(maps).encode()).hexdigest()
    assert got == digest


# Laws steered from a seeded start (seed None: x_i = (-1)^i / (3 + i)):
# the scale, and the sha256 of the repr of the per-period amplitudes.
PINNED_LAWS = [
    (2, 4, 101, F(8116628700401871, 1125899906842624),
     "d941f4b035d3943d505999aedc92056a3aa74a2b3654503e76767c49d2edc05b"),
    (3, 3, 103, F(8440124290058575, 562949953421312),
     "99216ff3a038b14388c14d4c3efc5fdf711301c3732f6b0474a63d6248ec7342"),
    (2, 5, None, F(3991510689205017, 562949953421312),
     "62a30d888685d5180640ebbbe3ccb9adb439c0bf6125dcfa0e59c1b639b6e039"),
]


# sha256 of the sorted-key JSON of each plan's to_json() together with
# the repr of every class's B and det and the str of its gains, taken
# while a combinatorial non-resonance check also gated every plan: equal
# digests show that control_matrix alone plans the same.
GATED_PLANS = [
    (2, 2,
     "7bed6dcfc5b7f776a68f4eb6737e651b8668aabd0d33a98def5c4e15b8f22e81"),
    (2, 3,
     "69a3a8b9e931be4c6125b6e465a18008395d2b36eda6c865622753930cd6bc3a"),
    (2, 4,
     "e75ae623a0238ce39c0d36f9a73aada531755e190823bf919d0fc8ce47b70aa9"),
    (3, 3,
     "1af870651d7dfecb4b33978b77e2909c272b82ef701d6ee19f0381f1893b182a"),
    (2, 5,
     "f5dfa19024f678f088c9ba2a053e98d4fbe961614ef7aac4b8f49bd2ced369ab"),
    (3, 4,
     "d198688a54e7add79cbe7cc33a335b65e947cbcea3cc378020a8014baf10e74f"),
    (4, 2,
     "d1f667cf1fc758c589649339b8179ceef3b1df4c84baed47567533d10fb97f9d"),
    (4, 3,
     "d13d1ab923279a991c32785d6efccfee7657e698c1e377bd76a48c66229fb314"),
    (5, 2,
     "80e0711b5038ce5842608ec7e49c066d78756bcd60f80c2df35c4e3dc730513d"),
]


@pytest.mark.parametrize("m,r,digest", GATED_PLANS,
                         ids=["%d-%d" % p[:2] for p in GATED_PLANS])
def test_exact_period_gate_keeps_every_plan(m, r, digest):
    system = canonical_fields(m, r)
    # the premise that makes the zero-state period complete: a rate
    # reads only strictly shorter coordinates of earlier classes
    cls = system.basis.class_of
    for j in range(1, system.n + 1):
        for expo in system.monomials[j - 1].terms:
            for i, a in enumerate(expo, 1):
                if a:
                    assert system.weights[i - 1] < system.weights[j - 1]
                    assert cls[i] < cls[j]
    plan = build_plan(system)
    blob = {"plan": plan.to_json(),
            "B": [[[repr(x) for x in row] for row in c.B]
                  for c in plan.classes],
            "gains": [[str(g) for g in c.gains] for c in plan.classes],
            "det": [repr(c.det) for c in plan.classes]}
    got = hashlib.sha256(json.dumps(blob, sort_keys=True).encode())
    assert got.hexdigest() == digest
    # the systems up to (3,3) steer a seeded start, and an exact replay
    # of the law from z_init ends at zero
    if (m, r) not in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        return
    x = oracles.random_rational_point(system.n, oracles.seeded(7 * m + r))
    law = exact_steer(x, system, plan)
    z = law.meta["z_init"]
    assert any(z)
    for p in law.periods:
        z = propagate_period(system, p["channels"], z, float_mode=False)
    for j, v in enumerate(z, 1):
        assert_exact_zero(v, "coordinate %d" % j)


@pytest.mark.parametrize("m,r,seed,scale,digest", PINNED_LAWS,
                         ids=["2-4", "3-3", "2-5"])
def test_pinned_laws(m, r, seed, scale, digest):
    system = canonical_fields(m, r)
    if seed is None:
        x = [F((-1) ** i, 3 + i) for i in range(1, system.n + 1)]
    else:
        x = oracles.random_rational_point(system.n, oracles.seeded(seed))
    plan = build_plan(system)
    law = exact_steer(x, system, plan)
    amps = [slot_amps(plan, p) for p in law.periods]
    assert law.scale == scale
    assert hashlib.sha256(repr(amps).encode()).hexdigest() == digest
    # the float replay of every period from z_init lands on the origin
    z = [float(v) for v in law.meta["z_init"]]
    for p in law.periods:
        z = propagate_period(system, p["channels"], z, float_mode=True)
    assert max(abs(v) for v in z) <= 1e-9


def test_steer_three_generators():
    sys32 = canonical_fields(3, 2)
    plan = build_plan(sys32)
    rng = oracles.seeded(31)
    z0 = oracles.random_rational_point(sys32.n, rng)
    law = exact_steer(z0, sys32, plan)
    assert law.m == 3
    end = ode_endpoint(sys32, law, z0)
    assert max(abs(v) for v in end) < 1e-8


# ---------------------------------------------------------------------------
# Control laws


def test_control_law_json_round_trip(sys23, plan23):
    rng = oracles.seeded(43)
    z0 = oracles.rational_unit_pseudo_point(sys23.weights, rng)
    law = exact_steer(z0, sys23, plan23)
    back = ControlLaw.from_json(law.to_json_str())
    assert back.m == law.m and back.nperiods == law.nperiods
    assert back.scale == law.scale
    end = TWO_PI * law.nperiods
    for t in [k * end / 23 for k in range(24)]:
        assert back.eval(t) == pytest.approx(law.eval(t), abs=1e-9)


def test_control_law_eval_clamps_outside_horizon(sys22, plan22):
    law = exact_steer([F(1, 2), F(-1, 3), F(1, 4)], sys22, plan22)
    assert all(math.isfinite(v) for v in law.eval(-0.5))
    end = TWO_PI * law.nperiods
    assert all(math.isfinite(v) for v in law.eval(end + 1.0))


# ---------------------------------------------------------------------------
# Concatenation


def junction_gaps(law):
    """Each channel's value at the law's start, then its jump at every
    junction, computed symbolically."""
    worst = []
    prev = None
    for p in law.periods:
        us = channel_trigpolys(p["channels"])
        for c, u in enumerate(us):
            start = oracles.trig_value_zero(u)
            if prev is None:
                worst.append(start)
            else:
                worst.append(simplify_value(prev[c] - start))
        # the value at 2 pi: the start plus the period integral of u'
        prev = [simplify_value(oracles.trig_value_zero(u) + end_value(
            period_integral(oracles.trig_derivative(u), ONE))) for u in us]
    return worst


def test_unsmoothed_law_has_an_input_jump(sys23, plan23):
    rng = oracles.seeded(5)
    z0 = oracles.rational_unit_pseudo_point(sys23.weights, rng)
    law = exact_steer(z0, sys23, plan23)
    gaps = [abs(float(g)) for g in junction_gaps(law)]
    assert max(gaps) > 1e-3


def test_plain_concatenation_keeps_periods(sys22, plan22):
    law1 = exact_steer([F(1, 2), F(-1, 3), F(1, 4)], sys22, plan22)
    law2 = exact_steer([F(-1, 5), F(1, 7), F(2, 3)], sys22, plan22)
    joined = concatenate([law1, law2], 2)
    assert joined.nperiods == law1.nperiods + law2.nperiods
    assert joined.scale == 1
    laws = [law1] * law1.nperiods + [law2] * law2.nperiods
    for law, p, q in zip(laws, law1.periods + law2.periods,
                         joined.periods):
        for terms, folded in zip(p["channels"], q["channels"]):
            assert folded == [(a * law.scale, w, h) for a, w, h in terms]
    end1 = TWO_PI * law1.nperiods
    for t in (0.3, 2.9, 7.1, end1 + 0.4):
        want = (law1 if t < end1 else law2).eval(
            t if t < end1 else t - end1)
        assert joined.eval(t) == pytest.approx(want, abs=1e-12)


def test_periods_store_each_amplitude_once(sys23, plan23):
    # a period holds its class and its channels alone, so joining laws,
    # which scales the channels, leaves no copy of an amplitude unscaled
    rng = oracles.seeded(37)
    laws = [exact_steer(oracles.random_rational_point(sys23.n, rng),
                        sys23, plan23) for _ in range(2)]
    joined = concatenate(laws, 2)
    for p in laws[0].periods + laws[1].periods + joined.periods:
        assert set(p) == {"class_id", "elements", "channels"}
    own = [(law, p) for law in laws for p in law.periods]
    for (law, p), q in zip(own, joined.periods):
        assert slot_amps(plan23, q) == [law.scale * a
                                        for a in slot_amps(plan23, p)]
