"""Tests for exact sinusoidal steering of the canonical forms."""

import copy
import hashlib
import itertools
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
from nilsteer.errors import (SearchBudgetExhausted, SingularMatrix,
                             SpecError, SteeringResidual)
from nilsteer.poly import det_matrix, invert_matrix, mat_vec
from nilsteer.privcoord import dilate, pseudo_norm
from nilsteer.steer import (
    ClassPlan, ControlLaw, FrequencyPlan, PiFrac, PiPoly, SlotPlan, TrigPoly,
    _kernel, _reduce_pairs, build_plan, channel_trigpolys, concatenate,
    control_matrix, exact_steer, period_end, plan_class, plan_frequencies,
    TWO_PI, propagate_period, simplify_value, steer_class,
    template_channels, verify_nonresonance,
)

F = Fraction


def pi_times(q):
    return PiFrac.lift(PiPoly({1: F(q)}))


def assert_exact_zero(v, label=""):
    assert not simplify_value(v), (label, v)


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
# Rational functions of pi


def test_pipoly_product_and_evaluation():
    a = PiPoly({0: 2, 1: 3})
    b = PiPoly({0: 1, 1: -1})
    assert a.mul(b) == PiPoly({0: 2, 1: 1, 2: -3})
    assert a.eval_fraction(F(1, 2)) == F(7, 2)
    assert float(b) == pytest.approx(1.0 - math.pi, abs=1e-15)
    assert a.add(a.neg()).is_zero()


def test_pifrac_equality_without_reduction():
    num = PiPoly({2: 1, 0: -1})
    den = PiPoly({1: 1, 0: -1})
    lazy = PiFrac(num, den, reduce=False)
    assert lazy == PiPoly({1: 1, 0: 1})
    red = lazy.reduced()
    assert red.den == PiPoly({0: 1})
    assert red.num == PiPoly({1: 1, 0: 1})


def test_pifrac_gcd_cancels_common_factor():
    # (pi^2 - 1) / (pi + 1)^2 reduces to (pi - 1) / (pi + 1)
    frac = PiFrac(PiPoly({2: 1, 0: -1}), PiPoly({2: 1, 1: 2, 0: 1}))
    assert frac.num == PiPoly({1: 1, 0: -1})
    assert frac.den == PiPoly({1: 1, 0: 1})


def test_pifrac_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PiFrac(PiPoly({0: 1}), PiPoly())
    with pytest.raises(ZeroDivisionError):
        PiFrac.lift(1) / PiFrac(PiPoly(), None, reduce=False)


def test_pifrac_scalar_fast_paths():
    x = PiFrac(PiPoly({1: 1}), PiPoly({0: 2}))
    assert (x + 0) is x
    assert x * F(2) == PiPoly({1: 1})
    assert (x * 4) / 2 == PiPoly({1: 1})
    assert 1 / (x * 2) == PiFrac(PiPoly({0: 1}), PiPoly({1: 1}))
    assert isinstance(x + 0.5, float)
    assert float(x) == pytest.approx(math.pi / 2, abs=1e-15)


def small_fraction():
    return st.fractions(min_value=-3, max_value=3, max_denominator=8)


def pifrac_strategy():
    return st.builds(
        lambda a, b, c, d: PiFrac(PiPoly({0: a, 1: b}),
                                  PiPoly({0: c, 1: d}), reduce=False),
        small_fraction(), small_fraction(),
        small_fraction().filter(lambda q: q != 0), small_fraction())


@settings(max_examples=50, deadline=None)
@given(pifrac_strategy(), pifrac_strategy(), pifrac_strategy())
def test_pifrac_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert_exact_zero(a - a)
    if not b.is_zero():
        assert (a / b) * b == a


def test_simplify_value_collapses_rational_fractions():
    three = PiFrac(PiPoly({1: 3}), PiPoly({1: 1}), reduce=False)
    out = simplify_value(three)
    assert isinstance(out, F) and out == 3
    pi = PiFrac.lift(PiPoly({1: 1}))
    assert isinstance(simplify_value(pi), PiFrac)
    assert simplify_value(F(5, 7)) == F(5, 7)


def test_coeff_is_zero_accepts_both_kinds():
    # Zero tests on coefficients are plain truthiness, for every kind.
    assert not F(0)
    assert not PiFrac(PiPoly(), None, reduce=False)
    assert not PiFrac(PiPoly({1: F(1)}).add(PiPoly({1: F(-1)})))
    assert not 0.0
    assert F(1, 9)
    assert pi_times(1)
    assert PiFrac(PiPoly({2: F(-1, 3)}), PiPoly({1: F(5)}))
    assert 1e-300


# ---------------------------------------------------------------------------
# Trigonometric polynomials


def test_sinusoid_quarter_convention():
    for q in range(4):
        u = TrigPoly.sinusoid(F(3, 2), 5, q)
        for t in (0.0, 0.37, 1.9, 4.4):
            want = 1.5 * math.cos(5 * t - q * math.pi / 2)
            assert oracles.trig_eval_float(u, t) == pytest.approx(
                want, abs=1e-12)


def test_product_matches_pointwise_values():
    a = TrigPoly.sinusoid(F(1), 3, 0).add(TrigPoly.sinusoid(F(2), 5, 1))
    b = TrigPoly.sinusoid(F(1), 1, 1).add(TrigPoly.sinusoid(F(-1), 2, 0))
    ab = a.mul(b)
    for t in (0.0, 0.21, 1.3, 2.8, 5.9):
        assert oracles.trig_eval_float(ab, t) == pytest.approx(
            oracles.trig_eval_float(a, t) * oracles.trig_eval_float(b, t),
            abs=1e-12)


def test_antiderivative_inverts_derivative():
    u = TrigPoly({(1, 3, 0): F(2), (0, 1, 1): F(-1, 3), (2, 0, 0): F(1, 5)})
    back = oracles.trig_derivative(u.antiderivative())
    diff = back.add(TrigPoly({k: -c for k, c in u.terms.items()}))
    assert not any(simplify_value(c) for c in diff.terms.values())
    assert_exact_zero(u.antiderivative().value_zero())


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_antiderivative_matches_quadrature():
    u = TrigPoly({(1, 4, 0): F(1), (0, 2, 1): F(3), (0, 0, 0): F(1, 7)})
    horizon = 2 * math.pi
    # one quad piece per oscillation of the top frequency; a whole
    # period in one piece trips quad's roundoff detection
    top = max(w for _, w, _ in u.terms)
    ref = oracles.quad_over_periods(
        lambda t: oracles.trig_eval_float(u, t), horizon, top)
    got = oracles.trig_eval_float(u.antiderivative(), horizon)
    assert got == pytest.approx(ref, abs=1e-10)
    one = TrigPoly.const(F(1))
    assert period_end(F(0), u, one, True) == pytest.approx(ref, abs=1e-10)
    exact = period_end(F(0), u, one, False)
    assert float(exact) == pytest.approx(ref, abs=1e-10)


def test_squared_cosine_integrates_to_pi_exactly():
    u = TrigPoly.sinusoid(F(1), 3, 0)
    assert period_end(F(0), u, u, False) == pi_times(1)


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
        exact, value = _kernel(p, w1, s1, w2, s2)
        got = sum(sympy.Rational(r.numerator, r.denominator) * sympy.pi ** d
                  for d, r in exact.c.items())
        assert sympy.expand(got - want) == 0, (p, w1, s1, w2, s2)
        assert value == pytest.approx(float(want), rel=1e-15, abs=1e-15)


# ---------------------------------------------------------------------------
# One-period propagation


def test_constant_controls_sweep_quadratic_area(sys22):
    a, b = F(1, 3), F(-2, 5)
    channels = [[(a, 0, 0)], [(b, 0, 0)]]
    end = propagate_period(sys22, channels, [F(0)] * 3, float_mode=False)
    assert end[0] == pi_times(2 * a)
    assert end[1] == pi_times(2 * b)
    assert end[2] == PiFrac.lift(PiPoly({2: 2 * a * b}))


def test_float_period_matches_ode(sys33):
    # the float route of the period integral, which a law's float
    # replay runs, against scipy on the canonical fields
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
# Frequency plans: frozen values for the small systems


def test_generator_classes_use_constant_controls(plan23):
    for ci in (0, 1):
        entry = plan23.classes[ci]
        assert entry.is_generator
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
    assert verify_nonresonance(sys25.basis, entry)


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


def test_spacing_multiplies_the_chain(sys23):
    entry = plan_frequencies(sys23.basis, 3, spacing=2)
    slot = entry.slots[0]
    assert slot.channels == ((1, 7), ())
    assert slot.resonance == 8
    assert slot.carrier == 49


def test_rotation_permutes_channel_fill_order(sys25):
    base = plan_frequencies(sys25.basis, 9, rotation=0)
    rot = plan_frequencies(sys25.basis, 9, rotation=1)
    assert base.slots[0].channels != rot.slots[0].channels
    assert rot.slots[0].channels[1] == (1,)


# ---------------------------------------------------------------------------
# Non-resonance verification


def test_reduce_pairs_cancels_matched_quadrature_terms():
    combo = {(0, 5, 1): 2, (0, 5, -1): 1, (1, 3, 1): 1}
    assert _reduce_pairs(combo) == frozenset({((0, 5, 1), 1),
                                              ((1, 3, 1), 1)})
    balanced = {(0, 5, 1): 1, (0, 5, -1): 1}
    assert _reduce_pairs(balanced) == frozenset()


def test_verifier_accepts_all_planned_classes(sys24, plan24):
    for entry in plan24.classes:
        if not entry.is_generator:
            assert verify_nonresonance(sys24.basis, entry)


def test_verifier_rejects_mismatched_resonance(sys22):
    # resonance 2 over a single basic 1 never closes a zero sum
    bad = ClassPlan(2, (3,), (1, 1), 1,
                    [SlotPlan(3, [(1,), ()], 2, 2, 3)], 1)
    assert not verify_nonresonance(sys22.basis, bad)


def test_resonant_carrier_caught_by_both_gates(sys24):
    # carrier 3 closes 1 + 2 = 3 against an already-settled length-3
    # coordinate; the combinatorial check and the exact propagation
    # must both reject the plan
    ci = sys24.basis.class_of[6]
    bad = ClassPlan(ci, (6,), (3, 1), 1,
                    [SlotPlan(6, [(1, 2, 3), ()], 2, 6, 3)], 1)
    assert not verify_nonresonance(sys24.basis, bad)
    with pytest.raises(SingularMatrix, match="settled coordinate 4"):
        control_matrix(sys24, bad)


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
    target = [F(3, 7)]
    channels, amps = steer_class(target, entry)
    assert len(amps) == 1
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


def test_determinant_threshold_raises(sys23):
    entry = plan_frequencies(sys23.basis, 2)
    with pytest.raises(SingularMatrix, match="determinant"):
        control_matrix(sys23, entry, det_threshold=1e9)


def test_search_budget_exhaustion(sys23):
    with pytest.raises(SearchBudgetExhausted):
        plan_class(sys23, 2, budget=0)
    with pytest.raises(SearchBudgetExhausted) as info:
        plan_class(sys23, 2, budget=2, det_threshold=1e9)
    assert "determinant" in info.value.payload["last_error"]


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
        assert p1["amps"] == p4["amps"]


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


@pytest.mark.parametrize("m,r,seed,scale,digest", PINNED_LAWS,
                         ids=["2-4", "3-3", "2-5"])
def test_pinned_laws(m, r, seed, scale, digest):
    system = canonical_fields(m, r)
    if seed is None:
        x = [F((-1) ** i, 3 + i) for i in range(1, system.n + 1)]
    else:
        x = oracles.random_rational_point(system.n, oracles.seeded(seed))
    law = exact_steer(x, system, build_plan(system))
    amps = [p["amps"] for p in law.periods]
    assert law.scale == scale
    assert hashlib.sha256(repr(amps).encode()).hexdigest() == digest
    if r == 5:
        return
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
            start = simplify_value(u.value_zero())
            if prev is None:
                worst.append(start)
            else:
                diff = prev[c] - start
                worst.append(simplify_value(diff)
                             if isinstance(diff, PiFrac) else diff)
        # the value at 2 pi: the start plus the period integral of u'
        one = TrigPoly.const(F(1))
        prev = [period_end(u.value_zero(), oracles.trig_derivative(u),
                           one, False) for u in us]
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
    joined = concatenate([law1, law2])
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
