"""Tests for the symbolic algebra layer."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import oracles
from nilsteer.desing import DET_THRESHOLD, _det_gate, _norm_gate, column_norm
from nilsteer.errors import SingularMatrix, SpecError
from nilsteer.poly import (
    ExprField, Poly, TriangularMap, WeightedPolynomialField, det_matrix,
    eadd, ecos, emul, epow, erat, esin, evar, expr_diff, expr_eval,
    expr_to_poly, expr_to_str, invert_matrix, is_exact, lie_bracket,
    parse_expr, poly_to_expr, read_coordinates, solve_unique, taylor_poly,
    taylor_truncate, wdeg,
)
from oracles import nonholonomic_order, weighted_components
from nilsteer.steer import PiPoly

X1, X2, X3 = evar(0), evar(1), evar(2)


def to_sympy(p, xs):
    total = sympy.S(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(
            c, Fraction) else sympy.Float(c)
        for x, a in zip(xs, e):
            term *= x ** a
        total += term
    return sympy.expand(total)


# ---------------------------------------------------------------------------
# parser and expressions


def test_parse_round_trip_simple():
    names = ["x1", "x2", "x3"]
    for text in ["x1 + 2*x2", "cos(x3)", "x1^2*sin(x2) - 3/4",
                 "-(x1 - x2)^3", "1.5*x1", "x1*x2*x3"]:
        e = parse_expr(text, names)
        again = parse_expr(expr_to_str(e, names), names)
        assert e == again


def test_parse_decimal_is_exact():
    e = parse_expr("0.125*x1", ["x1"])
    p = expr_to_poly(e, 1)
    assert p.terms == {(1,): Fraction(1, 8)}


def test_parse_division_by_constant():
    e = parse_expr("x1/4", ["x1"])
    assert expr_to_poly(e, 1).terms == {(1,): Fraction(1, 4)}


def test_parse_errors_carry_position():
    with pytest.raises(SpecError) as exc:
        parse_expr("x1 +\n* x2", ["x1", "x2"])
    assert exc.value.payload["line"] == 2
    with pytest.raises(SpecError):
        parse_expr("x1 / x2", ["x1", "x2"])
    with pytest.raises(SpecError):
        parse_expr("y1", ["x1"])
    with pytest.raises(SpecError):
        parse_expr("x1^-2", ["x1"])
    with pytest.raises(SpecError):
        parse_expr("x1 x2", ["x1", "x2"])


def test_field_specs_fail_with_spec_error():
    y = parse_expr("y", ["x", "y"])
    cases = [
        (lambda: ExprField([]), {"components": 0, "variables": []}),
        # y is variable 1, outside a field on one variable
        (lambda: ExprField([y]), {"components": 1, "variables": [1]}),
        (lambda: ExprField([esin(emul(X1, X3)), X2]),
         {"components": 2, "variables": [2]}),
        (lambda: WeightedPolynomialField([]),
         {"components": 0, "variables": []}),
        (lambda: WeightedPolynomialField([Poly.var(2, 0), Poly.var(3, 1)]),
         {"components": 2, "variables": [2, 3]}),
        (lambda: WeightedPolynomialField([Poly.var(3, 0), Poly.var(3, 1)]),
         {"components": 2, "variables": [3]}),
    ]
    for build, payload in cases:
        with pytest.raises(SpecError) as exc:
            build()
        assert exc.value.payload == payload
    assert ExprField([y, X1]).evaluate([1.0, 2.0]) == [2.0, 1.0]


def test_negative_exponent_fails_with_spec_error():
    with pytest.raises(SpecError) as exc:
        epow(X1, -2)
    assert exc.value.payload == {"exponent": -2}


def test_shrinking_pad_fails_with_spec_error():
    p = Poly.var(3, 0)
    with pytest.raises(SpecError) as exc:
        p.pad(2)
    assert exc.value.payload == {"n": 3, "new_n": 2}
    assert p.pad(4).terms == {(1, 0, 0, 0): 1}


def test_double_star_power():
    assert parse_expr("x1**3", ["x1"]) == parse_expr("x1^3", ["x1"])


def test_expr_diff_and_eval():
    e = esin(emul(X1, X2))
    d = expr_diff(e, 0)
    # d/dx1 sin(x1 x2) = x2 cos(x1 x2)
    val = expr_eval(d, [Fraction(0), Fraction(5)])
    assert val == 5
    assert expr_eval(e, [0, 7]) == 0


def test_expr_eval_trig_table():
    f = expr_eval(esin(X1), [0.25])
    assert isinstance(f, float) and abs(f - math.sin(0.25)) < 1e-15


# ---------------------------------------------------------------------------
# polynomials


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)


def poly_strategy(n=3, max_deg=2, max_terms=4):
    expo = st.tuples(*[st.integers(0, max_deg) for _ in range(n)])
    return st.dictionaries(expo, small_fracs, max_size=max_terms).map(
        lambda d: Poly(n, d))


@settings(max_examples=40, deadline=None)
@given(poly_strategy(), poly_strategy())
def test_poly_mul_matches_sympy(p, q):
    xs = sympy.symbols("x1:4")
    lhs = to_sympy(p.mul(q), xs)
    rhs = sympy.expand(to_sympy(p, xs) * to_sympy(q, xs))
    assert sympy.simplify(lhs - rhs) == 0


@settings(max_examples=25, deadline=None)
@given(poly_strategy(max_deg=2, max_terms=3), st.integers(0, 3))
def test_poly_pow_matches_sympy(p, k):
    xs = sympy.symbols("x1:4")
    assert sympy.simplify(to_sympy(p.pow(k), xs)
                          - to_sympy(p, xs) ** k) == 0


def test_poly_subst_and_shift():
    p = Poly(2, {(2, 0): Fraction(1), (0, 1): Fraction(3)})
    reps = [Poly.var(2, 0).add(Poly.var(2, 1)), Poly.var(2, 1)]
    q = p.subst(reps)
    xs = sympy.symbols("x1:3")
    expect = sympy.expand((xs[0] + xs[1]) ** 2 + 3 * xs[1])
    assert sympy.simplify(to_sympy(q, xs) - expect) == 0
    shifted = p.shift([Fraction(1), Fraction(-2)])
    assert shifted.eval([0, 0]) == p.eval([1, -2])
    assert shifted.eval([Fraction(1, 2), 1]) == p.eval([Fraction(3, 2), -1])


def test_weighted_truncation():
    w = (1, 2)
    p = Poly(2, {(3, 0): Fraction(1), (1, 1): Fraction(1),
                 (0, 2): Fraction(1)})
    t = p.truncate(w, 3)
    assert (3, 0) in t.terms and (1, 1) in t.terms
    assert (0, 2) not in t.terms
    # a product cut at total degree 3, then graded by w
    q = Poly.var(2, 0).add(Poly.var(2, 1))
    prod = p.mul(q, 3)
    assert prod == p.mul(q).truncate((1, 1), 3)
    assert prod.terms == {(2, 1): 1, (1, 2): 2, (0, 3): 1}
    assert prod.truncate(w, 4).terms == {(2, 1): 1}
    # with weights of at least 1, a total cap of 4 keeps every term of
    # weighted degree 4 or less
    cut = p.mul(q, 4).truncate(w, 4)
    assert cut == p.mul(q).truncate(w, 4)
    assert cut.terms == {(2, 1): 1, (4, 0): 1}
    for e in cut.terms:
        assert e[0] * 1 + e[1] * 2 <= 4


@settings(max_examples=60, deadline=None)
@given(poly_strategy(max_deg=3, max_terms=6),
       st.tuples(*[st.integers(1, 4)] * 3),
       st.tuples(*[st.integers(0, 3)] * 3), st.integers(0, 2))
def test_low_part_times_a_monomial_derivative(p, wt, expo, k):
    # the identity the homogeneous identification of a chart round
    # rests on: d_k m is one monomial of weighted degree wdeg(m) - wt[k],
    # so cutting p below wt[k] before the product keeps exactly the
    # product's terms below wdeg(m), in the same order
    assume(expo[k] > 0)
    d = Poly.monomial(3, expo, Fraction(1)).diff(k)
    got = p.truncate(wt, wt[k] - 1).mul(d)
    want = p.mul(d).truncate(wt, wdeg(expo, wt) - 1)
    assert got == want
    assert list(got.terms) == list(want.terms)


def test_expr_poly_round_trip():
    p = Poly(3, {(1, 2, 0): Fraction(-3, 2), (0, 0, 1): Fraction(7)})
    assert expr_to_poly(poly_to_expr(p), 3) == p


# ---------------------------------------------------------------------------
# Taylor expansion


def test_taylor_polynomial_recentre_exact():
    # polynomial input: weighted Taylor is exact recentering
    e = parse_expr("x1^2*x2 + x2^3", ["x1", "x2"])
    anchor = [Fraction(1), Fraction(-1)]
    p = taylor_poly(e, anchor, 10)
    assert all(is_exact(c) for c in p.terms.values())
    for h1, h2 in [(0, 0), (Fraction(1, 3), Fraction(1, 2))]:
        direct = expr_eval(e, [anchor[0] + h1, anchor[1] + h2])
        assert p.eval([h1, h2]) == direct


def test_taylor_sin_at_zero_exact():
    p = taylor_poly(esin(X1), [Fraction(0)], 5)
    assert all(is_exact(c) for c in p.terms.values())
    assert p.terms == {(1,): Fraction(1), (3,): Fraction(-1, 6),
                       (5,): Fraction(1, 120)}


def test_taylor_float_fallback_flagged():
    p = taylor_poly(esin(X1), [Fraction(1, 3)], 3)
    assert not all(is_exact(c) for c in p.terms.values())
    assert abs(float(p.terms[(0,)]) - math.sin(1 / 3)) < 1e-15


def test_taylor_jets_match_finite_differences():
    # first-order jet coefficients vs an independent numeric derivative
    comps = [parse_expr(t, ["x1", "x2", "x3"]) for t in
             ["cos(x3)*x1 + x2^2", "sin(x3)", "x1*x2"]]
    anchor = [0.4, -0.3, 0.7]
    field = ExprField(comps)
    approx = taylor_truncate(field, anchor, 2)
    assert not any(all(is_exact(v) for v in c.terms.values())
                   for c in approx.comps)
    for j, comp in enumerate(comps):
        def fun(pt, comp=comp):
            return float(expr_eval(comp, pt))
        for i in range(3):
            direction = [1.0 if k == i else 0.0 for k in range(3)]
            fd = oracles.fd_directional(fun, anchor, direction)
            expo = tuple(1 if k == i else 0 for k in range(3))
            got = float(approx.comps[j].terms.get(expo, 0.0))
            assert abs(got - fd) < 1e-7


def test_taylor_weighted_cap_respects_weights():
    e = parse_expr("x2^2 + x1^5", ["x1", "x2"])
    jet = taylor_poly(e, [Fraction(0), Fraction(0)], 5)
    assert jet.terms == {(0, 2): 1, (5, 0): 1}
    p = jet.truncate((1, 3), 5)
    assert (0, 1) not in p.terms
    assert p.terms.get((5, 0)) == 1
    assert (0, 2) not in p.terms  # weighted degree 6 > 5


# ---------------------------------------------------------------------------
# brackets


def field_strategy(n=3):
    return st.tuples(*[poly_strategy(n, max_deg=1, max_terms=3)
                       for _ in range(n)]).map(
        lambda comps: WeightedPolynomialField(comps))


def test_bracket_hand_value():
    # X1 = d/dx1, X2 = d/dx2 + x1^2 d/dx3 has bracket 2 x1 d/dx3
    n = 3
    x1sq = Poly(3, {(2, 0, 0): Fraction(1)})
    v = WeightedPolynomialField([Poly.const(n, 1), Poly.zero(n),
                                 Poly.zero(n)])
    w = WeightedPolynomialField([Poly.zero(n), Poly.const(n, 1), x1sq])
    b = lie_bracket(v, w)
    assert b.comps[0].is_zero() and b.comps[1].is_zero()
    assert b.comps[2].terms == {(1, 0, 0): Fraction(2)}


@settings(max_examples=30, deadline=None)
@given(field_strategy(), field_strategy())
def test_bracket_matches_sympy(v, w):
    xs = sympy.symbols("x1:4")
    got = lie_bracket(v, w)
    want = oracles.sym_bracket([to_sympy(c, xs) for c in v.comps],
                               [to_sympy(c, xs) for c in w.comps], xs)
    for g, s in zip(got.comps, want):
        assert sympy.simplify(to_sympy(g, xs) - s) == 0


@settings(max_examples=20, deadline=None)
@given(field_strategy(), field_strategy(), field_strategy())
def test_bracket_jacobi(u, v, w):
    terms = [lie_bracket(lie_bracket(u, v), w),
             lie_bracket(lie_bracket(v, w), u),
             lie_bracket(lie_bracket(w, u), v)]
    for a, b, c in zip(*(t.comps for t in terms)):
        assert a.add(b).add(c).is_zero()


def test_bracket_expr_fields():
    v = ExprField([ecos(X3), esin(X3), erat(0)])
    w = ExprField([erat(0), erat(0), erat(1)])
    b = lie_bracket(v, w)
    # [v, d/dx3] = (sin x3, -cos x3, 0)
    pt = [0.0, 0.0, 0.5]
    vals = b.evaluate(pt)
    assert abs(vals[0] - math.sin(0.5)) < 1e-15
    assert abs(vals[1] + math.cos(0.5)) < 1e-15
    assert vals[2] == 0



def test_read_coordinates_of_both_field_kinds():
    # a test of form: a shared subtree is read once, and x4 - x4 reads
    # x4, since the kernel references it
    shared = esin(evar(1))
    x4 = evar(3)
    e = ExprField([emul(shared, shared), epow(shared, 2), erat(0),
                   eadd(x4, emul(erat(-1), x4))])
    assert read_coordinates(e) == {1, 3}
    assert read_coordinates(ExprField([erat(1), erat(0)])) == set()
    # a Poly drops a zero coefficient's term, and with it its variables
    n = 4
    p = WeightedPolynomialField(
        [Poly.monomial(n, (0, 2, 0, 1), Fraction(1)), Poly.const(n, 1),
         Poly.zero(n), Poly.monomial(n, (1, 0, 0, 0), 0.0)])
    assert read_coordinates(p) == {1, 3}
    with pytest.raises(TypeError):
        read_coordinates([erat(1)])

# ---------------------------------------------------------------------------
# weighted components


def test_weighted_components_split_and_reassemble():
    w = (1, 1, 2)
    comps = [Poly.const(3, 1),
             Poly(3, {(1, 0, 0): Fraction(2)}),
             Poly(3, {(2, 0, 0): Fraction(1), (0, 0, 1): Fraction(1)})]
    f = WeightedPolynomialField(comps)
    parts = weighted_components(f, w)
    # degrees present: d/dx1 is -1; x1 d/dx2 is 0; x1^2 d/dx3 is 0;
    # x3 d/dx3 is 0 as well
    assert set(parts) == {-1, 0}
    total = [Poly.zero(3)] * 3
    for part in parts.values():
        total = [p.add(q) for p, q in zip(total, part.comps)]
    assert WeightedPolynomialField(total) == f
    lead = parts[-1]
    assert lead.comps[0].terms == {(0, 0, 0): Fraction(1)}


# ---------------------------------------------------------------------------
# triangular maps


def test_shear_inverse_exact():
    n = 3
    shifts = [None,
              Poly(n, {(2, 0, 0): Fraction(1, 2)}),
              Poly(n, {(1, 1, 0): Fraction(1), (3, 0, 0): Fraction(-1, 3)})]
    t = TriangularMap.shear(shifts)
    assert oracles.check_inverse(t)
    pt = [Fraction(1, 2), Fraction(-1), Fraction(2)]
    assert t.apply_inverse(t.apply(pt)) == pt


def test_affine_map_and_compose():
    m = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1)]]
    t = TriangularMap.affine(m, invert_matrix(m), [Fraction(1), Fraction(0)])
    assert oracles.check_inverse(t)
    assert t.apply([Fraction(1), Fraction(0)]) == [0, 0]
    assert t.apply([Fraction(2), Fraction(3)]) == [5, 3]
    shear = TriangularMap.shear([None, Poly(2, {(2, 0): Fraction(1)})])
    comp = shear.compose(t)
    pt = [Fraction(3), Fraction(-2)]
    assert comp.apply(pt) == shear.apply(t.apply(pt))
    assert oracles.check_inverse(comp)


def test_pushforward_matches_sympy():
    n = 2
    shear = TriangularMap.shear([None, Poly(2, {(2, 0): Fraction(1, 2)})])
    field = WeightedPolynomialField(
        [Poly.const(n, 1), Poly(n, {(1, 0): Fraction(1)})])
    got = shear.pushforward(field)
    xs = sympy.symbols("x1:3")
    phi = [xs[0], xs[1] + xs[0] ** 2 / 2]
    phi_inv = [xs[0], xs[1] - xs[0] ** 2 / 2]
    want = oracles.sym_pushforward(
        [to_sympy(c, xs) for c in field.comps], phi, phi_inv, xs)
    for g, s in zip(got.comps, want):
        assert sympy.simplify(to_sympy(g, xs) - s) == 0


@settings(max_examples=20, deadline=None)
@given(field_strategy())
def test_pushforward_round_trip(field):
    shifts = [None, Poly(3, {(2, 0, 0): Fraction(1)}),
              Poly(3, {(1, 1, 0): Fraction(-2)})]
    t = TriangularMap.shear(shifts)
    t_inv = TriangularMap(t.inv, t.comps)
    there = t.pushforward(field)
    back = t_inv.pushforward(there)
    assert back == field


# ---------------------------------------------------------------------------
# exact linear algebra


def test_invert_matrix_matches_sympy():
    rng = oracles.seeded(7)
    for _ in range(5):
        while True:
            rows = [[oracles.random_fraction(rng) for _ in range(4)]
                    for _ in range(4)]
            sm = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                                for c in r] for r in rows])
            if sm.det() != 0:
                break
        inv = invert_matrix(rows)
        want = sm.inv()
        for i in range(4):
            for j in range(4):
                assert sympy.Rational(inv[i][j].numerator,
                                      inv[i][j].denominator) == want[i, j]


def test_invert_singular_raises():
    with pytest.raises(SingularMatrix):
        invert_matrix([[Fraction(1), Fraction(2)],
                       [Fraction(2), Fraction(4)]])


@st.composite
def square_matrices(draw, entries):
    """n x n matrices for n = 1..5, sometimes with a zero column."""
    n = draw(st.integers(1, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    blank = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if blank is not None:
        for row in rows:
            row[blank] = 0.0 if isinstance(row[blank], float) else 0
    return rows


# exact zeros, and few magnitudes so that pivot candidates tie
FLOAT_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(square_matrices(FLOAT_ENTRIES))
def test_float_determinant_is_the_reference_elimination(rows):
    det = det_matrix(rows)
    want = oracles.det_elimination(rows)
    assert isinstance(det, float)
    assert det.hex() == want.hex()
    # the covering's gate: norms taken per column once, then multiplied
    # in column order, decide as the gate on the whole rows does
    norms = [column_norm(col) for col in zip(*rows)]
    assert _norm_gate(det, norms) == _det_gate(det, rows) == \
        oracles.det_gate_reference(det, rows, DET_THRESHOLD)


@settings(max_examples=60, deadline=None)
@given(square_matrices(st.integers(-3, 3)))
def test_exact_determinant_is_the_reference_elimination(rows):
    rows = [[Fraction(x, 2) for x in row] for row in rows]
    det = det_matrix(rows)
    assert isinstance(det, Fraction)
    assert det == oracles.det_elimination(rows)


def to_sympy_pi(v):
    """A Fraction or Laurent polynomial of pi as a sympy expression."""
    if isinstance(v, Fraction):
        return sympy.Rational(v.numerator, v.denominator)
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.pi ** d
                for d, c in v.c.items()), sympy.S(0))


def test_linear_algebra_core_on_pi_fractions():
    pi = PiPoly({1: 1})
    # zero leading entry: the pivot search must swap rows.  Each row is
    # one power of pi times a rational row, so every pivot elimination
    # meets is a monomial, a unit of the ring
    rows = [[Fraction(0), 2 * pi, pi / 2],
            [pi, pi / 3, 2 * pi],
            [1 / (3 * pi), 1 / pi, 5 / pi]]
    sm = sympy.Matrix([[to_sympy_pi(x) for x in r] for r in rows])
    det = det_matrix(rows)
    assert sympy.simplify(to_sympy_pi(det) - sm.det()) == 0
    inv = invert_matrix(rows)
    want = sm.inv()
    for i in range(3):
        for j in range(3):
            assert isinstance(inv[i][j], (Fraction, PiPoly))
            assert sympy.simplify(to_sympy_pi(inv[i][j]) - want[i, j]) == 0
    singular = [[pi, 2 * pi], [Fraction(1), Fraction(2)]]
    assert not det_matrix(singular)
    with pytest.raises(SingularMatrix):
        invert_matrix(singular)
    # all-int input: the inverse must stay exact, never drop to floats
    rows = [[2, 1], [1, 3]]
    det = det_matrix(rows)
    assert det == 5 and isinstance(det, Fraction)
    inv = invert_matrix(rows)
    assert inv == [[Fraction(3, 5), Fraction(-1, 5)],
                   [Fraction(-1, 5), Fraction(2, 5)]]
    assert all(isinstance(x, Fraction) for r in inv for x in r)


def test_solve_unique_matches_pinv():
    # three equations in two unknowns, consistent: the exact solution,
    # which is also the pseudo-inverse's
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)],
            [Fraction(5), Fraction(-6)]]
    want = [Fraction(1, 3), Fraction(-2, 7)]
    rhs = [r[0] * want[0] + r[1] * want[1] for r in rows]
    got = solve_unique(rows, rhs)
    assert got == want
    assert all(isinstance(x, Fraction) for x in got)
    a = sympy.Matrix([[int(x) for x in r] for r in rows])
    pinv = a.pinv() * sympy.Matrix([sympy.Rational(b.numerator, b.denominator)
                                    for b in rhs])
    assert [sympy.Rational(g.numerator, g.denominator) for g in got] \
        == list(pinv)
    # independent columns, inconsistent right-hand side
    with pytest.raises(ValueError):
        solve_unique(rows, rhs[:2] + [rhs[2] + 1])


def test_solve_unique_rejects_a_nontrivial_nullspace():
    # dependent columns: the second is twice the first, so (2, -1) is in
    # the kernel and the solution of a consistent right-hand side is not
    # unique
    rows = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(6)],
            [Fraction(-1), Fraction(-2)]]
    assert all(2 * r[0] - r[1] == 0 for r in rows)
    with pytest.raises(ValueError):
        solve_unique(rows, [Fraction(1), Fraction(3), Fraction(-1)])
    # fewer equations than unknowns: a two-dimensional kernel
    with pytest.raises(ValueError):
        solve_unique([[Fraction(1), Fraction(2), Fraction(3)],
                      [Fraction(2), Fraction(4), Fraction(6)]],
                     [Fraction(1), Fraction(2)])


# ---------------------------------------------------------------------------
# nonholonomic order


def martinet_fields():
    x1sq = Poly(3, {(2, 0, 0): Fraction(1)})
    v1 = WeightedPolynomialField([Poly.const(3, 1), Poly.zero(3),
                                  Poly.zero(3)])
    v2 = WeightedPolynomialField([Poly.zero(3), Poly.const(3, 1), x1sq])
    return [v1, v2]


def test_order_martinet_origin():
    fields = martinet_fields()
    f = poly_to_expr(Poly.var(3, 2))
    order, mode = nonholonomic_order(f, fields, [Fraction(0)] * 3, 5)
    assert order == 3 and mode == "exact"
    order, mode = nonholonomic_order(f, fields,
                                     [Fraction(1), Fraction(0),
                                      Fraction(0)], 5)
    assert order == 1


def test_order_zero_when_nonvanishing():
    fields = martinet_fields()
    f = poly_to_expr(Poly.const(3, 5))
    order, _ = nonholonomic_order(f, fields, [Fraction(0)] * 3, 3)
    assert order == 0


def test_order_cap_reported_as_none():
    fields = martinet_fields()
    # the zero function never shows up at any order
    order, _ = nonholonomic_order(erat(0), fields, [Fraction(0)] * 3, 4)
    assert order is None


def test_order_coordinate_independent():
    fields = martinet_fields()
    f_poly = Poly.var(3, 2)
    anchor = [Fraction(0), Fraction(0), Fraction(0)]
    base_order, _ = nonholonomic_order(poly_to_expr(f_poly), fields,
                                       anchor, 5)
    # change coordinates by an invertible shear and transport everything
    t = TriangularMap.shear([None, Poly(3, {(2, 0, 0): Fraction(1, 3)}),
                             Poly(3, {(1, 1, 0): Fraction(2)})])
    moved = [t.pushforward(v) for v in fields]
    f_moved = f_poly.subst(list(t.inv))
    new_anchor = t.apply(anchor)
    new_order, _ = nonholonomic_order(poly_to_expr(f_moved), moved,
                                      new_anchor, 5)
    assert new_order == base_order


def test_order_float_mode_on_trig_anchor():
    fields = [ExprField([ecos(X3), esin(X3), erat(0)]),
              ExprField([erat(0), erat(0), erat(1)])]
    f = poly_to_expr(Poly.var(3, 0))
    order, mode = nonholonomic_order(f, fields,
                                     [0.0, 0.0, 0.37], 3)
    assert order == 1
    assert mode == "float"
