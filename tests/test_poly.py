"""Tests for the symbolic algebra layer."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles
from nilsteer.errors import SingularMatrix, SpecError
from nilsteer.poly import (
    ExprField, Poly, TriangularMap, WeightedPolynomialField, det_matrix,
    ecos, erat, esin, evar, expr_diff, expr_eval, expr_to_poly, expr_to_str,
    invert_matrix, lie_bracket, nullspace, parse_expr, poly_to_expr,
    solve_min_norm, taylor_poly, taylor_truncate,
)
from oracles import nonholonomic_order, weighted_components
from nilsteer.steer import PiFrac, PiPoly

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


def test_double_star_power():
    assert parse_expr("x1**3", ["x1"]) == parse_expr("x1^3", ["x1"])


def test_expr_diff_and_eval():
    e = esin(X1 * X2)
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
    prod = p.mul(p, w, 4)
    for e in prod.terms:
        assert e[0] * 1 + e[1] * 2 <= 4


def test_expr_poly_round_trip():
    p = Poly(3, {(1, 2, 0): Fraction(-3, 2), (0, 0, 1): Fraction(7)})
    assert expr_to_poly(poly_to_expr(p), 3) == p


# ---------------------------------------------------------------------------
# Taylor expansion


def test_taylor_polynomial_recentre_exact():
    # polynomial input: weighted Taylor is exact recentering
    e = parse_expr("x1^2*x2 + x2^3", ["x1", "x2"])
    anchor = [Fraction(1), Fraction(-1)]
    p = taylor_poly(e, anchor, (1, 1), 10)
    assert p.is_exact()
    for h1, h2 in [(0, 0), (Fraction(1, 3), Fraction(1, 2))]:
        direct = expr_eval(e, [anchor[0] + h1, anchor[1] + h2])
        assert p.eval([h1, h2]) == direct


def test_taylor_sin_at_zero_exact():
    p = taylor_poly(esin(X1), [Fraction(0)], (1,), 5)
    assert p.is_exact()
    assert p.terms == {(1,): Fraction(1), (3,): Fraction(-1, 6),
                       (5,): Fraction(1, 120)}


def test_taylor_float_fallback_flagged():
    p = taylor_poly(esin(X1), [Fraction(1, 3)], (1,), 3)
    assert not p.is_exact()
    assert abs(float(p.terms[(0,)]) - math.sin(1 / 3)) < 1e-15


def test_taylor_jets_match_finite_differences():
    # first-order jet coefficients vs an independent numeric derivative
    comps = [parse_expr(t, ["x1", "x2", "x3"]) for t in
             ["cos(x3)*x1 + x2^2", "sin(x3)", "x1*x2"]]
    anchor = [0.4, -0.3, 0.7]
    field = ExprField(comps)
    approx = taylor_truncate(field, anchor, (1, 1, 1), 2)
    assert not any(c.is_exact() for c in approx.comps)
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
    p = taylor_poly(e, [Fraction(0), Fraction(0)], (1, 3), 5)
    assert (0, 1) not in p.terms
    assert p.terms.get((5, 0)) == 1
    assert (0, 2) not in p.terms  # weighted degree 6 > 5


# ---------------------------------------------------------------------------
# brackets


def field_strategy(n=3):
    return st.tuples(*[poly_strategy(n, max_deg=1, max_terms=3)
                       for _ in range(n)]).map(
        lambda comps: WeightedPolynomialField(comps, (1,) * n))


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


# ---------------------------------------------------------------------------
# weighted components


def test_weighted_components_split_and_reassemble():
    w = (1, 1, 2)
    comps = [Poly.const(3, 1),
             Poly(3, {(1, 0, 0): Fraction(2)}),
             Poly(3, {(2, 0, 0): Fraction(1), (0, 0, 1): Fraction(1)})]
    f = WeightedPolynomialField(comps, w)
    parts = weighted_components(f)
    # degrees present: d/dx1 is -1; x1 d/dx2 is 0; x1^2 d/dx3 is 0;
    # x3 d/dx3 is 0 as well
    assert set(parts) == {-1, 0}
    total = [Poly.zero(3)] * 3
    for part in parts.values():
        total = [p.add(q) for p, q in zip(total, part.comps)]
    assert WeightedPolynomialField(total, w) == f
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
    t = TriangularMap.affine(m, [Fraction(1), Fraction(0)])
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
        [Poly.const(n, 1), Poly(n, {(1, 0): Fraction(1)})], (1, 2))
    got = shear.pushforward(field, (1, 2))
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


def to_sympy_pi(v):
    """A Fraction or pi-fraction as a sympy expression in pi."""
    if isinstance(v, Fraction):
        return sympy.Rational(v.numerator, v.denominator)

    def pipoly(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.pi ** d for d, c in p.c.items()), sympy.S(0))

    return pipoly(v.num) / pipoly(v.den)


def test_linear_algebra_core_on_pi_fractions():
    pi = PiFrac.lift(PiPoly({1: 1}))
    # zero leading entry: the pivot search must swap rows
    rows = [[Fraction(0), pi * pi - 1, pi / 2],
            [pi, Fraction(1), Fraction(2)],
            [Fraction(1, 3), 1 / pi, Fraction(5)]]
    sm = sympy.Matrix([[to_sympy_pi(x) for x in r] for r in rows])
    det = det_matrix(rows)
    assert sympy.simplify(to_sympy_pi(det) - sm.det()) == 0
    inv = invert_matrix(rows)
    want = sm.inv()
    for i in range(3):
        for j in range(3):
            assert isinstance(inv[i][j], (Fraction, PiFrac))
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


def test_nullspace_dimension_and_membership():
    rows = [[Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)]]
    basis = nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        for r in rows:
            assert sum(a * b for a, b in zip(r, v)) == 0


def test_solve_min_norm_matches_pinv():
    rows = [[Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(1)]]
    rhs = [Fraction(2), Fraction(3)]
    got = solve_min_norm(rows, rhs)
    a = sympy.Matrix([[1, 1, 0], [0, 1, 1]])
    want = a.pinv() * sympy.Matrix([2, 3])
    for g, w in zip(got, want):
        assert sympy.Rational(g.numerator, g.denominator) == w
    with pytest.raises(ValueError):
        solve_min_norm([[Fraction(1), Fraction(1)],
                        [Fraction(1), Fraction(1)]],
                       [Fraction(0), Fraction(1)])


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
