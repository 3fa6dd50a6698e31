"""Exact symbolic algebra for vector fields and coordinate changes.

Two representations are used side by side.  ``Expr`` is a small general
expression tree (rationals, variables, sums, products, integer powers,
sin, cos) that covers arbitrary smooth inputs.  ``Poly`` is a sparse
multivariate polynomial over exact rationals (or floats, when an input
was only available numerically) and carries all the weighted-degree
machinery: weighted truncation, graded parts, triangular coordinate
changes with exact inverses, and pushforwards.

Coefficients are ``fractions.Fraction`` whenever the inputs allow it;
any float anywhere poisons the computation to float, and operations
report that degradation where the contract asks for it.
"""

import math
from fractions import Fraction

from .errors import SingularMatrix, SpecError

F0 = Fraction(0)
F1 = Fraction(1)


def _num(x):
    """Coerce to Fraction when exact, keep floats as floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise TypeError("expected int, Fraction or float, got %r" % (x,))


def is_exact(x):
    return isinstance(x, (int, Fraction))


def _sincos(value, trig=None):
    """Return (sin, cos, exact?) of an exact or float value.

    ``trig`` maps exact argument values to exact (sin, cos) pairs; it is
    how rational-circle anchors stay exact through a Taylor expansion.
    """
    if value == 0:
        return F0, F1, True
    if is_exact(value) and trig:
        hit = trig.get(value)
        if hit is not None:
            return _num(hit[0]), _num(hit[1]), True
    fv = float(value)
    return math.sin(fv), math.cos(fv), False


# ---------------------------------------------------------------------------
# Expression trees


class Expr:
    """Immutable expression node.

    kind is one of 'rat', 'var', 'add', 'mul', 'pow', 'sin', 'cos'.
    Payload layout: rat -> a=Fraction|float; var -> a=int index;
    add/mul -> a=tuple of children; pow -> a=base, b=int exponent >= 2;
    sin/cos -> a=argument.
    """

    __slots__ = ("kind", "a", "b")

    def __init__(self, kind, a, b=None):
        self.kind = kind
        self.a = a
        self.b = b

    def key(self):
        if self.kind in ("add", "mul"):
            return (self.kind,) + tuple(c.key() for c in self.a)
        if self.kind == "pow":
            return ("pow", self.a.key(), self.b)
        if self.kind in ("sin", "cos"):
            return (self.kind, self.a.key())
        return (self.kind, self.a)

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Expr(%s)" % expr_to_str(self, None)

    def __add__(self, other):
        return eadd(self, _as_expr(other))

    def __radd__(self, other):
        return eadd(_as_expr(other), self)

    def __sub__(self, other):
        return eadd(self, emul(erat(-1), _as_expr(other)))

    def __rsub__(self, other):
        return eadd(_as_expr(other), emul(erat(-1), self))

    def __mul__(self, other):
        return emul(self, _as_expr(other))

    def __rmul__(self, other):
        return emul(_as_expr(other), self)

    def __neg__(self):
        return emul(erat(-1), self)


def _as_expr(x):
    if isinstance(x, Expr):
        return x
    return erat(_num(x))


def erat(q):
    return Expr("rat", _num(q))


def evar(i):
    return Expr("var", int(i))


def eadd(*children):
    flat = []
    const = F0
    for c in children:
        if c.kind == "add":
            flat.extend(c.a)
        else:
            flat.append(c)
    rest = []
    for c in flat:
        if c.kind == "rat":
            const = const + c.a
        else:
            rest.append(c)
    if const != 0 or not rest:
        rest = [erat(const)] + rest
    if len(rest) == 1:
        return rest[0]
    return Expr("add", tuple(rest))


def emul(*children):
    flat = []
    const = F1
    for c in children:
        if c.kind == "mul":
            flat.extend(c.a)
        else:
            flat.append(c)
    rest = []
    for c in flat:
        if c.kind == "rat":
            const = const * c.a
        else:
            rest.append(c)
    if const == 0:
        return erat(0)
    if const != 1 or not rest:
        rest = [erat(const)] + rest
    if len(rest) == 1:
        return rest[0]
    return Expr("mul", tuple(rest))


def epow(base, k):
    k = int(k)
    if k < 0:
        raise ValueError("negative exponents are not supported")
    if k == 0:
        return erat(1)
    if k == 1:
        return base
    if base.kind == "rat":
        return erat(base.a ** k)
    if base.kind == "pow":
        return Expr("pow", base.a, base.b * k)
    return Expr("pow", base, k)


def esin(x):
    if x.kind == "rat" and x.a == 0:
        return erat(0)
    return Expr("sin", x)


def ecos(x):
    if x.kind == "rat" and x.a == 0:
        return erat(1)
    return Expr("cos", x)


def expr_diff(e, i):
    """Partial derivative with respect to variable index i."""
    k = e.kind
    if k == "rat":
        return erat(0)
    if k == "var":
        return erat(1 if e.a == i else 0)
    if k == "add":
        return eadd(*[expr_diff(c, i) for c in e.a])
    if k == "mul":
        terms = []
        cs = e.a
        for j in range(len(cs)):
            d = expr_diff(cs[j], i)
            if d.kind == "rat" and d.a == 0:
                continue
            terms.append(emul(*(cs[:j] + (d,) + cs[j + 1:])))
        return eadd(*terms) if terms else erat(0)
    if k == "pow":
        d = expr_diff(e.a, i)
        if d.kind == "rat" and d.a == 0:
            return erat(0)
        return emul(erat(e.b), epow(e.a, e.b - 1), d)
    if k == "sin":
        return emul(ecos(e.a), expr_diff(e.a, i))
    if k == "cos":
        return emul(erat(-1), esin(e.a), expr_diff(e.a, i))
    raise ValueError("unknown expression kind %r" % k)


def expr_eval(e, point, trig=None):
    k = e.kind
    if k == "rat":
        return e.a
    if k == "var":
        return _num(point[e.a])
    if k == "add":
        total = F0
        for c in e.a:
            total = total + expr_eval(c, point, trig)
        return total
    if k == "mul":
        total = F1
        for c in e.a:
            total = total * expr_eval(c, point, trig)
        return total
    if k == "pow":
        return expr_eval(e.a, point, trig) ** e.b
    if k == "sin":
        s, _, _ = _sincos(expr_eval(e.a, point, trig), trig)
        return s
    if k == "cos":
        _, c, _ = _sincos(expr_eval(e.a, point, trig), trig)
        return c
    raise ValueError("unknown expression kind %r" % k)


def expr_subs(e, mapping):
    """Substitute variables by expressions; mapping is {index: Expr}."""
    k = e.kind
    if k == "rat":
        return e
    if k == "var":
        return mapping.get(e.a, e)
    if k == "add":
        return eadd(*[expr_subs(c, mapping) for c in e.a])
    if k == "mul":
        return emul(*[expr_subs(c, mapping) for c in e.a])
    if k == "pow":
        return epow(expr_subs(e.a, mapping), e.b)
    if k == "sin":
        return esin(expr_subs(e.a, mapping))
    if k == "cos":
        return ecos(expr_subs(e.a, mapping))
    raise ValueError("unknown expression kind %r" % k)


def expr_is_polynomial(e):
    if e.kind in ("sin", "cos"):
        return False
    if e.kind in ("add", "mul"):
        return all(expr_is_polynomial(c) for c in e.a)
    if e.kind == "pow":
        return expr_is_polynomial(e.a)
    return True


def _fmt_coeff(c):
    if isinstance(c, Fraction):
        return str(c)
    return repr(c)


def expr_to_str(e, names=None):
    """Render an expression in the grammar accepted by parse_expr."""

    def name(i):
        if names is not None:
            return names[i]
        return "x%d" % (i + 1)

    def walk(node, parent):
        k = node.kind
        if k == "rat":
            s = _fmt_coeff(node.a)
            if (node.a < 0 or "/" in s) and parent in ("mul", "pow"):
                return "(%s)" % s
            return s
        if k == "var":
            return name(node.a)
        if k == "add":
            body = " + ".join(walk(c, "add") for c in node.a)
            body = body.replace("+ -", "- ")
            if parent in ("mul", "pow"):
                return "(%s)" % body
            return body
        if k == "mul":
            body = "*".join(walk(c, "mul") for c in node.a)
            if parent == "pow":
                return "(%s)" % body
            return body
        if k == "pow":
            return "%s^%d" % (walk(node.a, "pow"), node.b)
        if k in ("sin", "cos"):
            return "%s(%s)" % (k, walk(node.a, "add"))
        raise ValueError(k)

    return walk(e, "add")


# ---------------------------------------------------------------------------
# Expression parser

_TOKEN_WORD = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.items = []
        self._scan()
        self.idx = 0

    def _err(self, msg, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        raise SpecError("%s at line %d column %d" % (msg, line, col),
                        line=line, column=col)

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch in " \t\r\n":
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < len(text)
                                and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < len(text) and (text[j].isdigit()
                                         or (text[j] == "." and not seen_dot)):
                    if text[j] == ".":
                        seen_dot = True
                    j += 1
                self.items.append(("num", text[i:j], i))
                i = j
                continue
            if ch in _TOKEN_WORD:
                j = i
                while j < len(text) and (text[j] in _TOKEN_WORD
                                         or text[j].isdigit()):
                    j += 1
                self.items.append(("name", text[i:j], i))
                i = j
                continue
            if text.startswith("**", i):
                self.items.append(("op", "^", i))
                i += 2
                continue
            if ch in "+-*/^()":
                self.items.append(("op", ch, i))
                i += 1
                continue
            self._err("unexpected character %r" % ch, i)
        self.items.append(("end", "", len(text)))

    def peek(self):
        return self.items[self.idx]

    def take(self):
        tok = self.items[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            self._err("expected %r" % op, pos)
        return self.take()


def parse_expr(text, names):
    """Parse an expression string into an Expr.

    ``names`` lists the variable names in coordinate order.  Numbers are
    read exactly (decimals become rationals), ^ and ** raise to a
    nonnegative integer power, and / divides by a rational constant
    only.  sin and cos are the only functions.  Errors carry line and
    column information.
    """
    toks = _Tokens(text)
    index = {nm: i for i, nm in enumerate(names)}

    def parse_sum():
        node = parse_term()
        while True:
            kind, val, _ = toks.peek()
            if kind == "op" and val in "+-":
                toks.take()
                rhs = parse_term()
                if val == "-":
                    rhs = emul(erat(-1), rhs)
                node = eadd(node, rhs)
            else:
                return node

    def parse_term():
        node = parse_factor()
        while True:
            kind, val, pos = toks.peek()
            if kind == "op" and val == "*":
                toks.take()
                node = emul(node, parse_factor())
            elif kind == "op" and val == "/":
                toks.take()
                rhs = parse_factor()
                if rhs.kind != "rat":
                    toks._err("division is only supported by rational "
                              "constants", pos)
                if rhs.a == 0:
                    toks._err("division by zero", pos)
                node = emul(node, erat(Fraction(1) / Fraction(rhs.a)))
            else:
                return node

    def parse_factor():
        kind, val, pos = toks.peek()
        sign = 1
        while kind == "op" and val in "+-":
            toks.take()
            if val == "-":
                sign = -sign
            kind, val, pos = toks.peek()
        node = parse_power()
        if sign < 0:
            node = emul(erat(-1), node)
        return node

    def parse_power():
        node = parse_atom()
        kind, val, pos = toks.peek()
        if kind == "op" and val == "^":
            toks.take()
            kind2, val2, pos2 = toks.take()
            if kind2 == "op" and val2 == "-":
                toks._err("negative exponents are not supported", pos2)
            if kind2 != "num" or "." in val2:
                toks._err("exponent must be a nonnegative integer", pos2)
            node = epow(node, int(val2))
        return node

    def parse_atom():
        kind, val, pos = toks.take()
        if kind == "num":
            return erat(Fraction(val))
        if kind == "name":
            if val in ("sin", "cos"):
                toks.expect_op("(")
                arg = parse_sum()
                toks.expect_op(")")
                return esin(arg) if val == "sin" else ecos(arg)
            if val not in index:
                toks._err("unknown name %r" % val, pos)
            return evar(index[val])
        if kind == "op" and val == "(":
            node = parse_sum()
            toks.expect_op(")")
            return node
        toks._err("unexpected token %r" % (val or "end of input"), pos)

    node = parse_sum()
    kind, val, pos = toks.peek()
    if kind != "end":
        toks._err("unexpected trailing token %r" % val, pos)
    return node


# ---------------------------------------------------------------------------
# Sparse polynomials


def wdeg(expo, weights):
    """Weighted degree of a monomial exponent tuple."""
    return sum(a * w for a, w in zip(expo, weights))


class Poly:
    """Sparse polynomial in n variables.

    terms maps exponent tuples to nonzero coefficients.  Instances are
    treated as immutable; all operations return fresh polynomials.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        if terms is None:
            terms = {}
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def const(cls, n, c):
        c = _num(c)
        if c == 0:
            return cls(n)
        return cls(n, {(0,) * n: c})

    @classmethod
    def var(cls, n, i):
        expo = [0] * n
        expo[i] = 1
        return cls(n, {tuple(expo): F1})

    @classmethod
    def monomial(cls, n, expo, c=F1):
        return cls(n, {tuple(expo): _num(c)})

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.n, F0)

    def degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def min_wdeg(self, weights):
        """Smallest weighted degree of a monomial, or None when zero."""
        if not self.terms:
            return None
        return min(wdeg(e, weights) for e in self.terms)

    def max_wdeg(self, weights):
        if not self.terms:
            return None
        return max(wdeg(e, weights) for e in self.terms)

    def add(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, 0) + c
            if acc == 0:
                terms.pop(e, None)
            else:
                terms[e] = acc
        return Poly(self.n, terms)

    def neg(self):
        return Poly(self.n, {e: -c for e, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        c = _num(c)
        if c == 0:
            return Poly.zero(self.n)
        return Poly(self.n, {e: c * v for e, v in self.terms.items()})

    def mul(self, other, weights=None, wcap=None):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if wcap is not None and wdeg(e, weights) > wcap:
                    continue
                acc = terms.get(e, 0) + c1 * c2
                if acc == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = acc
        return Poly(self.n, terms)

    def pow(self, k, weights=None, wcap=None):
        k = int(k)
        result = Poly.const(self.n, 1)
        base = self
        while k > 0:
            if k & 1:
                result = result.mul(base, weights, wcap)
            k >>= 1
            if k:
                base = base.mul(base, weights, wcap)
        return result

    def diff(self, i):
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return Poly(self.n, terms)

    def eval(self, point):
        total = F0
        for e, c in self.terms.items():
            v = c
            for i, a in enumerate(e):
                if a:
                    v = v * _num(point[i]) ** a
            total = total + v
        return total

    def subst(self, reps, weights=None, wcap=None):
        """Substitute variable i by reps[i] (a Poly in the new variables)."""
        if not self.terms:
            return Poly.zero(reps[0].n if reps else self.n)
        new_n = reps[0].n
        cache = {}

        def rep_pow(i, k):
            key = (i, k)
            hit = cache.get(key)
            if hit is None:
                hit = reps[i].pow(k, weights, wcap)
                cache[key] = hit
            return hit

        total = Poly.zero(new_n)
        for e, c in self.terms.items():
            term = Poly.const(new_n, c)
            for i, a in enumerate(e):
                if a:
                    term = term.mul(rep_pow(i, a), weights, wcap)
                    if term.is_zero():
                        break
            total = total.add(term)
        return total

    def shift(self, anchor):
        """Recentre: return p(anchor + h) as a polynomial in h."""
        reps = [Poly.var(self.n, i).add(Poly.const(self.n, anchor[i]))
                for i in range(self.n)]
        return self.subst(reps)

    def truncate(self, weights, wcap):
        return Poly(self.n, {e: c for e, c in self.terms.items()
                             if wdeg(e, weights) <= wcap})

    def graded_part(self, weights, d):
        return Poly(self.n, {e: c for e, c in self.terms.items()
                             if wdeg(e, weights) == d})

    def uses_only_vars_below(self, j):
        return all(all(e[i] == 0 for i in range(j, self.n))
                   for e in self.terms)

    def pad(self, new_n):
        """View in a larger variable set (new trailing variables unused)."""
        if new_n == self.n:
            return self
        if new_n < self.n:
            raise ValueError("cannot shrink variable count")
        return Poly(new_n, {e + (0,) * (new_n - self.n): c
                            for e, c in self.terms.items()})

    def is_exact(self):
        return all(is_exact(c) for c in self.terms.values())

    def to_float(self):
        return Poly(self.n, {e: float(c) for e, c in self.terms.items()})

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __neg__(self):
        return self.neg()

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.n == other.n
                and self.terms == other.terms)

    def __repr__(self):
        return "Poly(%s)" % poly_to_str(self)


def poly_to_str(p, names=None):
    if not p.terms:
        return "0"

    def name(i):
        return names[i] if names is not None else "z%d" % (i + 1)

    bits = []
    for e, c in sorted(p.terms.items()):
        factors = []
        if c != 1 or not any(e):
            factors.append(_fmt_coeff(c))
        for i, a in enumerate(e):
            if a == 1:
                factors.append(name(i))
            elif a > 1:
                factors.append("%s^%d" % (name(i), a))
        bits.append("*".join(factors))
    return " + ".join(bits).replace("+ -", "- ")


def expr_to_poly(e, n):
    """Convert a polynomial expression to a Poly; trig raises ValueError."""
    k = e.kind
    if k == "rat":
        return Poly.const(n, e.a)
    if k == "var":
        return Poly.var(n, e.a)
    if k == "add":
        total = Poly.zero(n)
        for c in e.a:
            total = total.add(expr_to_poly(c, n))
        return total
    if k == "mul":
        total = Poly.const(n, 1)
        for c in e.a:
            total = total.mul(expr_to_poly(c, n))
        return total
    if k == "pow":
        return expr_to_poly(e.a, n).pow(e.b)
    raise ValueError("expression is not polynomial (kind %r)" % k)


def poly_to_expr(p):
    terms = []
    for e, c in sorted(p.terms.items()):
        factors = [erat(c)]
        for i, a in enumerate(e):
            if a:
                factors.append(epow(evar(i), a))
        terms.append(emul(*factors))
    return eadd(*terms) if terms else erat(0)


# ---------------------------------------------------------------------------
# Vector fields


class WeightedPolynomialField:
    """Polynomial vector field with an optional weight vector.

    comps[j] is the coefficient of the j-th coordinate direction.  The
    weighted degree of a term c*z^a d/dz_j is w(a) - w_j; graded parts
    follow that grading.  ``exact`` records whether every coefficient
    stayed rational through the construction.
    """

    __slots__ = ("n", "comps", "weights", "exact")

    def __init__(self, comps, weights=None, exact=None):
        comps = tuple(comps)
        if not comps:
            raise ValueError("a field needs at least one component")
        self.n = comps[0].n
        for c in comps:
            if c.n != self.n:
                raise ValueError("mismatched component variable counts")
        if len(comps) != self.n:
            raise ValueError("field must have one component per variable")
        self.comps = comps
        self.weights = tuple(weights) if weights is not None else None
        if exact is None:
            exact = all(c.is_exact() for c in comps)
        self.exact = exact

    @classmethod
    def coordinate(cls, n, j, weights=None):
        comps = [Poly.zero(n) for _ in range(n)]
        comps[j] = Poly.const(n, 1)
        return cls(comps, weights)

    @classmethod
    def zero(cls, n, weights=None):
        return cls([Poly.zero(n) for _ in range(n)], weights)

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def evaluate(self, point):
        return [c.eval(point) for c in self.comps]

    def apply_to(self, p):
        """Directional derivative of a Poly along the field."""
        total = Poly.zero(self.n)
        for i, comp in enumerate(self.comps):
            if comp.is_zero():
                continue
            total = total.add(comp.mul(p.diff(i)))
        return total

    def add(self, other):
        return WeightedPolynomialField(
            [a.add(b) for a, b in zip(self.comps, other.comps)],
            self.weights, self.exact and other.exact)

    def sub(self, other):
        return WeightedPolynomialField(
            [a.sub(b) for a, b in zip(self.comps, other.comps)],
            self.weights, self.exact and other.exact)

    def scale(self, c):
        return WeightedPolynomialField(
            [comp.scale(c) for comp in self.comps],
            self.weights, self.exact and is_exact(c))

    def with_weights(self, weights):
        return WeightedPolynomialField(self.comps, weights, self.exact)

    def term_wdeg_range(self):
        lo = None
        hi = None
        for j, comp in enumerate(self.comps):
            for e in comp.terms:
                d = wdeg(e, self.weights) - self.weights[j]
                lo = d if lo is None else min(lo, d)
                hi = d if hi is None else max(hi, d)
        return lo, hi

    def graded_part(self, d):
        """Terms of weighted degree exactly d (w(a) - w_j == d)."""
        comps = []
        for j, comp in enumerate(self.comps):
            comps.append(comp.graded_part(self.weights, d + self.weights[j]))
        return WeightedPolynomialField(comps, self.weights, self.exact)

    def truncate_degree(self, dcap):
        """Drop terms of weighted degree above dcap."""
        comps = []
        for j, comp in enumerate(self.comps):
            comps.append(comp.truncate(self.weights,
                                       dcap + self.weights[j]))
        return WeightedPolynomialField(comps, self.weights, self.exact)

    def pad(self, new_n, weights=None):
        comps = [c.pad(new_n) for c in self.comps]
        comps += [Poly.zero(new_n) for _ in range(new_n - self.n)]
        return WeightedPolynomialField(comps, weights, self.exact)

    def __eq__(self, other):
        return (isinstance(other, WeightedPolynomialField)
                and self.comps == other.comps)

    def __repr__(self):
        body = ", ".join(poly_to_str(c) for c in self.comps)
        return "Field[%s]" % body


PolyField = WeightedPolynomialField


class ExprField:
    """Vector field with general expression components."""

    __slots__ = ("n", "comps")

    def __init__(self, comps):
        self.comps = tuple(comps)
        self.n = len(self.comps)

    def evaluate(self, point, trig=None):
        return [expr_eval(c, point, trig) for c in self.comps]

    def apply_to(self, e):
        terms = []
        for i, comp in enumerate(self.comps):
            if comp.kind == "rat" and comp.a == 0:
                continue
            terms.append(emul(comp, expr_diff(e, i)))
        return eadd(*terms) if terms else erat(0)

    def is_polynomial(self):
        return all(expr_is_polynomial(c) for c in self.comps)

    def to_poly_field(self, weights=None):
        return WeightedPolynomialField(
            [expr_to_poly(c, self.n) for c in self.comps], weights)

    def __repr__(self):
        return "ExprField[%s]" % ", ".join(expr_to_str(c)
                                           for c in self.comps)


def as_expr_field(field):
    if isinstance(field, ExprField):
        return field
    return ExprField([poly_to_expr(c) for c in field.comps])


def lie_bracket(v, w, weights=None, wcap=None):
    """Lie bracket [v, w] = v(w) - w(v), componentwise.

    Polynomial fields stay polynomial (with optional weighted
    truncation); anything involving an ExprField goes symbolic.
    """
    if isinstance(v, WeightedPolynomialField) and \
            isinstance(w, WeightedPolynomialField):
        comps = []
        for j in range(v.n):
            acc = Poly.zero(v.n)
            for i in range(v.n):
                dwj = w.comps[j].diff(i)
                if not dwj.is_zero() and not v.comps[i].is_zero():
                    acc = acc.add(v.comps[i].mul(dwj, weights, wcap))
                dvj = v.comps[j].diff(i)
                if not dvj.is_zero() and not w.comps[i].is_zero():
                    acc = acc.sub(w.comps[i].mul(dvj, weights, wcap))
            comps.append(acc)
        return WeightedPolynomialField(comps, weights or v.weights,
                                       v.exact and w.exact)
    ev = as_expr_field(v)
    ew = as_expr_field(w)
    comps = []
    for j in range(ev.n):
        comps.append(eadd(ev.apply_to(ew.comps[j]),
                          emul(erat(-1), ew.apply_to(ev.comps[j]))))
    return ExprField(comps)


def weighted_components(field):
    """Split a weighted polynomial field into its graded parts.

    Returns {degree: field}, smallest degree first.  The degree of a
    term c*z^a d/dz_j is w(a) - w_j, so for a frame adapted to the
    filtration the leading block sits at degree -1.
    """
    if field.weights is None:
        raise ValueError("field carries no weights")
    degrees = set()
    for j, comp in enumerate(field.comps):
        for e in comp.terms:
            degrees.add(wdeg(e, field.weights) - field.weights[j])
    return {d: field.graded_part(d) for d in sorted(degrees)}


# ---------------------------------------------------------------------------
# Taylor expansion with weighted truncation


def taylor_poly(e, anchor, weights, wcap, trig=None):
    """Weighted Taylor polynomial of an expression about an anchor.

    Returns (poly, exact) where poly is written in the centred
    variables h_i = x_i - anchor_i and keeps monomials of weighted
    degree at most wcap.  exact is False when a trig value at the
    anchor had to be taken in floating point.
    """
    n = len(anchor)
    k = e.kind
    if k == "rat":
        return Poly.const(n, e.a), True
    if k == "var":
        p = Poly.var(n, e.a)
        a = _num(anchor[e.a])
        if a != 0:
            p = p.add(Poly.const(n, a))
        return p.truncate(weights, wcap), True
    if k == "add":
        total = Poly.zero(n)
        exact = True
        for c in e.a:
            p, ex = taylor_poly(c, anchor, weights, wcap, trig)
            total = total.add(p)
            exact = exact and ex
        return total, exact
    if k == "mul":
        total = Poly.const(n, 1)
        exact = True
        for c in e.a:
            p, ex = taylor_poly(c, anchor, weights, wcap, trig)
            total = total.mul(p, weights, wcap)
            exact = exact and ex
        return total, exact
    if k == "pow":
        p, ex = taylor_poly(e.a, anchor, weights, wcap, trig)
        return p.pow(e.b, weights, wcap), ex
    if k in ("sin", "cos"):
        p, ex = taylor_poly(e.a, anchor, weights, wcap, trig)
        c0 = p.constant_term()
        h = p.sub(Poly.const(n, c0))
        s0, cv0, ex0 = _sincos(c0, trig)
        # sin(c0+h) = sin c0 cos h + cos c0 sin h, and likewise for cos;
        # h has no constant term so h^k dies once k exceeds the cap.
        sin_h = Poly.zero(n)
        cos_h = Poly.const(n, 1)
        h_pow = Poly.const(n, 1)
        fact = F1
        j = 1
        while True:
            h_pow = h_pow.mul(h, weights, wcap)
            if h_pow.is_zero() or j > wcap:
                break
            fact = fact * j
            coeff = Fraction(1) / fact
            if j % 4 == 1:
                sin_h = sin_h.add(h_pow.scale(coeff))
            elif j % 4 == 2:
                cos_h = cos_h.sub(h_pow.scale(coeff))
            elif j % 4 == 3:
                sin_h = sin_h.sub(h_pow.scale(coeff))
            else:
                cos_h = cos_h.add(h_pow.scale(coeff))
            j += 1
        if k == "sin":
            out = cos_h.scale(s0).add(sin_h.scale(cv0))
        else:
            out = cos_h.scale(cv0).sub(sin_h.scale(s0))
        return out, ex and ex0
    raise ValueError("unknown expression kind %r" % k)


def taylor_truncate(field, anchor, weights, wcap, trig=None):
    """Weighted Taylor approximation of a vector field about anchor.

    The result is a WeightedPolynomialField in the centred coordinates,
    with component j truncated at weighted degree wcap + w_j so that
    field terms up to weighted degree wcap survive.  Its ``exact`` flag
    reports whether any trig evaluation fell back to floats.
    """
    weights = tuple(weights)
    comps = []
    exact = True
    if isinstance(field, WeightedPolynomialField):
        for j, comp in enumerate(field.comps):
            p = comp.shift(anchor).truncate(weights, wcap + weights[j])
            comps.append(p)
            exact = exact and p.is_exact()
    else:
        for j, comp in enumerate(field.comps):
            p, ex = taylor_poly(comp, anchor, weights, wcap + weights[j],
                                trig)
            comps.append(p)
            exact = exact and ex
    return WeightedPolynomialField(comps, weights, exact)


# ---------------------------------------------------------------------------
# Linear algebra over any field: Fraction, pi-fractions or float
#
# Over an exact field (no float entry) the first nonzero entry is the
# pivot and zero is tested by truthiness; over floats the pivot is the
# largest magnitude.  int entries become Fractions so that division
# never degrades them to floats.


def _entry(x):
    return Fraction(x) if isinstance(x, int) else x


def _working_copy(rows):
    a = [[_entry(x) for x in r] for r in rows]
    exact = not any(isinstance(x, float) for r in a for x in r)
    return a, exact


def _pivot(a, col, start, exact):
    """Pivot row for ``col`` among rows ``start``.., or None."""
    if exact:
        for r in range(start, len(a)):
            if a[r][col]:
                return r
        return None
    best, pivot = 0.0, None
    for r in range(start, len(a)):
        v = abs(a[r][col])
        if v > best:
            best, pivot = v, r
    return pivot


def mat_vec(rows, vec):
    out = []
    for r in rows:
        acc = r[0] * vec[0]
        for x, v in zip(r[1:], vec[1:]):
            acc = acc + x * v
        out.append(acc)
    return out


def det_matrix(rows):
    """Determinant by Gaussian elimination."""
    a, exact = _working_copy(rows)
    det = F1 if exact else 1.0
    for col in range(len(a)):
        pivot = _pivot(a, col, col, exact)
        if pivot is None:
            return F0 if exact else 0.0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        inv_p = 1 / a[col][col]
        for r in range(col + 1, len(a)):
            if a[r][col]:
                f = a[r][col] * inv_p
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def rref(rows, rhs=None):
    """Reduced row echelon form; returns (matrix, pivots, rhs)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a, exact = _working_copy(rows)
    b = [_entry(x) for x in rhs] if rhs is not None else None
    pivots = []
    row = 0
    for col in range(n):
        pivot = _pivot(a, col, row, exact)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        if b is not None:
            b[row], b[pivot] = b[pivot], b[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        if b is not None:
            b[row] = b[row] / pv
        for r in range(m):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
                if b is not None:
                    b[r] = b[r] - f * b[row]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return a, pivots, b


def invert_matrix(rows):
    """Inverse of a square matrix, by row reduction of [A | I]."""
    n = len(rows)
    a, pivots, _ = rref([list(r) + [F1 if i == j else F0 for j in range(n)]
                         for i, r in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [r[n:] for r in a]


def nullspace(rows):
    """Basis of the kernel, one vector per free column."""
    if not rows:
        return []
    n = len(rows[0])
    a, pivots, _ = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [F0] * n
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def solve_min_norm(rows, rhs, tol=None):
    """Least-norm exact solution of a consistent linear system.

    Finds any particular solution by elimination, then removes its
    kernel component, so repeated runs give one canonical answer.
    Raises ValueError when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a, pivots, b = rref(rows, rhs)
    exact = not any(isinstance(x, float) for r in [*rows, rhs] for x in r)
    if tol is None:
        tol = 0 if exact else 1e-9
    for r in range(len(pivots), m):
        resid = b[r]
        if (resid != 0 if exact else abs(resid) > tol):
            raise ValueError("inconsistent linear system")
    x0 = [F0] * n
    for r, pc in enumerate(pivots):
        x0[pc] = b[r]
    kern = nullspace(rows)
    if not kern:
        return x0
    g = [[sum((u[i] * v[i] for i in range(n)), F0) for v in kern]
         for u in kern]
    h = [sum((u[i] * x0[i] for i in range(n)), F0) for u in kern]
    coeffs = mat_vec(invert_matrix(g), h)
    for c, u in zip(coeffs, kern):
        for i in range(n):
            x0[i] = x0[i] - c * u[i]
    return x0


# ---------------------------------------------------------------------------
# Triangular coordinate changes


class TriangularMap:
    """Polynomial change of coordinates with a stored exact inverse.

    comps[j] expresses output coordinate j as a Poly in the inputs;
    inv[j] expresses input coordinate j as a Poly in the outputs.  The
    two useful constructors are affine charts and upper-triangular
    shears z_j = y_j + q_j(y_1..y_{j-1}), whose inverses are again
    polynomial and are computed in closed form.
    """

    __slots__ = ("n", "comps", "inv")

    def __init__(self, comps, inv):
        self.comps = tuple(comps)
        self.inv = tuple(inv)
        self.n = len(self.comps)

    @classmethod
    def identity(cls, n):
        comps = [Poly.var(n, i) for i in range(n)]
        return cls(comps, list(comps))

    @classmethod
    def affine(cls, matrix, anchor):
        """z = M (x - anchor); inverse x = anchor + M^-1 z."""
        n = len(matrix)
        anchor = [_num(v) for v in anchor]
        minv = invert_matrix(matrix)
        comps = []
        for j in range(n):
            p = Poly.zero(n)
            for i in range(n):
                c = _num(matrix[j][i])
                if c != 0:
                    p = p.add(Poly.var(n, i).scale(c))
                    p = p.add(Poly.const(n, -c * anchor[i]))
            comps.append(p)
        inv = []
        for j in range(n):
            p = Poly.const(n, anchor[j])
            for i in range(n):
                c = minv[j][i]
                if c != 0:
                    p = p.add(Poly.var(n, i).scale(c))
            inv.append(p)
        return cls(comps, inv)

    @classmethod
    def shear(cls, shifts):
        """z_j = y_j + shifts[j], each shift using variables below j only."""
        n = len(shifts)
        comps = []
        for j, q in enumerate(shifts):
            if q is None:
                q = Poly.zero(n)
            if not q.uses_only_vars_below(j):
                raise ValueError("shift %d uses variables >= %d" % (j, j))
            comps.append(Poly.var(n, j).add(q))
        # Back substitution: y_j = z_j - q_j(y_<j) with earlier y's
        # already written in z.
        inv = []
        for j in range(n):
            q = shifts[j] if shifts[j] is not None else Poly.zero(n)
            p = Poly.var(n, j).sub(q.subst(inv + [Poly.var(n, i)
                                                  for i in range(j, n)]))
            inv.append(p)
        return cls(comps, inv)

    def apply(self, point):
        return [c.eval(point) for c in self.comps]

    def apply_inverse(self, point):
        return [c.eval(point) for c in self.inv]

    def compose(self, inner):
        """self after inner: x -> self(inner(x))."""
        comps = [c.subst(list(inner.comps)) for c in self.comps]
        inv = [c.subst(list(self.inv)) for c in inner.inv]
        return TriangularMap(comps, inv)

    def pushforward(self, field, weights=None, wcap=None):
        """Transport a field through the map: (dPhi . V) o Phi^-1."""
        comps = []
        inv_list = list(self.inv)
        for j in range(self.n):
            acc = Poly.zero(self.n)
            for i in range(self.n):
                d = self.comps[j].diff(i)
                if d.is_zero() or field.comps[i].is_zero():
                    continue
                acc = acc.add(field.comps[i].mul(d))
            acc = acc.subst(inv_list, weights,
                            None if wcap is None else wcap + (
                                weights[j] if weights else 0))
            comps.append(acc)
        w = weights if weights is not None else (
            field.weights if isinstance(field, WeightedPolynomialField)
            else None)
        return WeightedPolynomialField(comps, w)

    def check_inverse(self):
        """Verify symbolically that inv really inverts comps."""
        ident = [Poly.var(self.n, i) for i in range(self.n)]
        back = [c.subst(list(self.inv)) for c in self.comps]
        forth = [c.subst(list(self.comps)) for c in self.inv]
        return back == ident and forth == ident

    def __repr__(self):
        return "TriangularMap(n=%d)" % self.n


def pushforward(field, tmap, weights=None, wcap=None):
    return tmap.pushforward(field, weights, wcap)


# ---------------------------------------------------------------------------
# Nonholonomic order


def nonholonomic_order(f, fields, anchor, cap, trig=None, tol=1e-12):
    """Order of vanishing of f at anchor along iterated field derivatives.

    Returns (order, mode) where order is the smallest total number of
    field applications whose result is nonzero at the anchor, or None
    when everything up to ``cap`` applications vanishes (read: order is
    at least cap + 1).  mode is 'exact' when every evaluation stayed
    rational and 'float' when trig forced numeric evaluation, in which
    case values below ``tol`` count as zero.
    """
    efields = [as_expr_field(x) for x in fields]
    f = f if isinstance(f, Expr) else poly_to_expr(f)
    mode = "exact"

    def value_nonzero(v):
        nonlocal mode
        if is_exact(v):
            return v != 0
        mode = "float"
        return abs(v) > tol

    if value_nonzero(expr_eval(f, anchor, trig)):
        return 0, mode
    level = [f]
    for s in range(1, cap + 1):
        nxt = []
        hit = False
        for g in level:
            for xf in efields:
                h = xf.apply_to(g)
                nxt.append(h)
                if value_nonzero(expr_eval(h, anchor, trig)):
                    hit = True
        if hit:
            return s, mode
        level = nxt
    return None, mode
