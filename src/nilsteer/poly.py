"""Exact symbolic algebra for vector fields and coordinate changes.

Two representations are used side by side.  ``Expr`` is a small general
expression tree (rationals, variables, sums, products, integer powers,
sin, cos) that covers arbitrary smooth inputs.  ``Poly`` is a sparse
multivariate polynomial over exact rationals (or floats, when an input
was only available numerically) and carries the truncation machinery:
products cut at one total degree, triangular coordinate changes with
exact inverses, and pushforwards.  Only Poly.truncate grades by weights.

Coefficients are ``fractions.Fraction`` whenever the inputs allow it;
any float anywhere poisons the computation to float.  Where float data
first enters (a float anchor coordinate, a trig value taken in floats)
the exact constants it meets are floats from the start: the unit of a
recentred variable (_recentred), of a shear's coordinates and of an
identity matrix (unit_of), and the zero an evaluation sums from.  A
Fraction operand of a float operation rounds as float(F) would, so
these floats give the bits the mixed arithmetic gave, without its
Fraction dispatch.
"""

import functools
import math
from fractions import Fraction
from operator import add as _add

from .errors import SingularMatrix, SpecError

F0 = Fraction(0)
F1 = Fraction(1)


def _num(x):
    """Coerce to Fraction when exact, keep floats as floats."""
    if isinstance(x, float):
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int, Fraction or float, got %r" % (x,))


def is_exact(x):
    return isinstance(x, (int, Fraction))


def _sincos(value):
    """Return (sin, cos) of an exact or float value: exact at zero,
    floats everywhere else."""
    if value == 0:
        return F0, F1
    fv = float(value)
    return math.sin(fv), math.cos(fv)


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
        raise SpecError("negative exponents are not supported",
                        exponent=k)
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


def expr_eval(e, point):
    k = e.kind
    if k == "rat":
        return e.a
    if k == "var":
        return _num(point[e.a])
    if k == "add":
        total = F0
        for c in e.a:
            total = total + expr_eval(c, point)
        return total
    if k == "mul":
        total = F1
        for c in e.a:
            total = total * expr_eval(c, point)
        return total
    if k == "pow":
        return expr_eval(e.a, point) ** e.b
    if k in ("sin", "cos"):
        return _trig(k, expr_eval(e.a, point))
    raise ValueError("unknown expression kind %r" % k)


def _trig(kind, value):
    """sin or cos of a value; a float argument gives a float, even at 0."""
    if isinstance(value, float):
        return math.sin(value) if kind == "sin" else math.cos(value)
    s, c = _sincos(value)
    return s if kind == "sin" else c


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
        kind, val, _ = toks.peek()
        sign = 1
        while kind == "op" and val in "+-":
            toks.take()
            if val == "-":
                sign = -sign
            kind, val, _ = toks.peek()
        node = parse_power()
        if sign < 0:
            node = emul(erat(-1), node)
        return node

    def parse_power():
        node = parse_atom()
        kind, val, _ = toks.peek()
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


def _unit_expo(n, i):
    expo = [0] * n
    expo[i] = 1
    return tuple(expo)


def _recentred(n, i, a):
    """anchor coordinate a plus h_i: a Poly in h.  The unit of h_i is
    1.0 where a is a nonzero float, the first float it meets."""
    a = _num(a)
    expo = _unit_expo(n, i)
    if a == 0:
        return _poly(n, {expo: F1})
    return _poly(n, {expo: unit_of([a]), (0,) * n: a})


def coordinates(n, one):
    """The coordinate polynomials z_0, ..., z_{n-1}, with unit one."""
    return [_poly(n, {_unit_expo(n, i): one}) for i in range(n)]


def identity(n, one):
    """The n x n identity matrix in the unit one."""
    return [[one if i == j else one - one for j in range(n)]
            for i in range(n)]


def unit_of(values):
    """1.0 when one of the values (numbers or Polys) is or holds a
    float, else the exact 1: the unit that an exact constant takes
    where it meets float data.  A Fraction operand of a float operation
    already rounds as float(F), so a float unit keeps every result bit
    for bit."""
    for v in values:
        if isinstance(v, Poly):
            if any(isinstance(c, float) for c in v.terms.values()):
                return 1.0
        elif isinstance(v, float):
            return 1.0
    return F1


def as_unit(p, one):
    """p with float coefficients when one is the float unit, else p."""
    if one is F1:
        return p
    return _poly(p.n, {e: float(c) for e, c in p.terms.items()})


def _poly(n, terms):
    """A Poly on a terms dict that already holds no zero coefficient."""
    p = Poly.__new__(Poly)
    p.n = n
    p.terms = terms
    return p


def _accumulate(terms, more):
    """Add the terms of more into terms in place, in more's order; a
    sum that cancels drops its monomial, which a later term re-adds at
    the end."""
    for e, c in more.items():
        acc = terms.get(e)
        acc = c if acc is None else acc + c
        if acc == 0:
            terms.pop(e, None)
        else:
            terms[e] = acc


def _cut(terms, cap):
    """terms without the monomials of total degree above cap."""
    if cap is None:
        return dict(terms)
    return {e: c for e, c in terms.items() if sum(e) <= cap}


def _product(t1, t2, cap):
    """Term dict of the product of two term dicts, cut at total degree
    cap: each product c1 * c2 added into its monomial in the order of
    the double loop."""
    terms = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(_add, e1, e2))
            if cap is not None and sum(e) > cap:
                continue
            acc = terms.get(e)
            acc = c1 * c2 if acc is None else acc + c1 * c2
            if acc == 0:
                terms.pop(e, None)
            else:
                terms[e] = acc
    return terms


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
        return cls(n, {_unit_expo(n, i): F1})

    @classmethod
    def monomial(cls, n, expo, c):
        return cls(n, {tuple(expo): _num(c)})

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.n, F0)

    def add(self, other):
        terms = dict(self.terms)
        _accumulate(terms, other.terms)
        return _poly(self.n, terms)

    def neg(self):
        return _poly(self.n, {e: -c for e, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        c = _num(c)
        if c == 0:
            return Poly.zero(self.n)
        return Poly(self.n, {e: c * v for e, v in self.terms.items()})

    def mul(self, other, cap=None):
        """The product, without the terms of total degree above cap."""
        return _poly(self.n, _product(self.terms, other.terms, cap))

    def pow(self, k, cap=None):
        """self**k cut at total degree cap, by repeated squaring; the
        first factor enters as it is, where a product with the
        constant 1 would give the same terms."""
        k = int(k)
        if k == 0:
            return Poly.const(self.n, 1)
        result = None
        base = self.terms
        while True:
            if k & 1:
                result = (_cut(base, cap) if result is None
                          else _product(result, base, cap))
            k >>= 1
            if not k:
                return _poly(self.n, result)
            base = _product(base, base, cap)

    def diff(self, i):
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return _poly(self.n, terms)

    def eval(self, point):
        """Value at point, terms summed in order from an exact 0, which
        is 0.0 from the first float term on: what 0 + term rounds to."""
        point = [_num(x) for x in point]
        total = F0
        for e, c in self.terms.items():
            v = c
            for x, a in zip(point, e):
                if a:
                    v = v * x ** a
            if total is F0 and isinstance(v, float):
                total = 0.0
            total = total + v
        return total

    def subst(self, reps, cap=None):
        """Substitute variable i by reps[i] (a Poly in the new variables),
        cutting every product at total degree cap.  Each term is
        multiplied out on plain term dicts, its coefficient first, with
        the float operations in the order of const(c).mul(...)."""
        if not self.terms:
            return Poly.zero(reps[0].n if reps else self.n)
        new_n = reps[0].n
        origin = (0,) * new_n
        cache = {}
        total = {}
        for e, c in self.terms.items():
            term = {origin: _num(c)}
            for i, a in enumerate(e):
                if a:
                    key = (i, a)
                    hit = cache.get(key)
                    if hit is None:
                        hit = cache[key] = reps[i].pow(a, cap).terms
                    term = _product(term, hit, cap)
                    if not term:
                        break
            _accumulate(total, term)
        return _poly(new_n, total)

    def shift(self, anchor):
        """Recentre: return p(anchor + h) as a polynomial in h."""
        return self.subst([_recentred(self.n, i, anchor[i])
                           for i in range(self.n)])

    def truncate(self, weights, wcap):
        return Poly(self.n, {e: c for e, c in self.terms.items()
                             if wdeg(e, weights) <= wcap})

    def uses_only_vars_below(self, j):
        return all(all(e[i] == 0 for i in range(j, self.n))
                   for e in self.terms)

    def pad(self, new_n):
        """View in a larger variable set (new trailing variables unused)."""
        if new_n == self.n:
            return self
        if new_n < self.n:
            raise SpecError("cannot shrink variable count",
                            n=self.n, new_n=new_n)
        return Poly(new_n, {e + (0,) * (new_n - self.n): c
                            for e, c in self.terms.items()})

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
    """Polynomial vector field: comps[j] is the coefficient of the j-th
    coordinate direction.

    A field carries no weights.  Under weights w the weighted degree of
    a term c*z^a d/dz_j is w(a) - w_j; a caller that grades a field
    passes its weights to Poly.truncate or wdeg.
    """

    __slots__ = ("n", "comps")

    def __init__(self, comps):
        comps = tuple(comps)
        counts = sorted({c.n for c in comps})
        if counts != [len(comps)]:
            raise SpecError("a field needs one component per variable: "
                            "%d components, polynomials in %s variables"
                            % (len(comps), counts),
                            components=len(comps), variables=counts)
        self.n = len(comps)
        self.comps = comps

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

    def pad(self, new_n):
        comps = [c.pad(new_n) for c in self.comps]
        comps += [Poly.zero(new_n) for _ in range(new_n - self.n)]
        return WeightedPolynomialField(comps)

    def __eq__(self, other):
        return (isinstance(other, WeightedPolynomialField)
                and self.comps == other.comps)

    def __repr__(self):
        body = ", ".join(poly_to_str(c) for c in self.comps)
        return "Field[%s]" % body


class ExprField:
    """Vector field with general expression components; one with no
    component, or reading a variable outside it, raises SpecError."""

    __slots__ = ("n", "comps")

    def __init__(self, comps):
        self.comps = tuple(comps)
        self.n = len(self.comps)
        if not self.comps:
            raise SpecError("a field needs at least one component",
                            components=0, variables=[])
        stack = list(self.comps)
        while stack:
            node = stack.pop()
            kind = node.kind
            if kind == "var":
                if not 0 <= node.a < self.n:
                    raise SpecError("variable %d is outside a field on %d "
                                    "variables" % (node.a, self.n),
                                    components=self.n, variables=[node.a])
            elif kind == "add" or kind == "mul":
                stack += node.a
            elif kind != "rat":
                stack.append(node.a)

    def is_zero(self):
        """Every component is the constant 0: a test of form, not value."""
        return all(c.kind == "rat" and c.a == 0 for c in self.comps)

    def evaluate(self, point):
        return [expr_eval(c, point) for c in self.comps]

    def apply_to(self, e):
        terms = []
        for i, comp in enumerate(self.comps):
            if comp.kind == "rat" and comp.a == 0:
                continue
            terms.append(emul(comp, expr_diff(e, i)))
        return eadd(*terms) if terms else erat(0)

    def to_poly_field(self):
        return WeightedPolynomialField(
            [expr_to_poly(c, self.n) for c in self.comps])

    def __repr__(self):
        return "ExprField[%s]" % ", ".join(expr_to_str(c)
                                           for c in self.comps)


def as_expr_field(field):
    if isinstance(field, ExprField):
        return field
    return ExprField([poly_to_expr(c) for c in field.comps])


def read_coordinates(field):
    """The set of coordinates (0-based) a field's compiled kernel reads:
    the var nodes of an ExprField, the variables with a nonzero exponent
    in some term of a WeightedPolynomialField.  It is a test of form:
    the kernel never references any other coordinate, so moving one
    leaves every value it returns bit for bit the same."""
    if isinstance(field, WeightedPolynomialField):
        return {i for comp in field.comps for expo in comp.terms
                for i, a in enumerate(expo) if a}
    if not isinstance(field, ExprField):
        raise TypeError("cannot read the coordinates of %r" % (field,))
    found = set()
    seen = set()
    stack = list(field.comps)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kind = node.kind
        if kind == "var":
            found.add(node.a)
        elif kind == "add" or kind == "mul":
            stack += node.a
        elif kind != "rat":
            stack.append(node.a)
    return found


# ---------------------------------------------------------------------------
# Float kernels
#
# A kernel is straight-line Python source with one assignment per Expr
# node or Poly term, so neither deep trees nor long sums reach the
# parser's nesting limits.  Exact constants are folded with the same
# Python arithmetic evaluate() uses and become float literals where
# evaluate() would first meet a float; every float operation then runs
# in evaluate()'s order, so kernel values equal float(evaluate()) bit
# for bit, up to the sign of a zero (evaluate() adds 0.0 first).


def _lit(v):
    v = float(v)
    if math.isfinite(v):
        return repr(v)
    if v != v:
        return "(1e999 - 1e999)"
    return "1e999" if v > 0 else "(-1e999)"


class _Kernel:
    """Source lines of one kernel.  Coordinate i is read from the local
    xi, which the enclosing source binds."""

    def __init__(self):
        self.lines = []
        self.count = 0

    def fresh(self):
        self.count += 1
        return "t%d" % self.count


def _emit_expr(e, kern, memo):
    """Emit e; return a float local's name, or e's constant value."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    k = e.kind
    if k == "rat":
        out = e.a
    elif k == "var":
        out = "x%d" % e.a
    elif k in ("add", "mul"):
        add = k == "add"
        out = F0 if add else F1
        name = None
        for c in e.a:
            v = _emit_expr(c, kern, memo)
            if not isinstance(out, str) and not isinstance(v, str):
                out = out + v if add else out * v
                continue
            if not isinstance(out, str):
                if out == (0 if add else 1):
                    out = v
                    continue
                out = _lit(out)
            if name is None:
                name = kern.fresh()
            kern.lines.append("%s = %s %s %s" % (
                name, out, "+" if add else "*",
                v if isinstance(v, str) else _lit(v)))
            out = name
    elif k == "pow":
        out = _emit_expr(e.a, kern, memo)
        if isinstance(out, str):
            name = kern.fresh()
            kern.lines.append("%s = %s ** %d" % (name, out, e.b))
            out = name
        else:
            out = out ** e.b
    elif k in ("sin", "cos"):
        out = _emit_expr(e.a, kern, memo)
        if isinstance(out, str):
            name = kern.fresh()
            kern.lines.append("%s = %s(%s)" % (name, k, out))
            out = name
        else:
            out = _trig(k, out)
    else:
        raise ValueError("unknown expression kind %r" % k)
    memo[id(e)] = out
    return out


def _emit_poly(p, kern):
    """Emit p term by term in Poly.terms order; return name or literal."""
    name = None
    for e, c in p.terms.items():
        factors = []
        for i, a in enumerate(e):
            if a:
                x = "x%d" % i
                factors.append(x if a == 1 else "%s ** %d" % (x, a))
        if c != 1 or not factors:
            factors.insert(0, _lit(c))
        term = " * ".join(factors)
        if name is None:
            name = kern.fresh()
            kern.lines.append("%s = %s" % (name, term))
        else:
            kern.lines.append("%s = %s + %s" % (name, name, term))
    return name or "0.0"


def emit_fields(fields):
    """Straight-line source evaluating ExprFields and
    WeightedPolynomialFields at the point whose coordinates are the
    locals x0, x1, ...: its lines, and per field the local name or
    float literal of each component."""
    kern = _Kernel()
    cols = []
    for field in fields:
        if isinstance(field, ExprField):
            memo = {}
            outs = [_emit_expr(c, kern, memo) for c in field.comps]
            cols.append([v if isinstance(v, str) else _lit(v)
                         for v in outs])
        elif isinstance(field, WeightedPolynomialField):
            cols.append([_emit_poly(c, kern) for c in field.comps])
        else:
            raise TypeError("cannot compile %r" % (field,))
    return kern.lines, cols


@functools.lru_cache(maxsize=256)
def load_kernel(src):
    """The function named kernel that the source src defines, with sin
    and cos as its only globals: the library's one compiler.  Each of
    the 256 sources last used stays compiled, so a replay or covering
    that rebuilds its source reuses the compiled function."""
    ns = {"sin": math.sin, "cos": math.cos, "__builtins__": {}}
    exec(compile(src, "<compiled kernel>", "exec"), ns)
    # Popped, so the kernel and its globals form no reference cycle.
    return ns.pop("kernel")


def compile_field(field):
    """Float kernel point -> list of floats of an ExprField or a
    WeightedPolynomialField, equal to [float(v) for v in
    field.evaluate(point)] on float points, loaded by load_kernel."""
    lines, (outs,) = emit_fields([field])
    lines.insert(0, "%s, = p" % ", ".join("x%d" % i for i in range(field.n)))
    return load_kernel("def kernel(p):\n%s    return [%s]\n" % (
        "".join("    %s\n" % line for line in lines), ", ".join(outs)))


def lie_bracket(v, w, cap=None):
    """Lie bracket [v, w] = v(w) - w(v), componentwise.

    Polynomial fields stay polynomial, each product cut at total
    degree cap; anything involving an ExprField goes symbolic.
    """
    if isinstance(v, WeightedPolynomialField) and \
            isinstance(w, WeightedPolynomialField):
        comps = []
        for j in range(v.n):
            acc = Poly.zero(v.n)
            for i in range(v.n):
                dwj = w.comps[j].diff(i)
                if not dwj.is_zero() and not v.comps[i].is_zero():
                    acc = acc.add(v.comps[i].mul(dwj, cap))
                dvj = v.comps[j].diff(i)
                if not dvj.is_zero() and not w.comps[i].is_zero():
                    acc = acc.sub(w.comps[i].mul(dvj, cap))
            comps.append(acc)
        return WeightedPolynomialField(comps)
    ev = as_expr_field(v)
    ew = as_expr_field(w)
    comps = []
    for j in range(ev.n):
        comps.append(eadd(ev.apply_to(ew.comps[j]),
                          emul(erat(-1), ew.apply_to(ev.comps[j]))))
    return ExprField(comps)


# ---------------------------------------------------------------------------
# Taylor expansion cut at a total degree


def taylor_poly(e, anchor, cap):
    """Taylor polynomial of an expression about an anchor.

    The result is written in the centred variables h_i = x_i - anchor_i
    and keeps monomials of total degree at most cap.  sin and cos
    of a nonzero constant term are taken in floating point, so the
    coefficients stay rational (``Poly.is_exact``) only when every
    trig argument vanishes at the anchor.
    """
    n = len(anchor)
    k = e.kind
    if k == "rat":
        return Poly.const(n, e.a)
    if k == "var":
        return _recentred(n, e.a, anchor[e.a]).truncate((1,) * n, cap)
    if k == "add":
        total = Poly.zero(n)
        for c in e.a:
            total = total.add(taylor_poly(c, anchor, cap))
        return total
    if k == "mul":
        # every taylor_poly is cut at cap already, so the first factor
        # enters as it is: 1 times it would give the same terms
        total = None
        for c in e.a:
            p = taylor_poly(c, anchor, cap)
            total = p if total is None else total.mul(p, cap)
        return total
    if k == "pow":
        p = taylor_poly(e.a, anchor, cap)
        return p.pow(e.b, cap)
    if k in ("sin", "cos"):
        p = taylor_poly(e.a, anchor, cap)
        c0 = p.constant_term()
        h = p.sub(Poly.const(n, c0))
        s0, cv0 = _sincos(c0)
        one = unit_of([h])
        # sin(c0+h) = sin c0 cos h + cos c0 sin h, and likewise for cos;
        # h has no constant term so h^k dies once k exceeds the cap.
        sin_h = Poly.zero(n)
        cos_h = Poly.const(n, one)
        h_pow = None
        fact = 1
        j = 1
        while True:
            h_pow = _poly(n, _cut(h.terms, cap)) if h_pow is None \
                else h_pow.mul(h, cap)
            if h_pow.is_zero() or j > cap:
                break
            fact = fact * j
            coeff = one / fact
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
            return cos_h.scale(s0).add(sin_h.scale(cv0))
        return cos_h.scale(cv0).sub(sin_h.scale(s0))
    raise ValueError("unknown expression kind %r" % k)


def taylor_truncate(field, anchor, cap):
    """Taylor jet of a vector field about anchor.

    The result is a WeightedPolynomialField in the centred coordinates,
    every component cut at total degree cap + 1, so that field terms
    c*h^a d/dh_j of degree |a| - 1 up to cap survive.  Its coefficients
    are floats wherever taylor_poly had to take a trig value in floats.
    """
    n = len(anchor)
    if isinstance(field, WeightedPolynomialField):
        comps = [comp.shift(anchor).truncate((1,) * n, cap + 1)
                 for comp in field.comps]
    else:
        comps = [taylor_poly(comp, anchor, cap + 1) for comp in field.comps]
    return WeightedPolynomialField(comps)


# ---------------------------------------------------------------------------
# Linear algebra over Fraction or float
#
# On exact entries (no float) the first nonzero entry is the pivot and
# zero is tested by truthiness, so Laurent polynomials of pi work too
# wherever every pivot is a monomial; over floats the pivot is the
# largest magnitude.  int entries become Fractions so that division
# never degrades them to floats.  On float rows the exact constants
# that the elimination adds are floats too (invert_matrix's identity
# block), and det_matrix keeps only the block that later steps read,
# so its float branch is one tight loop with every float operation of
# the whole-row elimination, in the same order.  rank pivots fully, on
# floats only, for growth_vector.


def _working_copy(rows):
    a = [[Fraction(x) if isinstance(x, int) else x for x in r]
         for r in rows]
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
    """Determinant by Gaussian elimination.  Each step keeps only the
    rows below its pivot and the columns right of it, the only entries
    a later step reads, so the float branch is one tight loop with the
    pivot search inline."""
    a, exact = _working_copy(rows)
    det = F1 if exact else 1.0
    while a:
        if exact:
            pivot = _pivot(a, 0, 0, True)
        else:
            best, pivot = 0.0, None
            for r, row in enumerate(a):
                v = abs(row[0])
                if v > best:
                    best, pivot = v, r
        if pivot is None:
            return F0 if exact else 0.0
        prow = a[pivot]
        if pivot:
            a[pivot] = a[0]
            det = -det
        p = prow[0]
        det = det * p
        inv_p = 1 / p
        tail = prow[1:]
        rest = []
        for row in a[1:]:
            x = row[0]
            if x:
                f = x * inv_p
                rest.append([u - f * v for u, v in zip(row[1:], tail)])
            else:
                rest.append(row[1:])
        a = rest
    return det


def rank(rows, tol):
    """Rank of a float matrix: the number of pivots above tol in
    Gaussian elimination with full pivoting, each pivot the largest
    remaining entry in magnitude (first in row order on ties)."""
    a = [[float(x) for x in r] for r in rows]
    count = 0
    while a:
        best, pr, pc = tol, None, None
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if abs(v) > best:
                    best, pr, pc = abs(v), i, j
        if pr is None:
            break
        count += 1
        prow = a.pop(pr)
        inv_p = 1 / prow[pc]
        rest = []
        for row in a:
            f = row[pc] * inv_p
            rest.append([x - f * y for k, (x, y) in enumerate(zip(row, prow))
                         if k != pc])
        a = rest
    return count


def rref(rows, rhs=None):
    """Reduced row echelon form; returns (matrix, pivots, rhs)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a, exact = _working_copy(rows)
    b = ([Fraction(x) if isinstance(x, int) else x for x in rhs]
         if rhs is not None else None)
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
    a, pivots, _ = rref([list(r) + e for r, e in zip(
        rows, identity(n, unit_of(x for r in rows for x in r)))])
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [r[n:] for r in a]


def solve_unique(rows, rhs):
    """The one exact solution of a consistent linear system.

    Raises ValueError when a column has no pivot, so the solution is
    not unique, or when the system is inconsistent: a leftover
    residual is nonzero on exact data and above 1e-9 on float data.
    It stays internal, so the ValueError stays too: desing, its one
    caller, maps it to IdentificationFailure.
    """
    n = len(rows[0])
    _, pivots, b = rref(rows, rhs)
    if pivots != list(range(n)):
        raise ValueError("linear system has no unique solution")
    exact = not any(isinstance(x, float) for r in [*rows, rhs] for x in r)
    for resid in b[n:]:
        if (resid != 0 if exact else abs(resid) > 1e-9):
            raise ValueError("inconsistent linear system")
    return b[:n]


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
    def affine(cls, matrix, inverse, anchor):
        """z = M (x - anchor); inverse x = anchor + M^-1 z.

        inverse is M^-1, which every caller already holds; it is taken
        as given, not checked.  A coefficient is the matrix entry as
        it is, and the constants are summed in coordinate order.
        """
        n = len(matrix)
        anchor = [_num(v) for v in anchor]
        origin = (0,) * n
        comps = []
        for j in range(n):
            terms = {}
            for i in range(n):
                c = _num(matrix[j][i])
                if c != 0:
                    terms[_unit_expo(n, i)] = c
                    shift = _num(-c * anchor[i]) if anchor[i] != 0 else 0
                    if shift != 0:
                        _accumulate(terms, {origin: shift})
            comps.append(_poly(n, terms))
        inv = []
        for j in range(n):
            terms = {origin: anchor[j]} if anchor[j] != 0 else {}
            for i in range(n):
                c = _num(inverse[j][i])
                if c != 0:
                    terms[_unit_expo(n, i)] = c
            inv.append(_poly(n, terms))
        return cls(comps, inv)

    @classmethod
    def shear(cls, shifts):
        """z_j = y_j + shifts[j], each shift using variables below j only.
        The unit of every y_j is 1.0 when a shift holds a float."""
        n = len(shifts)
        ys = coordinates(n, unit_of(shifts))
        comps = []
        for j, q in enumerate(shifts):
            if q is None:
                q = Poly.zero(n)
            if not q.uses_only_vars_below(j):
                raise ValueError("shift %d uses variables >= %d" % (j, j))
            comps.append(ys[j].add(q))
        # Back substitution: y_j = z_j - q_j(y_<j) with earlier y's
        # already written in z.
        inv = []
        for j in range(n):
            q = shifts[j] if shifts[j] is not None else Poly.zero(n)
            inv.append(ys[j].sub(q.subst(inv + ys[j:])))
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

    def pushforward(self, field, cap=None):
        """Transport a field through the map: (dPhi . V) o Phi^-1, each
        component cut at total degree cap + 1 as in taylor_truncate."""
        comps = []
        inv_list = list(self.inv)
        top = None if cap is None else cap + 1
        for j in range(self.n):
            acc = Poly.zero(self.n)
            for i in range(self.n):
                d = self.comps[j].diff(i)
                if d.is_zero() or field.comps[i].is_zero():
                    continue
                acc = acc.add(field.comps[i].mul(d))
            comps.append(acc.subst(inv_list, top))
        return WeightedPolynomialField(comps)

    def __repr__(self):
        return "TriangularMap(n=%d)" % self.n

