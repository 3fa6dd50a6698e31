"""Privileged coordinates and first order approximations.

first_order_approx is the one construction of a privileged chart: on
a system that is free up to the step at the anchor (a lifted system
from desing.desingularize, or a free system as given) it runs one
round of desing._chart_round at full depth, which is a linear change
adapted to the bracket frame, polynomial corrections that push the
nonholonomic order of each coordinate up to its weight, and a final
homogeneous identification that makes the leading part of the frame
equal the canonical fields exactly.  This module also owns the small
anisotropic geometry helpers (pseudo-norm and dilations) used all over
the planner and the steering layer.
"""

import math
from fractions import Fraction

from .desing import _chart_round
from .errors import SpecError
from .poly import (TriangularMap, identity, is_exact, poly_to_str,
                   taylor_truncate, unit_of)


def _int_nth_root(n, k):
    """Exact integer k-th root, or None."""
    if n < 0:
        return None
    if n in (0, 1) or k == 1:
        return n
    root = round(n ** (1.0 / k))
    for cand in (root - 1, root, root + 1):
        if cand >= 0 and cand ** k == n:
            return cand
    return None


def nth_root_fraction(q, k):
    """Exact k-th root of a nonnegative Fraction, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    num = _int_nth_root(q.numerator, k)
    den = _int_nth_root(q.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def pseudo_norm(z, weights):
    """Anisotropic norm: sum of |z_j| to the power 1/w_j.

    Stays an exact Fraction when every component admits an exact root;
    otherwise returns a float.
    """
    total = Fraction(0)
    exact = True
    for v, w in zip(z, weights):
        if exact and is_exact(v):
            root = nth_root_fraction(abs(Fraction(v)), w)
            if root is not None:
                total = total + root
                continue
        exact = False
        break
    if exact:
        return total
    return math.fsum(abs(float(v)) ** (1.0 / w) for v, w in
                     zip(z, weights))


def dilate(z, t, weights):
    """Apply the weighted dilation: component j scales by t^w_j."""
    out = []
    for v, w in zip(z, weights):
        if is_exact(v) and is_exact(t):
            out.append(Fraction(t) ** w * Fraction(v))
        else:
            out.append(float(t) ** w * float(v))
    return out


class PrivilegedChart:
    """Polynomial coordinates adapted to the bracket filtration.

    Built in three stages around an anchor: an affine map putting the
    frame values on the axes, a triangular correction raising each
    coordinate's vanishing order to its weight, and a homogeneous
    shear matching the leading field parts to the canonical
    monomials.  Forward and inverse maps are both polynomial, so the
    chart is a bijection of the whole space and evaluation never
    needs root-finding.
    """

    __slots__ = ("anchor", "weights", "map", "det_value")

    def __init__(self, anchor, weights, chart_map, det_value):
        self.anchor = tuple(anchor)
        self.weights = tuple(weights)
        self.map = chart_map
        self.det_value = det_value

    @property
    def n(self):
        return len(self.anchor)

    def apply(self, x):
        return self.map.apply(x)

    def apply_inverse(self, z):
        return self.map.apply_inverse(z)

    def to_json(self):
        xnames = ["x%d" % (i + 1) for i in range(self.n)]
        znames = ["z%d" % (i + 1) for i in range(self.n)]
        return {
            "anchor": [float(v) for v in self.anchor],
            "weights": list(self.weights),
            "forward": [poly_to_str(c, xnames) for c in self.map.comps],
            "inverse": [poly_to_str(c, znames) for c in self.map.inv],
            "det": float(self.det_value),
        }

    def __repr__(self):
        return "PrivilegedChart(anchor=%s)" % (self.anchor,)


def first_order_approx(fields, a, basis):
    """Privileged chart at a for a free system.

    The system must already be free up to step basis.r at the anchor,
    meaning the first len(basis) bracket fields are a frame there;
    otherwise the alignment step raises SingularFrame and the caller
    should lift first.  The whole chart chain runs in one pass since
    no fiber coordinates are needed.  Pushed through the returned
    chart, the leading parts of the fields are the canonical fields of
    (basis.m, basis.r), the system's first-order model at every anchor.
    """
    n = len(basis)
    if len(a) != n:
        raise SpecError("anchor has %d coordinates, the free dimension "
                        "is %d" % (len(a), n))
    for f in fields:
        if f.n != n:
            raise SpecError("field lives on dimension %d, expected %d"
                            % (f.n, n))
    if len(fields) != basis.m:
        raise SpecError("%d fields for a basis with %d generators"
                        % (len(fields), basis.m))
    cap = 2 * basis.r + 1
    shadows = [taylor_truncate(f, a, cap) for f in fields]
    coords = list(range(1, n + 1))
    align, correct, identify, _, det = _chart_round(
        shadows, basis, coords, basis.r, cap)
    ident = identity(n, unit_of(a))
    affine = align.compose(TriangularMap.affine(ident, ident, a))
    chart_map = identify.compose(correct).compose(affine)
    return PrivilegedChart(a, basis.free_weights, chart_map, det)
