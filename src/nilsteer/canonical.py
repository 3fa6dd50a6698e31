"""Canonical form of the free nilpotent system on a Hall basis.

Coordinates v_1..v_n are indexed by the basis elements.  Each element
j contributes one monomial P_j, built by induction from the peeling of
j, and the i-th input field is

    D_i = sum over j with final generator i of  P_j(v) d/dv_j,

with P_i = 1 on the generator coordinate itself.  Driving the system
with inputs u moves coordinate j at rate P_j(v) u_phi(j), which is the
exactly integrable triangular structure the steering layer exploits.
"""

from fractions import Fraction

from .hall import build_hall_basis
from .poly import Poly, WeightedPolynomialField


class CanonicalSystem:
    """Free nilpotent system in canonical coordinates."""

    def __init__(self, m, r, basis, monomials, fields):
        self.m = m
        self.r = r
        self.basis = basis
        self.monomials = tuple(monomials)
        self.fields = tuple(fields)
        self.weights = basis.free_weights
        self.n = len(basis)

    def to_json(self):
        from .poly import poly_to_str
        names = ["v%d" % (j + 1) for j in range(self.n)]
        return {
            "m": self.m,
            "r": self.r,
            "dimension": self.n,
            "weights": list(self.weights),
            "monomials": [poly_to_str(p, names) for p in self.monomials],
            "fields": [[poly_to_str(c, names) for c in f.comps]
                       for f in self.fields],
        }


def canonical_monomials(basis):
    """The P_j, by induction on the left factor peeling.

    P_j is 1 on generators; a bracket with factors (j1, j2) divides
    out one more power of the multiplicity of j1 inside j2's peeling:
    P_j = v_j1 / (alpha_j2[j1] + 1) * P_j2.
    """
    n = len(basis)
    mons = []
    for e in basis.elements:
        if e.is_generator():
            mons.append(Poly.const(n, 1))
            continue
        inner = basis.element(e.right)
        mult = inner.alpha[e.left - 1] + 1
        p = mons[e.right - 1].mul(Poly.var(n, e.left - 1))
        mons.append(p.scale(Fraction(1, mult)))
    return mons


def canonical_fields(m, r):
    """Build the canonical system for m inputs, depth r."""
    basis = build_hall_basis(m, r)
    mons = canonical_monomials(basis)
    n = len(basis)
    fields = []
    for i in range(1, m + 1):
        comps = [Poly.zero(n)] * n
        for e in basis.elements:
            if e.phi == i:
                comps[e.index - 1] = mons[e.index - 1]
        fields.append(WeightedPolynomialField(comps))
    return CanonicalSystem(m, r, basis, mons, fields)
