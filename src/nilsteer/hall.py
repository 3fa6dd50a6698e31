"""Hall bases of the free Lie algebra on m generators, up to length r.

Elements are ordered by length, generators first in their own order,
and within one length by construction order: candidate left factors
ascending, then right factors ascending.  A bracket [a, [b, c]] of
length at least three belongs to the family exactly when a, b, c and
[b, c] all do, b comes no later than a, and a comes strictly before
[b, c].  Length-two elements are the generator pairs [i, j] with i
before j.

Every element therefore peels into nested left factors applied to a
final generator; the peeling data (the final generator and the left
factor multiplicities) drives both the canonical form and the steering
coefficients downstream.
"""

from dataclasses import dataclass

from .errors import SpecError
from .poly import lie_bracket


@dataclass(frozen=True)
class HallElement:
    """One basis element.

    index is the 1-based position in the basis.  Generators carry gen
    (1-based generator number); brackets carry left and right (indices
    of their factors).  phi is the final generator after peeling left
    factors, alpha the tuple of left factor multiplicities over the
    whole basis, delta the per-generator leaf counts.
    """

    index: int
    length: int
    gen: int
    left: int
    right: int
    phi: int
    alpha: tuple
    delta: tuple

    @property
    def kind(self):
        return "generator" if self.gen else "bracket"

    def is_generator(self):
        return self.gen != 0


class HallBasis:
    """A built basis with its derived tables."""

    def __init__(self, m, r, elements, level_dims):
        self.m = m
        self.r = r
        self.elements = tuple(elements)
        self.level_dims = tuple(level_dims)
        self.free_weights = tuple(e.length for e in self.elements)
        self.classes = _group_classes(self.elements)
        self.class_of = {}
        for ci, cls in enumerate(self.classes):
            for j in cls:
                self.class_of[j] = ci

    def __len__(self):
        return len(self.elements)

    def element(self, j):
        """1-based element access."""
        return self.elements[j - 1]

    def name(self, j):
        e = self.element(j)
        if e.is_generator():
            return "X%d" % e.gen
        return "[%s,%s]" % (self.name(e.left), self.name(e.right))

    def to_json(self):
        elements = []
        for e in self.elements:
            item = {
                "index": e.index,
                "length": e.length,
                "kind": e.kind,
                "phi": e.phi,
                "alpha": {str(k + 1): a for k, a in enumerate(e.alpha)
                          if a},
                "delta": list(e.delta),
                "name": self.name(e.index),
            }
            if e.is_generator():
                item["gen"] = e.gen
            else:
                item["left"] = e.left
                item["right"] = e.right
            elements.append(item)
        return {
            "m": self.m,
            "r": self.r,
            "dimension": len(self.elements),
            "level_dims": list(self.level_dims),
            "weights": list(self.free_weights),
            "classes": [list(c) for c in self.classes],
            "elements": elements,
        }


def _group_classes(elements):
    by_delta = {}
    for e in elements:
        by_delta.setdefault(e.delta, []).append(e.index)
    classes = sorted(by_delta.values(), key=lambda cls: cls[0])
    return tuple(tuple(cls) for cls in classes)


def build_hall_basis(m, r):
    """Construct the basis for m generators truncated at length r."""
    if m < 1:
        raise SpecError("need at least one generator")
    if r < 1:
        raise SpecError("need depth at least one")
    elements = []

    def add(length, gen=0, left=0, right=0):
        index = len(elements) + 1
        if gen:
            phi = gen
            delta = tuple(1 if i == gen - 1 else 0 for i in range(m))
        else:
            le = elements[left - 1]
            re = elements[right - 1]
            phi = re.phi
            delta = tuple(a + b for a, b in zip(le.delta, re.delta))
        elements.append(HallElement(index, length, gen, left, right,
                                    phi, (), delta))

    for i in range(1, m + 1):
        add(1, gen=i)
    level_dims = [m]
    for length in range(2, r + 1):
        prev_count = len(elements)
        for a in range(1, prev_count + 1):
            ea = elements[a - 1]
            for bc in range(1, prev_count + 1):
                eb = elements[bc - 1]
                if ea.length + eb.length != length:
                    continue
                if length == 2:
                    ok = ea.is_generator() and eb.is_generator() and a < bc
                else:
                    ok = (not eb.is_generator()) and eb.left <= a < bc
                if ok:
                    add(length, left=a, right=bc)
        level_dims.append(len(elements))

    # left factor peeling: multiplicities and the final generator were
    # already fixed above; fill in alpha now that indexing is stable
    n = len(elements)
    finished = []
    for e in elements:
        counts = [0] * n
        cur = e
        while not cur.is_generator():
            counts[cur.left - 1] += 1
            cur = elements[cur.right - 1]
        finished.append(HallElement(e.index, e.length, e.gen, e.left,
                                    e.right, e.phi, tuple(counts),
                                    e.delta))
    return HallBasis(m, r, finished, level_dims)


def evaluate_brackets(basis, indices, fields, cap=None):
    """The fields of the elements named by indices, one per index, on
    concrete vector fields.

    fields lists one field per generator.  The whole table shares one
    memo, so every element is bracketed once however many listed
    elements contain it.  On polynomial fields every product is cut at
    total degree cap (lie_bracket).
    """
    if len(fields) != basis.m:
        raise SpecError("expected %d fields, got %d"
                        % (basis.m, len(fields)))
    needed = set()
    todo = list(indices)
    while todo:
        k = todo.pop()
        if k not in needed:
            needed.add(k)
            e = basis.element(k)
            if not e.is_generator():
                todo += (e.left, e.right)
    # a bracket's factors are shorter, so they come earlier in the basis
    memo = {}
    for k in sorted(needed):
        e = basis.element(k)
        memo[k] = fields[e.gen - 1] if e.is_generator() else lie_bracket(
            memo[e.left], memo[e.right], cap)
    return [memo[j] for j in indices]
