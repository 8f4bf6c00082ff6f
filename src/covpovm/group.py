"""Finite groups as multiplication tables.

Groups are immutable tables over element indices 0..n-1 with human-readable
names.  The two non-abelian order-8 groups come with their standard 2x2
matrix realizations built from Pauli matrices; those matrices double as the
defining 2-dimensional irreducible representation elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .linalg import ZERO_ATOL

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

# Quaternion units as matrices: 1 -> id, i -> i*s1, j -> -i*s2, k -> i*s3.
QUATERNION_NAMES = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
QUATERNION_MATRICES = (
    _I2, -_I2, 1j * _S1, -1j * _S1, -1j * _S2, 1j * _S2, 1j * _S3, -1j * _S3,
)

DIHEDRAL8_NAMES = ("1", "-1", "is1", "-is1", "s2", "-s2", "s3", "-s3")
DIHEDRAL8_MATRICES = (
    _I2, -_I2, 1j * _S1, -1j * _S1, _S2, -_S2, _S3, -_S3,
)


def _is_index(x) -> bool:
    """Whether x can index an element: a Python or numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(eq=False)
class FiniteGroup:
    """Group given by its multiplication table.

    ``mul[a, b]`` is the index of the product of elements ``a`` and ``b``.
    ``kind`` tags groups produced by the builders (e.g. ``"quaternion"``,
    ``"cyclic:8"``, ``"product(cyclic:2,cyclic:4)"``) so that the dual can be
    constructed downstream; table-only groups carry ``kind=None``.

    Checked once, at construction: distinct names, integer entries, Latin
    rows, one two-sided identity, and associativity by Light's test on the
    greedy generating set ``generators`` (each element outside the closure
    of the earlier ones): (x s) y = x (s y) for all x, y and s in it.  The
    elements a passing for all x, y are closed under the product and the set
    generates the table, so the test is complete at every order, and the
    table is a group whose ``inverse`` is each row's identity entry.
    """

    names: tuple
    mul: np.ndarray
    kind: str | None = None
    identity: int = field(init=False)
    inverse: np.ndarray = field(init=False)
    generators: tuple = field(init=False)
    # the dual, built once by covpovm.rep.irreps_of
    _dual: tuple | None = field(default=None, init=False, repr=False)
    # the word tree of ``generators``, built once by covpovm.rep._word_tree
    _words: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        table = np.asarray(self.mul)
        if table.dtype.kind not in "iu":
            for x in np.asarray(self.mul, dtype=object).flat:
                if not _is_index(x):
                    raise DomainError(f"table entry {x!r} is not an integer")
        self.mul = np.asarray(table, dtype=int)
        n = self.order
        if len(set(self.names)) != n:
            raise DomainError(f"element names {self.names!r} are not distinct")
        if self.mul.shape != (n, n):
            raise DomainError(f"table shape {self.mul.shape} for {n} names")
        if n == 0:
            raise DomainError("a group needs at least the identity")
        full = np.arange(n)
        if not np.all(np.sort(self.mul, axis=1) == full[None, :]):
            raise DomainError("table is not a Latin square (rows)")
        idents = np.flatnonzero(np.all(self.mul == full, axis=1)
                                & np.all(self.mul.T == full, axis=1))
        if len(idents) != 1:
            raise DomainError("table has no (or no unique) two-sided identity")
        self.identity = int(idents[0])
        gens, members = [], full == self.identity
        for a in range(n):
            if not members[a]:
                gens.append(a)
                members = _closure(self, members | (full == a))
        # [x, s, y] -> (x s) y against x (s y)
        if not np.array_equal(self.mul[self.mul[:, gens]], np.take(self.mul, self.mul[gens], axis=1)):
            raise DomainError("table is not associative")
        self.generators = tuple(gens)
        self.inverse = np.argmax(self.mul == self.identity, axis=1)

    @property
    def order(self) -> int:
        return len(self.names)

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def element_order(self, a: int) -> int:
        k, cur = 1, a
        while cur != self.identity:
            cur = self.op(cur, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.all(self.mul == self.mul.T))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DomainError(f"no element named {name!r}") from None

    def order_census(self) -> dict:
        census: dict = {}
        for a in range(self.order):
            k = self.element_order(a)
            census[k] = census.get(k, 0) + 1
        return census


@dataclass(eq=False)
class Subgroup:
    parent: FiniteGroup
    members: tuple

    def __post_init__(self):
        for m in self.members:
            if not _is_index(m):
                raise DomainError(f"member {m!r} is not an element index")
        self.members = tuple(sorted(set(int(m) for m in self.members)))
        g = self.parent
        for m in self.members:
            if not 0 <= m < g.order:
                raise DomainError(f"element index {m} out of range")
        mem = np.array(self.members, dtype=int)
        held = np.zeros(g.order, dtype=bool)
        held[mem] = True
        if not held[g.identity]:
            raise DomainError("subgroup is missing the identity")
        if not held[g.mul[mem[:, None], mem]].all():
            raise DomainError("subgroup is not closed under the product")

    @property
    def order(self) -> int:
        return len(self.members)

    def names(self) -> tuple:
        return tuple(self.parent.names[m] for m in self.members)


@dataclass(eq=False)
class CosetSpace:
    """Left cosets gH with the natural G-action g'.(gH) = (g'g)H."""

    parent: FiniteGroup
    subgroup: Subgroup
    cosets: np.ndarray = field(init=False)           # [c] -> sorted members of coset c
    representatives: list = field(init=False)        # [c] -> smallest member of coset c
    coset_of: np.ndarray = field(init=False)
    action: np.ndarray = field(init=False)

    def __post_init__(self):
        g, h = self.parent, self.subgroup
        if h.parent is not g:
            raise DomainError("subgroup belongs to a different group")
        left = np.sort(g.mul[:, list(h.members)], axis=1)   # [a] -> aH
        first = left[:, 0]
        reps = np.flatnonzero(first == np.arange(g.order))
        self.cosets = left[reps]
        self.representatives = reps.tolist()
        self.coset_of = np.searchsorted(reps, first)
        self.action = self.coset_of[g.mul[:, reps]]

    @property
    def size(self) -> int:
        return len(self.cosets)

    def labels(self) -> tuple:
        return tuple(self.parent.names[r] for r in self.representatives)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise DomainError("cyclic group order must be at least 1")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(tuple(str(k) for k in range(n)), table, kind=f"cyclic:{n}")


def product_group(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) sits at index a * #G2 + b."""
    n1, n2 = g1.order, g2.order
    names = tuple(f"({na},{nb})" for na in g1.names for nb in g2.names)
    a = np.arange(n1 * n2) // n2
    b = np.arange(n1 * n2) % n2
    table = g1.mul[np.ix_(a, a)] * n2 + g2.mul[np.ix_(b, b)]
    kind = None
    if g1.kind and g2.kind:
        kind = f"product({g1.kind},{g2.kind})"
    return FiniteGroup(names, table, kind=kind)


def _group_from_matrices(names, matrices, kind) -> FiniteGroup:
    mats = np.asarray(matrices)
    prods = mats[:, None] @ mats[None]                          # [a, b] -> M(a) M(b)
    hits = np.abs(prods[:, :, None] - mats).max(axis=(3, 4)) < ZERO_ATOL   # [a, b, c]
    if not np.all(hits.sum(axis=2) == 1):
        raise DomainError("matrix set is not closed under the product")
    return FiniteGroup(tuple(names), np.argmax(hits, axis=2), kind=kind)


def quaternion_group() -> FiniteGroup:
    return _group_from_matrices(QUATERNION_NAMES, QUATERNION_MATRICES, "quaternion")


def dihedral8_group() -> FiniteGroup:
    return _group_from_matrices(DIHEDRAL8_NAMES, DIHEDRAL8_MATRICES, "dihedral8")


def _split_product_args(body: str) -> list:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def build_group(kind: str) -> FiniteGroup:
    """Build a group from its kind string.

    Grammar: ``cyclic:N``, ``quaternion``, ``dihedral8``, or
    ``product(A,B)`` with A and B again kind strings.
    """
    kind = kind.strip()
    if kind == "quaternion":
        return quaternion_group()
    if kind == "dihedral8":
        return dihedral8_group()
    if kind.startswith("cyclic:"):
        try:
            n = int(kind.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"bad cyclic order in {kind!r}") from None
        return cyclic_group(n)
    if kind.startswith("product(") and kind.endswith(")"):
        parts = _split_product_args(kind[len("product("):-1])
        if len(parts) < 2:
            raise DomainError(f"product needs two factors: {kind!r}")
        groups = [build_group(p) for p in parts]
        out = groups[0]
        for g in groups[1:]:
            out = product_group(out, g)
        return out
    raise DomainError(f"unknown group kind {kind!r}")


def _closure(g: FiniteGroup, members: np.ndarray) -> np.ndarray:
    """Close a boolean member mask under the product, in place, and return it.

    The mask must hold the identity, so each pass, which squares the set,
    keeps every member; the passes stop when the set stops growing or is whole.
    """
    grown = True
    while grown:
        held = np.flatnonzero(members)
        members[g.mul[held[:, None], held]] = True
        grown = held.size < np.count_nonzero(members) < g.order
    return members


def subgroup_generated(g: FiniteGroup, generators) -> Subgroup:
    gens = list(generators)
    for x in gens:
        if not _is_index(x):
            raise DomainError(f"generator {x!r} is not an element index")
        if not 0 <= x < g.order:
            raise DomainError(f"generator index {x} out of range")
    members = np.zeros(g.order, dtype=bool)
    members[[g.identity, *gens]] = True
    return Subgroup(g, tuple(np.flatnonzero(_closure(g, members))))


def coset_space(g: FiniteGroup, h: Subgroup) -> CosetSpace:
    return CosetSpace(g, h)


def find_cyclic_transitive_subgroup(g: FiniteGroup, h: Subgroup):
    """Exhaustive scan for a single generator acting transitively on G/H.

    Scans every g0 in G, so ``None`` is a proof that no cyclic subgroup acts
    transitively on the coset space.
    """
    if h.order == g.order:
        raise DomainError("subgroup must be proper")
    cosets = coset_space(g, h)
    for g0 in range(g.order):
        sub = subgroup_generated(g, [g0])
        if np.bincount(cosets.action[list(sub.members), 0], minlength=cosets.size).all():
            return sub
    return None


def all_subgroups(g: FiniteGroup) -> list:
    """Every subgroup, by closure of generator sets; desk-scale orders only."""
    if g.order > 16:
        raise DomainError("subgroup enumeration is limited to order <= 16")
    found = {}
    frontier = [subgroup_generated(g, [])]
    found[frontier[0].members] = frontier[0]
    while frontier:
        sub = frontier.pop()
        for x in range(g.order):
            if x in sub.members:
                continue
            bigger = subgroup_generated(g, list(sub.members) + [x])
            if bigger.members not in found:
                found[bigger.members] = bigger
                frontier.append(bigger)
    return sorted(found.values(), key=lambda s: (s.order, s.members))
