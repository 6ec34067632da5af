"""Bounded abelian p-groups with exact residue arithmetic.

A group here is a finite direct sum of homocyclic blocks

    G  =  Z(p^n1)^m1  (+)  Z(p^n2)^m2  (+)  ...  (+)  Z(p^nk)^mk

with n1 < n2 < ... < nk, so ``exp(G) = p^nk``.  Elements are tuples of
residues, one coordinate per cyclic summand, listed in increasing order of
summand exponent.  All objects are immutable; all operations are pure
functions of their arguments.

The module provides element arithmetic, heights and exponents, Ulm
invariants, the two-parameter family ``p^kappa G [p^n]`` of fundamental
subgroups, and subgroup arithmetic (sum, intersection, comparison).

Elements are packed as mixed-radix integers, first coordinate most
significant, so packed order is lexicographic coordinate order.  A
:class:`Subgroup` is the sorted array of its packed elements.  One cached
table per group (:func:`_table`) holds the coordinates of every element and
the heights of their ``p^k`` multiples, which is all that sums,
intersections, containment and indicator cuts need.  ``Element`` objects
appear only where a caller asks for them.

Subgroups and the ideals of End(G) (:class:`pgroups.endos.Ideal`) are both
packed sets (:class:`_PackedSet`) and share one join, meet, order and
join-closure fixpoint (:func:`_join`, :func:`_meet`, :func:`_leq`,
:func:`_join_closure`); they differ only in the digit radix of their indices.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    GroupTooLargeError,
    InvalidInputError,
    MismatchedParentError,
    NonIncreasingExponentsError,
    NonPrimeError,
    ZeroMultiplicityError,
)

#: Largest group order that explicit element enumeration will materialize.
DEFAULT_MAX_GROUP_ORDER = 2**20

#: Largest explicit element set a single Subgroup may hold.
DEFAULT_MAX_SUBGROUP_SIZE = 2**16


class _Infinity:
    """Order-infinity sentinel: compares above every integer.

    Used for the height of 0 and as the implicit terminal entry of an
    indicator.  A dedicated singleton (rather than ``math.inf``) keeps all
    finite values exact ints and serializes cleanly.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("pgroups.INF")

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True


INF = _Infinity()


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    # Trial division is exact and instant at the sizes this library targets
    # (group orders are capped near 2**20, so p is tiny).
    for d in range(3, math.isqrt(p) + 1, 2):
        if p % d == 0:
            return False
    return True


@dataclass(frozen=True)
class GroupSpec:
    """Immutable description of a bounded abelian p-group.

    ``components`` is a tuple of ``(exponent, multiplicity)`` pairs with
    strictly increasing exponents.  Construct via :func:`make_group`, which
    validates.
    """

    p: int
    components: tuple[tuple[int, int], ...]

    @property
    def rank(self) -> int:
        """Number of cyclic summands (= dimension of the socle)."""
        return sum(m for _, m in self.components)

    @property
    def exponent(self) -> int:
        """The largest component exponent nk, so exp(G) = p**nk."""
        return self.components[-1][0]

    @property
    def order(self) -> int:
        return self.p ** sum(n * m for n, m in self.components)

    @property
    def coordinate_exponents(self) -> tuple[int, ...]:
        """Per-coordinate exponents, one entry per cyclic summand.

        >>> make_group(2, [(1, 2), (3, 1)]).coordinate_exponents
        (1, 1, 3)
        """
        out: list[int] = []
        for n, m in self.components:
            out.extend([n] * m)
        return tuple(out)

    @property
    def coordinate_moduli(self) -> tuple[int, ...]:
        return tuple(self.p**n for n in self.coordinate_exponents)

    def zero(self) -> "Element":
        return Element(self, (0,) * self.rank)

    def generator(self, coordinate: int) -> "Element":
        """The standard generator of the given cyclic summand."""
        coords = [0] * self.rank
        coords[coordinate] = 1
        return Element(self, tuple(coords))

    def element(self, coords: Iterable[int]) -> "Element":
        """Build an element, reducing each coordinate mod its modulus."""
        moduli = self.coordinate_moduli
        cs = tuple(c % q for c, q in zip(coords, moduli, strict=True))
        return Element(self, cs)

    def describe(self) -> str:
        """Human-readable shape, e.g. ``'Z(2^2) (+) Z(2^4)'``."""
        parts = []
        for n, m in self.components:
            block = f"Z({self.p}^{n})" if n > 1 else f"Z({self.p})"
            if m > 1:
                block += f"^{m}"
            parts.append(block)
        return " (+) ".join(parts)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "components": [
                {"exponent": n, "multiplicity": m} for n, m in self.components
            ],
        }

    @classmethod
    def from_json(cls, data: dict, max_order: int | None = None) -> "GroupSpec":
        try:
            p = data["p"]
            pairs = [(c["exponent"], c["multiplicity"]) for c in data["components"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed group description: {exc}") from exc
        return make_group(p, pairs, max_order=max_order)


def _is_int(x) -> bool:
    """A true integer: ``bool`` and ``float`` do not count."""
    return isinstance(x, int) and not isinstance(x, bool)


def make_group(
    p: int, pairs: Iterable[tuple[int, int]], max_order: int | None = None
) -> GroupSpec:
    """Validate and build a :class:`GroupSpec`.

    ``pairs`` lists ``(exponent, multiplicity)`` per homocyclic component,
    exponents strictly increasing and positive, multiplicities >= 1.  ``p``,
    exponents and multiplicities must be ``int`` (not ``bool`` or ``float``).

    ``max_order`` is the command line's ``--max-group`` budget.  It is
    checked before ``p`` is tested for primality and without computing a
    larger order, so a huge ``p`` or exponent fails at once with
    :class:`GroupTooLargeError`.

    >>> make_group(2, [(2, 1), (4, 1)]).order
    64
    """
    comps = tuple((n, m) for n, m in pairs)
    if not _is_int(p) or p < 2:
        raise NonPrimeError(f"p must be a prime integer, got {p!r}")
    for n, m in comps:
        if not (_is_int(n) and _is_int(m)):
            raise InvalidInputError(
                f"exponent and multiplicity must be integers, got {n!r} and {m!r}"
            )
    if not comps:
        raise InvalidInputError("a group needs at least one component")
    last = 0
    for n, m in comps:
        if n <= last:
            raise NonIncreasingExponentsError(
                f"component exponents must strictly increase, got {[c[0] for c in comps]}"
            )
        if m < 1:
            raise ZeroMultiplicityError(f"multiplicity must be >= 1, got {m}")
        last = n
    k = sum(n * m for n, m in comps)  # |G| = p^k
    # p^b > max_order for b = max_order.bit_length(), so no larger power is needed
    if max_order is not None and p ** min(k, max_order.bit_length()) > max_order:
        shown = p**k if k * p.bit_length() <= 256 else f"{p}^{k}"
        raise GroupTooLargeError(f"|G| = {shown} exceeds --max-group {max_order}")
    if not _is_prime(p):
        raise NonPrimeError(f"p must be a prime integer, got {p!r}")
    return GroupSpec(p=p, components=comps)


@dataclass(frozen=True)
class Element:
    """A group element: residue tuple, one coordinate per cyclic summand."""

    group: GroupSpec
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self) -> str:
        return f"Element{self.coords}"


def _require_same_parent(a: Element, b: Element) -> None:
    if a.group != b.group:
        raise MismatchedParentError("elements belong to different groups")


def add(a: Element, b: Element) -> Element:
    """Coordinatewise sum, each coordinate reduced mod its modulus."""
    _require_same_parent(a, b)
    moduli = a.group.coordinate_moduli
    return Element(
        a.group,
        tuple((x + y) % q for x, y, q in zip(a.coords, b.coords, moduli)),
    )


def neg(a: Element) -> Element:
    moduli = a.group.coordinate_moduli
    return Element(a.group, tuple((-x) % q for x, q in zip(a.coords, moduli)))


def smul(c: int, a: Element) -> Element:
    """Integer scalar multiple ``c * a``."""
    moduli = a.group.coordinate_moduli
    return Element(a.group, tuple((c * x) % q for x, q in zip(a.coords, moduli)))


def _valuation(x: int, p: int) -> int:
    # Only called with x != 0, so this terminates.
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def exponent(a: Element) -> int:
    """Least n >= 0 with ``p^n * a == 0``.

    Zero has exponent 0; a generator of a Z(p^n) summand has exponent n.

    >>> G = make_group(2, [(2, 1), (4, 1)])
    >>> exponent(G.element([1, 0]))
    2
    """
    p = a.group.p
    worst = 0
    for x, e in zip(a.coords, a.group.coordinate_exponents):
        if x != 0:
            worst = max(worst, e - _valuation(x, p))
    return worst


def height(a: Element):
    """Largest h with ``a`` in ``p^h G``; INF for the zero element.

    For a nonzero element this is the minimum p-adic valuation over its
    nonzero coordinates (zero coordinates impose no constraint).

    >>> G = make_group(2, [(2, 1), (4, 1)])
    >>> height(G.element([2, 0]))
    1
    >>> height(G.zero())
    INF
    """
    p = a.group.p
    best = None
    for x in a.coords:
        if x != 0:
            v = _valuation(x, p)
            best = v if best is None else min(best, v)
    return INF if best is None else best


def enumerate_elements(G: GroupSpec, max_order: int | None = None) -> list[Element]:
    """All elements of ``G`` in deterministic lexicographic coordinate order.

    Refuses groups over the configured order cap (default 2**20).
    """
    cap = DEFAULT_MAX_GROUP_ORDER if max_order is None else max_order
    if G.order > cap:
        raise GroupTooLargeError(f"|G| = {G.order} exceeds enumeration cap {cap}")
    ranges = [range(q) for q in G.coordinate_moduli]
    return [Element(G, coords) for coords in itertools.product(*ranges)]


@dataclass(frozen=True, eq=False)
class _Table:
    """Packed tables over every element ``x`` of one group.

    ``x`` has coordinate ``i`` equal to ``x // strides[i] % moduli[i]`` (first
    coordinate most significant), listed in ``coords[x]``.  ``valuations[x, i]``
    is the p-adic valuation of that coordinate, a zero coordinate counting as
    its own exponent.  ``heights[k, x]`` is the height of ``p^k x`` for
    ``k <= exp(G)``, with ``exp(G)`` standing for INF, and ``exponents[x]``
    counts the finite ones.
    """

    moduli: np.ndarray
    strides: np.ndarray
    coords: np.ndarray
    valuations: np.ndarray
    heights: np.ndarray
    exponents: np.ndarray


@lru_cache(maxsize=32)
def _table(G: GroupSpec) -> _Table:
    """The packed tables of ``G``; refused over the enumeration cap."""
    if G.order > DEFAULT_MAX_GROUP_ORDER:
        raise GroupTooLargeError(
            f"|G| = {G.order} exceeds enumeration cap {DEFAULT_MAX_GROUP_ORDER}"
        )
    p, e = G.p, G.exponent
    moduli = np.array(G.coordinate_moduli, dtype=np.int64)
    strides = np.ones_like(moduli)
    strides[:-1] = np.cumprod(moduli[:0:-1])[::-1]
    exps = np.array(G.coordinate_exponents, dtype=np.int8)
    coords = np.arange(G.order, dtype=np.int64)[:, None] // strides % moduli
    divides = [coords % p**k == 0 for k in range(1, e + 1)]
    valuations = np.minimum(np.sum(divides, axis=0, dtype=np.int8), exps)
    heights = np.empty((e + 1, G.order), dtype=np.int8)
    for k in range(e + 1):
        # p^k x has valuation v + k in a coordinate, or vanishes there
        shifted = valuations + np.int8(k)
        heights[k] = np.where(shifted < exps, shifted, np.int8(e)).min(axis=1)
    exponents = (heights < e).sum(axis=0)
    for arr in (moduli, strides, coords, valuations, heights, exponents):
        arr.setflags(write=False)
    return _Table(moduli, strides, coords, valuations, heights, exponents)


def _members(x: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Boolean mask: which entries of ``x`` occur in the sorted ``sorted_set``."""
    pos = np.searchsorted(sorted_set, x)
    return sorted_set[np.minimum(pos, sorted_set.size - 1)] == x


def _span(
    seed: np.ndarray, radix: np.ndarray, strides: np.ndarray, span=None
) -> np.ndarray:
    """Sorted packed indices of the subgroup of ``(+) Z(radix_i)`` generated by
    ``seed`` and the subgroup ``span`` (sorted indices; zero by default), where
    index ``x`` has digit ``i`` equal to ``x // strides_i % radix_i``.

    Each seed ``g`` outside the running subgroup ``S`` joins in one step: with
    ``m`` the least ``k >= 1`` such that ``k.g`` lies in ``S``, the cosets
    ``S + k.g`` for ``k < m`` are disjoint and their union is the subgroup
    generated by ``S`` and ``g``.  So each round adds one independent
    generator, and builds it digit by digit in arrays no larger than the new
    ``S``.  Seeds of larger order go first, so a cyclic span takes one round.
    """
    span = np.zeros(1, dtype=np.int64) if span is None else span
    pending = np.unique(np.asarray(seed, dtype=np.int64))
    pending = pending[~_members(pending, span)]
    digits = pending[:, None] // strides % radix
    orders = np.lcm.reduce(radix // np.gcd(digits, radix), axis=1)
    first = np.argsort(-orders, kind="stable")
    pending, orders = pending[first], orders[first]
    while True:
        keep = ~_members(pending, span)
        pending, orders = pending[keep], orders[keep]
        if pending.size == 0:
            return span
        g = pending[0] // strides % radix
        mults = np.arange(orders[0], dtype=np.int64)[:, None] * g % radix
        hit = np.flatnonzero(_members(mults[1:] @ strides, span))
        m = 1 + int(hit[0]) if hit.size else int(orders[0])
        grown = np.zeros((span.size, m), dtype=np.int64)
        for i in range(radix.size):
            digit = span // strides[i] % radix[i]
            grown += (digit[:, None] + mults[None, :m, i]) % radix[i] * strides[i]
        span = np.sort(grown, axis=None)


def _grid(G: GroupSpec, steps) -> np.ndarray:
    """Sorted packed indices of the product of ``<steps_i>`` in each coordinate."""
    t = _table(G)
    out = np.zeros(1, dtype=np.int64)
    # first coordinate most significant, so the result comes out sorted
    for q, stride, step in zip(t.moduli, t.strides, steps):
        out = (out[:, None] + np.arange(0, q, step) * stride).reshape(-1)
    return out


def _indices_of(G: GroupSpec, elems: Iterable[Element]) -> np.ndarray:
    """Packed indices of the given elements, in the given order."""
    t = _table(G)
    coords = np.array([e.coords for e in elems], dtype=np.int64)
    return coords.reshape(-1, G.rank) % t.moduli @ t.strides


class _PackedSet:
    """A finite set held as the sorted packed indices of its members.

    ``indices`` is a read-only sorted int64 array; equality and hashing use
    the type, the group and the index bytes.  A subclass names the digit
    radix and strides its indices are packed with (:meth:`_digits`) and how
    to hold a new index array of its kind (:meth:`_with`).
    """

    __slots__ = ("group", "indices", "_key")

    def _pack(self, group: GroupSpec, indices) -> "_PackedSet":
        """Hold sorted unique packed ``indices``."""
        self.group = group
        self._key = np.asarray(indices, dtype=np.int64).tobytes()
        self.indices = np.frombuffer(self._key, dtype=np.int64)
        return self

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._key == other._key
            and self.group == other.group
        )

    def __hash__(self) -> int:
        return hash((type(self), self.group, self._key))


def _same_group(A: _PackedSet, B: _PackedSet) -> None:
    if A.group != B.group:
        raise MismatchedParentError(f"{type(A).__name__.lower()}s of different groups")


def _join(A: _PackedSet, B: _PackedSet) -> _PackedSet:
    """``A + B``: the span of the smaller set grown from the larger one."""
    _same_group(A, B)
    if A.indices.size < B.indices.size:
        A, B = B, A
    return A._with(_span(B.indices, *A._digits(), span=A.indices))


def _meet(A: _PackedSet, B: _PackedSet) -> _PackedSet:
    _same_group(A, B)
    return A._with(np.intersect1d(A.indices, B.indices, assume_unique=True))


def _leq(A: _PackedSet, B: _PackedSet) -> bool:
    _same_group(A, B)
    return A.indices.size <= B.indices.size and bool(
        _members(A.indices, B.indices).all()
    )


def _join_closure(atoms: Iterable, join) -> list:
    """Every join of a nonempty set of ``atoms``, in order of discovery.
    Each set is joined once with every set found before it."""
    found = list(dict.fromkeys(atoms))
    seen = set(found)
    for i, A in enumerate(found):  # runs on over the sets appended below
        for B in found[:i]:
            total = join(A, B)
            if total not in seen:
                seen.add(total)
                found.append(total)
    return found


class Subgroup(_PackedSet):
    """A subgroup held as the sorted packed indices of its elements, packed
    with the group's own radix and strides (:func:`_table`).

    ``Subgroup(G, elements)`` packs an ``Element`` sequence.
    ``elements`` decodes the members, in lexicographic order, on first use.

    ``fi_form`` optionally records a block decomposition: a tuple of
    per-component shifts ``(alpha_1, ..., alpha_k)`` meaning the subgroup is
    ``p^alpha_1 B_1 (+) ... (+) p^alpha_k B_k`` with ``B_i`` the i-th
    homocyclic block.  It is populated for subgroups produced with a known
    decomposition (e.g. the fundamental family) and by canonicalization.
    """

    __slots__ = ("fi_form", "_elements")

    def __init__(self, group: GroupSpec, elements: Iterable[Element], fi_form=None):
        self._pack(group, np.unique(_indices_of(group, elements)), fi_form)

    def _pack(self, group: GroupSpec, indices, fi_form=None) -> "Subgroup":
        self.fi_form, self._elements = fi_form, None
        return super()._pack(group, indices)

    def _digits(self) -> tuple[np.ndarray, np.ndarray]:
        t = _table(self.group)
        return t.moduli, t.strides

    def _with(self, indices: np.ndarray) -> "Subgroup":
        return _subgroup(self.group, indices)

    @property
    def elements(self) -> tuple[Element, ...]:
        if self._elements is None:
            coords = _table(self.group).coords[self.indices].tolist()
            self._elements = tuple(Element(self.group, tuple(c)) for c in coords)
        return self._elements

    @property
    def order(self) -> int:
        return self.indices.size

    def __contains__(self, a) -> bool:
        return (
            isinstance(a, Element)
            and a.group == self.group
            and all(0 <= c < q for c, q in zip(a.coords, self.group.coordinate_moduli))
            and bool(_members(_indices_of(self.group, [a]), self.indices)[0])
        )

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.group.describe()})"


def _subgroup(
    G: GroupSpec, indices: np.ndarray, fi_form=None, max_size: int | None = None
) -> Subgroup:
    """A Subgroup from sorted unique packed indices, after the size cap and
    the zero-element check.  The caller asserts closure."""
    cap = DEFAULT_MAX_SUBGROUP_SIZE if max_size is None else max_size
    if indices.size > cap:
        raise GroupTooLargeError(
            f"subgroup with {indices.size} elements exceeds cap {cap}"
        )
    if not indices.size or indices[0] != 0:
        raise InvalidInputError("a subgroup must contain the zero element")
    return Subgroup.__new__(Subgroup)._pack(G, indices, fi_form)


def subgroup_from_set(
    G: GroupSpec,
    elems: Iterable[Element],
    fi_form: tuple[int, ...] | None = None,
    max_size: int | None = None,
) -> Subgroup:
    """Freeze an element set into a Subgroup with canonical ordering.

    The caller asserts closure; this only sorts, dedupes, caps, and checks
    the zero element is present.
    """
    return _subgroup(G, np.unique(_indices_of(G, elems)), fi_form, max_size)


def subgroup_generated(
    G: GroupSpec, generators: Iterable[Element], max_size: int | None = None
) -> Subgroup:
    """Additive closure of a generating set (cyclic multiples + sums)."""
    cap = DEFAULT_MAX_SUBGROUP_SIZE if max_size is None else max_size
    gens = list(generators)
    for g in gens:
        if g.group != G:
            raise MismatchedParentError("generator from a different group")
    closed: set[Element] = {G.zero()}
    for g in gens:
        # closure(H ∪ {g}) = {h + c*g} — one sweep per generator suffices
        # because the running set is already a subgroup.
        reach = []
        mult = g
        while not mult.is_zero():
            reach.append(mult)
            mult = add(mult, g)
        new = set(closed)
        for h in closed:
            for r in reach:
                new.add(add(h, r))
        closed = new
        if len(closed) > cap:
            raise GroupTooLargeError(
                f"generated subgroup exceeded cap {cap} during closure"
            )
    return subgroup_from_set(G, closed, max_size=cap)


def subgroup_sum(H: Subgroup, K: Subgroup) -> Subgroup:
    """Sum H + K."""
    return _join(H, K)


def subgroup_meet(H: Subgroup, K: Subgroup) -> Subgroup:
    """Intersection."""
    return _meet(H, K)


def subgroup_leq(H: Subgroup, K: Subgroup) -> bool:
    """Containment H <= K."""
    return _leq(H, K)


def fundamental_subgroup(
    G: GroupSpec, kappa: int, n: int, max_size: int | None = None
) -> Subgroup:
    """The subgroup ``p^kappa G [p^n]`` = elements of height >= kappa killed by p^n.

    Within a ``Z(p^e)`` summand it cuts out ``p^min(max(kappa, e-n), e) Z(p^e)``,
    so it is a block subgroup and no full-group scan is needed.  The result
    carries its block form in ``fi_form``.

    >>> G = make_group(2, [(2, 1), (4, 1)])
    >>> fundamental_subgroup(G, 1, 2).order   # <pa> (+) <p^2 b>
    8
    """
    if kappa < 0 or n < 0:
        raise InvalidInputError("kappa and n must be nonnegative")
    alpha = tuple(min(max(kappa, ncomp - n), ncomp) for ncomp, _ in G.components)
    return block_subgroup(G, alpha, max_size=max_size)


def block_subgroup(
    G: GroupSpec, alpha: tuple[int, ...], max_size: int | None = None
) -> Subgroup:
    """The subgroup ``p^alpha_1 B_1 (+) ... (+) p^alpha_k B_k``.

    ``alpha`` gives one shift per homocyclic component, each within
    ``[0, n_i]``.
    """
    if len(alpha) != len(G.components):
        raise InvalidInputError("one shift per homocyclic component required")
    for a, (n, _) in zip(alpha, G.components):
        if not 0 <= a <= n:
            raise InvalidInputError(f"shift {a} outside [0, {n}]")
    size = G.p ** sum((n - a) * m for a, (n, m) in zip(alpha, G.components))
    cap = DEFAULT_MAX_SUBGROUP_SIZE if max_size is None else max_size
    if size > cap:
        raise GroupTooLargeError(f"subgroup of order {size} exceeds cap {cap}")
    steps = [G.p**a for a, (_, m) in zip(alpha, G.components) for _ in range(m)]
    return _subgroup(G, _grid(G, steps), fi_form=tuple(alpha), max_size=cap)


def full_subgroup(G: GroupSpec) -> Subgroup:
    return block_subgroup(G, tuple(0 for _ in G.components))


def zero_subgroup(G: GroupSpec) -> Subgroup:
    return block_subgroup(G, tuple(n for n, _ in G.components))


@lru_cache(maxsize=None)
def ulm_invariant(G: GroupSpec, kappa: int) -> int:
    """Dimension of ``p^kappa G[p] / p^(kappa+1) G[p]`` over the p-element field.

    Computed from the socle filtration: a Z(p^e) summand contributes to the
    slice at kappa exactly when e > kappa and e <= kappa + 1, i.e. e == kappa+1.

    >>> G = make_group(2, [(2, 1), (4, 1)])
    >>> [ulm_invariant(G, k) for k in range(4)]
    [0, 1, 0, 1]
    """
    if kappa < 0:
        raise InvalidInputError("kappa must be nonnegative")
    # dim p^kappa G[p] = #{coordinates with e > kappa}; take the difference
    # of consecutive socle-slice dimensions rather than trusting a lookup.
    exps = G.coordinate_exponents
    dim_here = sum(1 for e in exps if e > kappa)
    dim_next = sum(1 for e in exps if e > kappa + 1)
    return dim_here - dim_next


def ulm_invariants(G: GroupSpec) -> tuple[int, ...]:
    """The tuple ``(u_0, ..., u_(e-1))`` up to the exponent of G."""
    return tuple(ulm_invariant(G, k) for k in range(G.exponent))
