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
the heights of their ``p^k`` multiples, and is the only per-element table;
scans that keep none read the same heights block by block
(:func:`_height_chunks`).  Packing needs only the moduli and strides
(:func:`_packing`), and an element's orbit under End(G) only the exponents
(:func:`_orbit_steps`), so block subgroups and orbits are built at any group
order without the table.  ``Element`` objects appear only where a caller
asks for them.

A subgroup also carries its block shifts (:attr:`Subgroup.block_shifts`), the
least valuation met in each homocyclic block.  A fully invariant subgroup is
the block sum of its shifts, so the lattice reads its order and containment
off them (:func:`_block_leq`, :func:`_within`).  :func:`_span` and
:func:`_grid` build index sets in any digit radix:
the ideal census in :mod:`pgroups.endos` spans and joins sets of End(G) indices
with them, while the ideals themselves (:class:`pgroups.endos.Ideal`) are held
by their block shift matrices.  :func:`_grid_rows` reads many grids of G at
once as mask rows over the table.
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

#: Bytes of the temporaries of one block of :func:`_height_chunks`.
_SCAN_BYTES = 2**22


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


@lru_cache(maxsize=64)
def _packing(G: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """``(moduli, strides)`` of the packed indices of ``G``, read-only: all
    that packing and unpacking need, at any group order."""
    moduli = np.array(G.coordinate_moduli, dtype=np.int64)
    strides = np.ones_like(moduli)
    strides[:-1] = np.cumprod(moduli[:0:-1])[::-1]
    for arr in (moduli, strides):
        arr.setflags(write=False)
    return moduli, strides


def _valuations(G: GroupSpec, x) -> np.ndarray:
    """``min(v_p(x_i), e_i)`` per coordinate, ``x`` over any leading axes:
    ``gcd(x_i, p^e_i)`` is that power of ``p``, located among the powers up to
    ``p^e``."""
    return np.searchsorted(G.p ** np.arange(G.exponent + 1), np.gcd(x, _packing(G)[0]))


def _height_rows(G: GroupSpec, start: int, stop: int) -> tuple:
    """``(coords, valuations, heights)`` of the packed elements ``start`` to
    ``stop - 1``, laid out as in :class:`_Table`: the one height routine of
    the table and of the chunked scans (:func:`_height_chunks`), refused over
    the enumeration cap."""
    if G.order > DEFAULT_MAX_GROUP_ORDER:
        raise GroupTooLargeError(
            f"|G| = {G.order} exceeds enumeration cap {DEFAULT_MAX_GROUP_ORDER}"
        )
    e = G.exponent
    moduli, strides = _packing(G)
    coords = np.arange(start, stop, dtype=np.int64)[:, None] // strides % moduli
    valuations = _valuations(G, coords).astype(np.int8)
    ks = np.arange(e + 1, dtype=np.int8)[:, None]
    heights = np.full((e + 1, stop - start), e, dtype=np.int8)
    for v, n in zip(valuations.T, G.coordinate_exponents):
        # [k, x]: p^k x has valuation v + k in this coordinate, or vanishes there
        shifted = v + ks
        np.minimum(heights, np.where(shifted < n, shifted, np.int8(e)), out=heights)
    return coords, valuations, heights


@lru_cache(maxsize=32)
def _table(G: GroupSpec) -> _Table:
    """The packed tables of ``G``; refused over the enumeration cap."""
    coords, valuations, heights = _height_rows(G, 0, G.order)
    exponents = (heights < G.exponent).sum(axis=0)
    for arr in (coords, valuations, heights, exponents):
        arr.setflags(write=False)
    return _Table(*_packing(G), coords, valuations, heights, exponents)


def _height_chunks(G: GroupSpec):
    """Yield the ``heights`` of :func:`_table` block by block of consecutive
    elements, each block's temporaries within ``_SCAN_BYTES``, for scans that
    keep no table."""
    # per element: three int64 temporaries per coordinate (the coordinate, its
    # gcd with the modulus, its valuation), e + 1 int8 heights and, for one
    # coordinate at a time, three temporaries of e + 1 bytes
    step = max(1, _SCAN_BYTES // (24 * G.rank + 4 * (G.exponent + 1)))
    for start in range(0, G.order, step):
        yield _height_rows(G, start, min(start + step, G.order))[2]


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
    generator.  ``S`` is held twice: sorted, for membership, and as a matrix
    of digits in any order, so that the cosets are one broadcast of the
    digits of ``k.g`` over it.  Seeds of larger order go first, so a cyclic
    span takes one round.
    """
    span = np.zeros(1, dtype=np.int64) if span is None else span
    pending = np.asarray(seed, dtype=np.int64).reshape(-1)
    digits = pending[:, None] // strides % radix
    orders = np.lcm.reduce(radix // np.gcd(digits, radix), axis=1)
    first = np.argsort(-orders, kind="stable")
    pending, digits, orders = pending[first], digits[first], orders[first]
    held = span[:, None] // strides % radix
    while True:
        outside = np.flatnonzero(~_members(pending, span))
        if not outside.size:
            return span
        g, order = digits[outside[0]], int(orders[outside[0]])
        mults = np.arange(order, dtype=np.int64)[:, None] * g % radix
        hit = np.flatnonzero(_members(mults[1:] @ strides, span))
        m = 1 + int(hit[0]) if hit.size else order
        held = (held[:, None] + mults[:m]).reshape(-1, radix.size)
        held %= radix
        span = np.sort(held @ strides)


def _grid(steps, radix: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """Sorted packed indices of the product of ``<steps_i>`` in each digit
    ``Z(radix_i)`` of stride ``strides_i``: a subgroup of G or of End(G)."""
    out = np.zeros(1, dtype=np.int64)
    # first digit most significant, so the result comes out sorted
    for q, stride, step in zip(radix, strides, steps):
        out = (out[:, None] + np.arange(0, q, step) * stride).reshape(-1)
    return out


def _grid_rows(G: GroupSpec, lows) -> np.ndarray:
    """``[i, x]``: element ``x`` lies in the grid (:func:`_grid`) with steps
    ``p^lows[i]``, one valuation per coordinate: each coordinate of ``x``
    has valuation at least ``lows[i, t]``, a zero coordinate counting as its
    exponent.  Read off the table (:func:`_table`) one coordinate at a time."""
    lows = np.asarray(lows)
    inside = np.ones((len(lows), G.order), dtype=bool)
    for v, low in zip(_table(G).valuations.T, lows.T):
        inside &= v >= low[:, None]
    return inside


def _orbit_steps(G: GroupSpec, coords) -> np.ndarray:
    """Per element ``a`` (a row of ``coords``), the step of each coordinate
    ``t`` of its orbit under End(G), read off the exponents: the gcd of
    ``p^e_t`` and the ``a_s p^max(0, e_t - e_s)``, the images of ``a`` under
    the single-entry endomorphisms.  Each image lies in one coordinate, so the
    orbit, the smallest fully invariant subgroup containing ``a``, is the grid
    of these steps (:func:`_grid`)."""
    exps = G.coordinate_exponents
    lift = np.array([[G.p ** max(0, et - es) for et in exps] for es in exps], dtype=np.int64)
    coords = np.asarray(coords, dtype=np.int64)
    steps = np.broadcast_to(_packing(G)[0], coords.shape)
    for s in range(G.rank):
        steps = np.gcd(steps, coords[..., s, None] * lift[s])
    return steps


def _indices_of(G: GroupSpec, elems: Iterable[Element]) -> np.ndarray:
    """Packed indices of the given elements of ``G``, in the given order."""
    elems = list(elems)
    if any(a.group != G for a in elems):
        raise MismatchedParentError("element of a different group")
    moduli, strides = _packing(G)
    coords = np.array([e.coords for e in elems], dtype=np.int64)
    return coords.reshape(-1, G.rank) % moduli @ strides


def _same_group(A, B) -> None:
    """``A`` and ``B`` (two subgroups, or two ideals) belong to one group."""
    if A.group != B.group:
        raise MismatchedParentError(f"{type(A).__name__.lower()}s of different groups")


def _bits(indices: np.ndarray) -> int:
    """The members of a set of packed indices as the set bits of one integer."""
    flags = np.zeros(int(indices.max()) + 1, dtype=bool)
    flags[indices] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _join_closure(atoms: Iterable, join, mask) -> list:
    """Every sum of a nonempty set of the subgroups ``atoms``, in order of
    discovery, each once; ``join(S, A)`` is the sum of two, and ``mask(S)``
    the member bitmask of ``S`` (:func:`_bits`), which decides equality and
    containment.

    Each set found is joined only with the atoms comparable to it in neither
    direction.  That reaches every sum: ``a_1 + ... + a_k`` is found from
    ``T = a_1 + ... + a_(k-1)``, since ``T + a_k`` is ``T`` itself or
    ``a_k`` when the two are comparable, and is joined directly otherwise.
    A join is made only when its sum is new: ``S + A`` has
    ``|S| |A| / |S & A|`` members, so a set found of that size that holds
    both is the sum.
    """
    found, masks, seen = [], [], set()
    by_size: dict[int, list[int]] = {}

    def add(S, m: int) -> None:
        if m not in seen:
            seen.add(m)
            found.append(S)
            masks.append(m)
            by_size.setdefault(m.bit_count(), []).append(m)

    for A in atoms:
        add(A, mask(A))
    singles = list(zip(found, masks))
    for S, s in zip(found, masks):  # runs on over the sets appended below
        for A, a in singles:
            if a & s in (a, s):
                continue
            size = s.bit_count() * a.bit_count() // (s & a).bit_count()
            if not any(t | s | a == t for t in by_size.get(size, ())):
                total = join(S, A)
                add(total, mask(total))
    return found


class Subgroup:
    """A subgroup held as the sorted packed indices of its elements, packed
    with the group's own radix and strides (:func:`_table`).

    ``Subgroup(G, elements)`` packs a sequence of elements of ``G`` (an element
    of another group raises :class:`MismatchedParentError`); like every
    constructor it checks the size cap and that 0 is a member, and the caller
    asserts closure.  ``indices`` is a read-only sorted int64 array; equality
    and hashing use the group and the index bytes.  ``elements`` decodes the
    members, in lexicographic order, on first use.

    ``block_shifts`` is the least valuation met in each homocyclic block
    ``B_i`` (``n_i`` when the block is unused): the shifts ``alpha`` of the
    block sum ``p^alpha_1 B_1 (+) ... (+) p^alpha_k B_k``, which every fully
    invariant subgroup is.  :func:`block_subgroup` holds the shifts it is
    built from; any other subgroup reads them once off the group table.
    """

    __slots__ = ("group", "indices", "_key", "_shifts", "_elements")

    def __init__(self, group: GroupSpec, elements: Iterable[Element]):
        self._hold(group, np.unique(_indices_of(group, elements)))

    def _hold(self, group: GroupSpec, indices: np.ndarray, shifts=None) -> "Subgroup":
        """Hold sorted unique packed ``indices``, after the size cap and the
        zero-element check."""
        cap = DEFAULT_MAX_SUBGROUP_SIZE
        if indices.size > cap:
            raise GroupTooLargeError(
                f"subgroup with {indices.size} elements exceeds cap {cap}"
            )
        if not indices.size or indices[0] != 0:
            raise InvalidInputError("a subgroup must contain the zero element")
        self.group = group
        self._key = np.asarray(indices, dtype=np.int64).tobytes()
        self.indices = np.frombuffer(self._key, dtype=np.int64)
        self._shifts, self._elements = shifts, None
        return self

    @property
    def block_shifts(self) -> tuple[int, ...]:
        if self._shifts is None:
            # zero coordinates count as their exponent, so an unused block gives n_i
            lowest = _table(self.group).valuations[self.indices].min(axis=0)
            starts = np.cumsum([0] + [m for _, m in self.group.components[:-1]])
            self._shifts = tuple(np.minimum.reduceat(lowest, starts).tolist())
        return self._shifts

    @property
    def elements(self) -> tuple[Element, ...]:
        if self._elements is None:
            coords = _table(self.group).coords[self.indices].tolist()
            self._elements = tuple(Element(self.group, tuple(c)) for c in coords)
        return self._elements

    @property
    def order(self) -> int:
        return self.indices.size

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._key == other._key
            and self.group == other.group
        )

    def __hash__(self) -> int:
        return hash((type(self), self.group, self._key))

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


def _subgroup(G: GroupSpec, indices: np.ndarray, shifts=None) -> Subgroup:
    """A Subgroup from sorted unique packed indices (see :meth:`Subgroup._hold`).
    ``shifts``, when given, are its block shifts.  The caller asserts closure."""
    return Subgroup.__new__(Subgroup)._hold(G, indices, shifts)


def subgroup_generated(G: GroupSpec, generators: Iterable[Element]) -> Subgroup:
    """Additive closure of a generating set (cyclic multiples + sums)."""
    cap = DEFAULT_MAX_SUBGROUP_SIZE
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
    return Subgroup(G, closed)


def _join(H: Subgroup, K: Subgroup) -> Subgroup:
    """``H + K``: the span of the smaller subgroup grown from the larger one."""
    _same_group(H, K)
    if H.order < K.order:
        H, K = K, H
    moduli, strides = _packing(H.group)
    return _subgroup(H.group, _span(K.indices, moduli, strides, span=H.indices))


def subgroup_sum(H: Subgroup, K: Subgroup) -> Subgroup:
    """Sum H + K."""
    return _join(H, K)


def subgroup_meet(H: Subgroup, K: Subgroup) -> Subgroup:
    """Intersection."""
    _same_group(H, K)
    return _subgroup(H.group, np.intersect1d(H.indices, K.indices, assume_unique=True))


def subgroup_leq(H: Subgroup, K: Subgroup) -> bool:
    """Containment H <= K."""
    _same_group(H, K)
    return H.order <= K.order and bool(_members(H.indices, K.indices).all())


def fundamental_subgroup(G: GroupSpec, kappa: int, n: int) -> Subgroup:
    """The subgroup ``p^kappa G [p^n]`` = elements of height >= kappa killed by p^n.

    Within a ``Z(p^e)`` summand it cuts out ``p^min(max(kappa, e-n), e) Z(p^e)``,
    so it is a block subgroup and no full-group scan is needed.

    >>> G = make_group(2, [(2, 1), (4, 1)])
    >>> fundamental_subgroup(G, 1, 2).order   # <pa> (+) <p^2 b>
    8
    """
    if kappa < 0 or n < 0:
        raise InvalidInputError("kappa and n must be nonnegative")
    return block_subgroup(G, _fundamental_shifts(G, kappa, n))


def _fundamental_shifts(G: GroupSpec, kappa, n):
    """The block shifts of ``p^kappa G[p^n]``, a tuple for int parameters.
    Array parameters broadcast against the trailing block axis (give them one
    trailing axis of length 1), so every cell of a grid is one call."""
    exps = np.array([e for e, _ in G.components])
    shifts = np.minimum(np.maximum(kappa, exps - n), exps)
    return tuple(shifts.tolist()) if shifts.ndim == 1 else shifts


def _block_order(G: GroupSpec, alpha: tuple[int, ...]) -> int:
    """The order of the block subgroup with shifts ``alpha``."""
    return G.p ** sum((n - a) * m for a, (n, m) in zip(alpha, G.components))


def _block_leq(alpha, beta) -> bool:
    """The block sum with shifts ``alpha`` lies in the one with ``beta``: each
    shift of ``alpha`` is at least that of ``beta``.  Exact for any subgroup
    with block shifts ``alpha`` (:attr:`Subgroup.block_shifts`)."""
    return all(a >= b for a, b in zip(alpha, beta))


def _within(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``[i, j]``: the object with (flattened) shifts ``A[i]`` lies in the one
    with ``B[j]`` (:func:`_block_leq`), for block sums and ideals alike; one
    ``[i, j]`` comparison per shift, which numpy runs far faster than a
    reduction over a short last axis."""
    inside = np.ones((len(A), len(B)), dtype=bool)
    for a, b in zip(np.transpose(A), np.transpose(B)):
        inside &= a[:, None] >= b
    return inside


def block_subgroup(G: GroupSpec, alpha: tuple[int, ...]) -> Subgroup:
    """The subgroup ``p^alpha_1 B_1 (+) ... (+) p^alpha_k B_k``.

    ``alpha`` gives one shift per homocyclic component, each within
    ``[0, n_i]``; the subgroup holds it as its ``block_shifts``.
    """
    if len(alpha) != len(G.components):
        raise InvalidInputError("one shift per homocyclic component required")
    for a, (n, _) in zip(alpha, G.components):
        if not 0 <= a <= n:
            raise InvalidInputError(f"shift {a} outside [0, {n}]")
    size = _block_order(G, alpha)
    cap = DEFAULT_MAX_SUBGROUP_SIZE
    if size > cap:
        raise GroupTooLargeError(f"subgroup with {size} elements exceeds cap {cap}")
    steps = [G.p**a for a, (_, m) in zip(alpha, G.components) for _ in range(m)]
    return _subgroup(G, _grid(steps, *_packing(G)), tuple(alpha))


def full_subgroup(G: GroupSpec) -> Subgroup:
    return block_subgroup(G, tuple(0 for _ in G.components))


def zero_subgroup(G: GroupSpec) -> Subgroup:
    return block_subgroup(G, tuple(n for n, _ in G.components))


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
    """The tuple ``(u_0, ..., u_(e-1))`` up to the exponent of G: the same
    differences of socle-slice dimensions as :func:`ulm_invariant`, with the
    coordinate exponents read once."""
    exps = G.coordinate_exponents
    dims = [sum(1 for e in exps if e > kappa) for kappa in range(G.exponent + 1)]
    return tuple(a - b for a, b in itertools.pairwise(dims))
