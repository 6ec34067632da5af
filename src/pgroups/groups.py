"""Bounded abelian p-groups with exact residue arithmetic.

A group here is a finite direct sum of homocyclic blocks

    G  =  Z(p^n1)^m1  (+)  Z(p^n2)^m2  (+)  ...  (+)  Z(p^nk)^mk

with n1 < n2 < ... < nk, so ``exp(G) = p^nk``.  Elements are tuples of
residues, one coordinate per cyclic summand, listed in increasing order of
summand exponent.  All objects are immutable; all operations are pure
functions of their arguments.

The module provides element arithmetic, heights and exponents, Ulm
invariants, the two-parameter family ``p^kappa G [p^n]`` of fundamental
subgroups, and explicit subgroup arithmetic (sum, intersection, comparison)
on enumerated element sets.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

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
    def from_json(cls, data: dict) -> "GroupSpec":
        try:
            p = data["p"]
            pairs = [(c["exponent"], c["multiplicity"]) for c in data["components"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed group description: {exc}") from exc
        return make_group(p, pairs)


def _is_int(x) -> bool:
    """A true integer: ``bool`` and ``float`` do not count."""
    return isinstance(x, int) and not isinstance(x, bool)


def make_group(p: int, pairs: Iterable[tuple[int, int]]) -> GroupSpec:
    """Validate and build a :class:`GroupSpec`.

    ``pairs`` lists ``(exponent, multiplicity)`` per homocyclic component,
    exponents strictly increasing and positive, multiplicities >= 1.  ``p``,
    exponents and multiplicities must be ``int`` (not ``bool`` or ``float``).

    >>> make_group(2, [(2, 1), (4, 1)]).order
    64
    """
    if not _is_int(p) or not _is_prime(p):
        raise NonPrimeError(f"p must be a prime integer, got {p!r}")
    comps = tuple((n, m) for n, m in pairs)
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


@dataclass(frozen=True)
class Subgroup:
    """A subgroup held as an explicit, canonically ordered element set.

    ``fi_form`` optionally records a block decomposition: a tuple of
    per-component shifts ``(alpha_1, ..., alpha_k)`` meaning the subgroup is
    ``p^alpha_1 B_1 (+) ... (+) p^alpha_k B_k`` with ``B_i`` the i-th
    homocyclic block.  It is populated for subgroups produced with a known
    decomposition (e.g. the fundamental family) and by canonicalization.
    """

    group: GroupSpec
    elements: tuple[Element, ...]
    fi_form: tuple[int, ...] | None = field(default=None, compare=False)
    _set: frozenset[Element] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_set", frozenset(self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: Element) -> bool:
        return a in self._set

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self._set == other._set
        )

    def __hash__(self) -> int:
        return hash((self.group, self._set))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.group.describe()})"


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
    cap = DEFAULT_MAX_SUBGROUP_SIZE if max_size is None else max_size
    ordered = sorted({e.coords for e in elems})
    if len(ordered) > cap:
        raise GroupTooLargeError(
            f"subgroup with {len(ordered)} elements exceeds cap {cap}"
        )
    if not ordered or ordered[0] != (0,) * G.rank:
        raise InvalidInputError("a subgroup must contain the zero element")
    return Subgroup(G, tuple(Element(G, c) for c in ordered), fi_form=fi_form)


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
    """Pointwise sumset H + K (a subgroup whenever H and K are)."""
    if H.group != K.group:
        raise MismatchedParentError("subgroups of different groups")
    moduli = H.group.coordinate_moduli
    seen: set[tuple[int, ...]] = set()
    for h in H.elements:
        hc = h.coords
        for k in K.elements:
            seen.add(tuple((x + y) % q for x, y, q in zip(hc, k.coords, moduli)))
    return subgroup_from_set(H.group, (Element(H.group, c) for c in seen))


def subgroup_meet(H: Subgroup, K: Subgroup) -> Subgroup:
    """Intersection."""
    if H.group != K.group:
        raise MismatchedParentError("subgroups of different groups")
    smaller, larger = (H, K) if H.order <= K.order else (K, H)
    return subgroup_from_set(
        H.group, (e for e in smaller.elements if e in larger)
    )


def subgroup_leq(H: Subgroup, K: Subgroup) -> bool:
    """Containment H <= K."""
    if H.group != K.group:
        raise MismatchedParentError("subgroups of different groups")
    return all(e in K for e in H.elements)


def _coordinate_shifts(G: GroupSpec, kappa: int, n: int) -> list[int]:
    # Per-coordinate shift of p^kappa G [p^n]: within a Z(p^e) summand the
    # subgroup cuts out p^min(max(kappa, e-n), e) * Z(p^e).
    return [
        min(max(kappa, e - n), e) for e in G.coordinate_exponents
    ]


def fundamental_subgroup(
    G: GroupSpec, kappa: int, n: int, max_size: int | None = None
) -> Subgroup:
    """The subgroup ``p^kappa G [p^n]`` = elements of height >= kappa killed by p^n.

    Decomposes per block, so no full-group scan is needed.  The result
    carries its block form in ``fi_form``.

    >>> G = make_group(2, [(2, 1), (4, 1)])
    >>> fundamental_subgroup(G, 1, 2).order   # <pa> (+) <p^2 b>
    8
    """
    if kappa < 0 or n < 0:
        raise InvalidInputError("kappa and n must be nonnegative")
    p = G.p
    shifts = _coordinate_shifts(G, kappa, n)
    size = 1
    for s, e in zip(shifts, G.coordinate_exponents):
        size *= p ** (e - s)
    cap = DEFAULT_MAX_SUBGROUP_SIZE if max_size is None else max_size
    if size > cap:
        raise GroupTooLargeError(f"subgroup of order {size} exceeds cap {cap}")
    axes = []
    for s, q in zip(shifts, G.coordinate_moduli):
        step = p**s
        axes.append(range(0, q, step) if step < q else range(1))
    elems = (Element(G, coords) for coords in itertools.product(*axes))
    alpha = tuple(min(max(kappa, ncomp - n), ncomp) for ncomp, _ in G.components)
    return subgroup_from_set(G, elems, fi_form=alpha, max_size=cap)


def block_subgroup(G: GroupSpec, alpha: tuple[int, ...]) -> Subgroup:
    """The subgroup ``p^alpha_1 B_1 (+) ... (+) p^alpha_k B_k``.

    ``alpha`` gives one shift per homocyclic component, each within
    ``[0, n_i]``.
    """
    if len(alpha) != len(G.components):
        raise InvalidInputError("one shift per homocyclic component required")
    for a, (n, _) in zip(alpha, G.components):
        if not 0 <= a <= n:
            raise InvalidInputError(f"shift {a} outside [0, {n}]")
    p = G.p
    shifts: list[int] = []
    for a, (_, m) in zip(alpha, G.components):
        shifts.extend([a] * m)
    axes = []
    for s, q in zip(shifts, G.coordinate_moduli):
        step = p**s
        axes.append(range(0, q, step) if step < q else range(1))
    elems = (Element(G, coords) for coords in itertools.product(*axes))
    return subgroup_from_set(G, elems, fi_form=tuple(alpha))


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
