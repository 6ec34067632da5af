"""Height indicators: finite strictly increasing sequences ordered by refinement.

The indicator of a nonzero element ``a`` of exponent ``n+1`` is the sequence
``(height(a), height(pa), ..., height(p^n a))`` — strictly increasing finite
naturals with an implicit terminal infinity.  The zero element gets the empty
sequence, written ``(inf)``.

Ordering: ``sigma`` precedes ``tau`` when ``sigma`` is at least as long and
is pointwise <= ``tau`` on ``tau``'s finite entries.  Shorter sequences sit
higher; the empty indicator is the top.  Under this order the set of all
bounded indicators is a lattice whose meet pads the shorter argument with
infinity and whose join truncates to the shorter length.

:func:`ind_of` computes one element's indicator.  The admissible indicators
are generated once per group from the Ulm invariants (:func:`_admissible`,
read by the lattice and the claims).  The subgroup ``G(sigma)`` cut out by an
indicator is a block sum whose shifts :func:`cut_shifts` reads off the shape.
The oracle scans the packed height table instead: :func:`_cut_masks` reads
the cuts of many indicators as one ``[indicator, element]`` mask, one
vectorised comparison per entry position up to the longest, and both
:func:`indicator_subgroup` and :func:`_cut_order` (which counts a cut over the
heights block by block, keeping no table) are that mask for one indicator.
The pair bounds (:func:`_pair_bounds`) are read off one precedes matrix in
blocks of pairs.  The module builds on :mod:`pgroups.groups` alone; the action
of End(G) on indicators is checked in :mod:`pgroups.endos`.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import IndexOutOfRangeError, InvalidInputError, NotNormalizableError
from .groups import Element, GroupSpec, INF, exponent, height, smul, ulm_invariant, ulm_invariants
from .groups import _height_chunks, _is_int, _subgroup, _table

#: Bytes of one ``[indicator, pair]`` mask in a block of :func:`_pair_bounds`.
_PAIR_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class Indicator:
    """A strictly increasing tuple of nonnegative ints (possibly empty).

    The terminal infinity is implicit and not stored.

    >>> Indicator((1, 3)).length
    2
    >>> str(Indicator(()))
    '(inf)'
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        last = -1
        for e in self.entries:
            if not _is_int(e) or e < 0:
                raise InvalidInputError(f"indicator entries must be naturals: {e!r}")
            if e <= last:
                raise InvalidInputError(
                    f"indicator entries must strictly increase: {self.entries}"
                )
            last = e

    @property
    def length(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "(" + ",".join([*map(str, self.entries), "inf"]) + ")"

    def __repr__(self) -> str:
        return f"Indicator{self.entries}"

    def to_json(self) -> dict:
        return {"entries": list(self.entries)}

    @classmethod
    def from_json(cls, data: dict) -> "Indicator":
        """Read ``{"entries": [...]}``; a non-integer entry is malformed, not coerced."""
        try:
            entries = tuple(data["entries"])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed indicator: {exc}") from exc
        return cls(entries)


def _sorted_indicators(sigmas: Iterable[Indicator]) -> list[Indicator]:
    """The indicators in the one fixed output order: by length, then entries."""
    return sorted(sigmas, key=lambda s: (s.length, s.entries))


#: The empty indicator (the top of the order; indicator of the zero element).
TOP = Indicator(())


def ind_of(a: Element) -> Indicator:
    """Indicator of an element: heights of its successive p-power multiples.

    >>> from .groups import make_group
    >>> G = make_group(2, [(2, 1), (4, 1)])
    >>> ind_of(G.element([1, 0]))
    Indicator(0, 1)
    """
    n = exponent(a)
    p = a.group.p
    heights = []
    cur = a
    for _ in range(n):
        heights.append(height(cur))
        cur = smul(p, cur)
    return Indicator(tuple(heights))


def precedes(sigma: Indicator, tau: Indicator) -> bool:
    """Refinement order: longer-and-pointwise-below precedes shorter-and-above.

    >>> precedes(Indicator((1, 3)), Indicator((1,)))
    True
    >>> precedes(Indicator((1,)), Indicator((1, 3)))
    False
    """
    if sigma.length < tau.length:
        return False
    return all(s <= t for s, t in zip(sigma.entries, tau.entries))


def _padded(inds: list[Indicator]) -> tuple[np.ndarray, int]:
    """``(A, top)``: ``A[i, k]`` is entry ``k`` of ``inds[i]``, and ``top``,
    one above every entry, past its length.  ``top`` stands for the terminal
    infinity, so on these rows :func:`precedes` is an entrywise ``<=``,
    :func:`ind_min` the entrywise min and :func:`ind_max` the entrywise max
    (a pad in either row absorbs the max, which truncates it)."""
    width = max((s.length for s in inds), default=0)
    top = 1 + max((s.entries[-1] for s in inds if s.entries), default=0)
    rows = [s.entries + (top,) * (width - s.length) for s in inds]
    return np.array(rows, dtype=np.min_scalar_type(top)).reshape(len(inds), width), top


def _precedes_matrix(inds: list[Indicator]) -> np.ndarray:
    """``[i, j]``: ``precedes(inds[i], inds[j])``, read off the padded rows
    (:func:`_padded`): one ``[i, j]`` comparison per entry position."""
    below = np.ones((len(inds),) * 2, dtype=bool)
    for column in np.transpose(_padded(inds)[0]):
        below &= column[:, None] <= column
    return below


def ind_min(sigma: Indicator, tau: Indicator) -> Indicator:
    """Greatest lower bound: pointwise min with the shorter side padded by inf.

    Strict increase of both inputs forces strict increase of the output, so
    normalization never has to intervene.

    >>> ind_min(Indicator((1,)), Indicator((0, 3)))
    Indicator(0, 3)
    """
    n = max(sigma.length, tau.length)
    merged = []
    for i in range(n):
        s = sigma.entries[i] if i < sigma.length else INF
        t = tau.entries[i] if i < tau.length else INF
        merged.append(s if s <= t else t)
    return _normalized(merged)


def ind_max(sigma: Indicator, tau: Indicator) -> Indicator:
    """Least upper bound: pointwise max truncated at the shorter length.

    >>> ind_max(Indicator((0, 1)), Indicator((1, 3)))
    Indicator(1, 3)
    """
    n = min(sigma.length, tau.length)
    merged = [max(sigma.entries[i], tau.entries[i]) for i in range(n)]
    return _normalized(merged)


def _normalized(entries: list) -> Indicator:
    # Defensive guard behind ind_min/ind_max.  Both constructions provably
    # preserve strict increase, so a violation indicates a caller bug; the
    # error type is kept because the public contract names it.
    finite = [e for e in entries if e is not INF]
    if len(finite) != len(entries):
        raise NotNormalizableError("interior infinity in pointwise combination")
    for a, b in itertools.pairwise(finite):
        if b <= a:
            raise NotNormalizableError(f"not strictly increasing: {entries}")
    return Indicator(tuple(finite))


def has_gap_at(sigma: Indicator, i: int) -> bool:
    """True when the step from entry i to entry i+1 skips at least one value.

    Requires two finite entries at positions i, i+1; the jump to the terminal
    infinity never counts as a gap.
    """
    if i < 0 or i + 1 >= sigma.length:
        raise IndexOutOfRangeError(
            f"positions {i},{i + 1} not both inside indicator of length {sigma.length}"
        )
    return sigma.entries[i] + 1 < sigma.entries[i + 1]


def is_admissible(G: GroupSpec, sigma: Indicator) -> bool:
    """Gap-condition admissibility for ``G``.

    Entries must stay below exp(G), the length may not exceed exp(G), and a
    gap after value v is allowed only when the Ulm invariant u_v is nonzero.
    The implicit terminal infinity never triggers the gap condition.
    """
    e = G.exponent
    if sigma.length > e:
        return False
    if any(v >= e for v in sigma.entries):
        return False
    for i in range(sigma.length - 1):
        if has_gap_at(sigma, i) and ulm_invariant(G, sigma.entries[i]) == 0:
            return False
    return True


def is_realizable(G: GroupSpec, sigma: Indicator) -> bool:
    """True when some element of ``G`` has exactly this indicator.

    Strictly stronger than :func:`is_admissible`: the final finite entry is
    the height of a socle element, so it must also land on a nonzero Ulm
    invariant.
    """
    if not is_admissible(G, sigma):
        return False
    if sigma.length == 0:
        return True
    return ulm_invariant(G, sigma.entries[-1]) != 0


def enumerate_admissible(G: GroupSpec) -> set[Indicator]:
    """All admissible indicators of ``G`` (always includes the empty one),
    generated entry by entry: after ``v`` comes ``v + 1``, or any larger value
    below exp(G) when the Ulm invariant ``u_v`` is nonzero.

    >>> from .groups import make_group
    >>> len(enumerate_admissible(make_group(2, [(2, 1), (4, 1)])))
    13
    """
    return set(_admissible(G))


@lru_cache(maxsize=32)
def _admissible(G: GroupSpec) -> tuple[Indicator, ...]:
    """:func:`enumerate_admissible` in the fixed (length, entries) order
    (:func:`_sorted_indicators`), kept per group: the lattice and every claim
    that reads the indicators share one enumeration.  Each length is grown
    from the sorted one before, each prefix by increasing entries, so the
    indicators come out in that order."""
    u = ulm_invariants(G)
    e = len(u)
    found = [TOP]
    grown = [(v,) for v in range(e)]
    while grown:
        found += map(Indicator, grown)
        grown = [
            s + (w,) for s in grown for w in range(s[-1] + 1, e if u[s[-1]] else min(s[-1] + 2, e))
        ]
    return tuple(found)


def min_admissible(G: GroupSpec) -> Indicator:
    """The unique minimum admissible indicator ``(0, 1, ..., e-1)``."""
    return Indicator(tuple(range(G.exponent)))


def indicator_subgroup(G: GroupSpec, sigma: Indicator):
    """The set of elements whose indicator dominates ``sigma``.

    Equivalently: exponent at most ``len(sigma)`` and ``height(p^i a) >=
    sigma_i`` for each finite entry.  Always a fully invariant subgroup.

    >>> from .groups import make_group
    >>> G = make_group(2, [(2, 1), (4, 1)])
    >>> indicator_subgroup(G, Indicator((1,))).order    # the socle
    4
    """
    (inside,) = _cut_masks(_table(G).heights, G.exponent, [sigma])
    return _subgroup(G, np.flatnonzero(inside))


def _cut_masks(heights: np.ndarray, e: int, sigmas: list[Indicator]) -> np.ndarray:
    """``[i, x]``: element ``x`` lies in the cut ``G(sigmas[i])``, read off
    ``heights[k, x]``, the heights of its ``p^k`` multiples laid out as in the
    group's table (``e = exp(G)`` standing for INF), without building a
    subgroup: ``heights[k, x] >= sigma_k`` for every entry, then
    ``heights[len(sigma), x] == e``.  One pass per ``k`` up to the longest
    ``sigma`` compares that row of heights with every indicator's bound at
    ``k``: its entry, or INF past its end (redundant past the first)."""
    width = min(max((s.length for s in sigmas), default=0) + 1, e)
    bound = np.full((len(sigmas), width), e, dtype=heights.dtype)
    for i, s in enumerate(sigmas):
        entries = [min(v, e) for v in s.entries[:width]]
        bound[i, : len(entries)] = entries
    inside = heights[0] >= bound[:, :1]
    for k in range(1, width):
        inside &= heights[k] >= bound[:, k, None]
    return inside


def _cut_order(G: GroupSpec, sigma: Indicator) -> int:
    """The order of the cut ``G(sigma)``, counted over the heights block by
    block (:func:`pgroups.groups._height_chunks`): no table is kept."""
    e = G.exponent
    return sum(int(np.count_nonzero(_cut_masks(h, e, [sigma]))) for h in _height_chunks(G))


def cut_shifts(G: GroupSpec, sigma: Indicator) -> tuple[int, ...]:
    """The block shifts of the cut ``G(sigma)``: per block of exponent ``n``,
    ``n`` less the number of entries of ``sigma`` below ``n``.

    That is the least ``v >= n - len(sigma)`` with ``v + k >= sigma_k`` for
    every ``k < n - v`` (the heights of the ``p^k`` multiples of ``p^v``
    times a generator): ``sigma_k - k`` never falls, so only the last ``k``
    binds, and it holds exactly when ``sigma_(n - v - 1) < n``.

    >>> from .groups import make_group
    >>> cut_shifts(make_group(2, [(2, 1), (4, 1)]), Indicator((1, 3)))
    (1, 2)
    """
    return tuple([n - bisect.bisect_left(sigma.entries, n) for n, _ in G.components])


def admissible_glb(
    G: GroupSpec, sigma: Indicator, tau: Indicator, universe: set[Indicator] | None = None
) -> Indicator | None:
    """Greatest lower bound of two admissible indicators *within* the
    admissible family of ``G``, or None when no unique one exists.

    This can differ from :func:`ind_min` (whose output may be inadmissible),
    and for some groups no greatest admissible lower bound exists at all.
    """
    pool = enumerate_admissible(G) if universe is None else universe
    lower = [r for r in pool if precedes(r, sigma) and precedes(r, tau)]
    greatest = [r for r in lower if all(precedes(q, r) for q in lower)]
    return greatest[0] if len(greatest) == 1 else None


def admissible_lub(
    G: GroupSpec, sigma: Indicator, tau: Indicator, universe: set[Indicator] | None = None
) -> Indicator | None:
    """Least upper bound within the admissible family, or None."""
    pool = enumerate_admissible(G) if universe is None else universe
    upper = [r for r in pool if precedes(sigma, r) and precedes(tau, r)]
    least = [r for r in upper if all(precedes(r, q) for q in upper)]
    return least[0] if len(least) == 1 else None


def _pair_bounds(adm: list[Indicator]) -> tuple[np.ndarray, np.ndarray]:
    """For each pair ``adm[i], adm[j]`` with ``i < j``, in row-major order:
    whether :func:`admissible_glb` and :func:`admissible_lub` within ``adm``
    exist, read off one precedes matrix (:func:`_precedes_matrix`).

    Refinement is a partial order, so every lower bound of a common lower
    bound ``r`` is one too: ``r`` is the greatest exactly when it has as many
    lower bounds in ``adm`` as the pair has in common.  Dually for the least
    upper bound.  The ``[r, pair]`` masks are built for one block of pairs at
    a time, each within ``_PAIR_BLOCK_BYTES``.
    """
    P = _precedes_matrix(adm)
    C = P.astype(np.int64)  # counts; the [r, pair] masks stay boolean
    lower, upper = C.T @ C, C @ C.T  # [i, j]: common lower / upper bounds
    n_lower, n_upper = C.sum(axis=0)[:, None], C.sum(axis=1)[:, None]
    i, j = np.triu_indices(len(adm), 1)
    glb, lub = np.empty(i.size, dtype=bool), np.empty(i.size, dtype=bool)
    step = max(1, _PAIR_BLOCK_BYTES // len(adm))
    for start in range(0, i.size, step):
        a, b = i[start : start + step], j[start : start + step]
        glb[start : start + step] = (P[:, a] & P[:, b] & (n_lower == lower[a, b])).any(axis=0)
        lub[start : start + step] = (P[a].T & P[b].T & (n_upper == upper[a, b])).any(axis=0)
    return glb, lub


def indicator_universe(bound: int) -> list[Indicator]:
    """Every indicator with entries < bound and length <= bound, sorted."""
    out = []
    for length in range(bound + 1):
        for entries in itertools.combinations(range(bound), length):
            out.append(Indicator(entries))
    return _sorted_indicators(out)
