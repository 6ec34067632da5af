"""Endomorphism rings of bounded abelian p-groups, their ideals, and the
image/preimage correspondence between ideals and fully invariant subgroups.

An endomorphism is an r x r integer matrix acting on row vectors from the
right: coordinate ``t`` of ``a.f`` is ``sum_s a_s F[s][t]`` reduced mod
``p^e_t``.  Well-definedness forces entry ``(s, t)`` to be divisible by
``p^max(0, e_t - e_s)``, which also fixes the ring order at
``p^(sum min(e_s, e_t))``.

Two order-preserving maps connect ideals and subgroups:

* a subgroup ``H`` (fully invariant) pulls back to the ideal of all
  endomorphisms whose image lies inside ``H``;
* an ideal ``I`` pushes forward to the subgroup generated by the images of
  its members.

End(G) is additively spanned by the ``r^2`` single-entry matrices of
``EndoRing.basis``, and an endomorphism's index is its digits over them.
Every two-sided ideal holds ``e_ss f e_tt`` for each of its members ``f``, so
it splits entrywise, uniformly over each homocyclic block: its shift form
(:class:`Ideal`) is the ``k x k`` block shift matrix ``w`` of the least entry
valuations, the twin of a fully invariant subgroup's block shifts ``alpha``
(:attr:`pgroups.groups.Subgroup.block_shifts`).  With
``λ_st = max(0, e_t - e_s)``, both lattices and both maps are served in
these valuations:

* sums, meets and containment are the entrywise min, max and ``>=``;
* the pullback of ``H`` is ``w_st = max(λ_st, alpha_t)`` (:func:`_pullback`),
  the pushforward of ``I`` is ``alpha_t = min_s w_st`` (:func:`_pushforward`),
  ``p^n E`` is ``min(λ_st + n, e_t)`` and ``E[p^n]`` is ``max(λ_st, e_t - n)``;
* generation closes entry valuations in closed form (:func:`ideal_generated`);
* ``H`` is fully invariant iff its shifts are a normal form (Kaplansky).

The ideals are listed from the fully invariant lattice (:func:`ideal_shifts`):
row ``s`` of ``w`` is the block shifts of the fully invariant ``I G[p^e_s]``,
and the ideals are the chains of lattice nodes ``H_1 <= ... <= H_k`` with
``H_s <= G[p^e_s]`` and ``p^(e_s - e_(s-1)) H_s <= H_(s-1)``.

The exhaustive census stays as an oracle (:func:`_ideal_census`: the spans
of the principal ideals of the multiples ``p^v b``, closed under sums,
:func:`_sum_closure`), which the ``dagger-well-defined`` claim of
:mod:`pgroups.claims` checks the shift forms against on every ring within the
ideal budget.  Member sets are built only for output, witnesses, scans and
that oracle.

Each group has one cached :class:`EndoRing`, the index space of End(G): its
radix, strides and basis, ``O(r^2)`` numbers.  The ring budget applies
through :func:`get_ring`, which the callers that walk End(G) check.  Only the
action (:meth:`EndoRing.action_chunks` and its kin) and
:meth:`EndoRing.is_fully_invariant` read the group's elements, from its
table, when called.  An image's rank is read off the ``r x r`` matrix whose
rows span it (:func:`_image_ranks`).  The enumeration order is fixed (matrix
positions row-major, entries ascending), so every index is reproducible.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidInputError,
    MismatchedParentError,
    NotFullyInvariantError,
    RingTooLargeError,
)
from .groups import Element, GroupSpec, Subgroup, block_subgroup
from .groups import _bits, _grid, _is_int, _join_closure, _members, _same_group, _span
from .groups import _packing, _subgroup, _table, _valuations, _within
from .lattice import canonical_fi_form, enumerate_fi_subgroups

#: Largest endomorphism ring that will be enumerated.
DEFAULT_MAX_RING_ORDER = 2**20

#: Largest ring for which full ideal enumeration is attempted.
DEFAULT_MAX_IDEAL_RING_ORDER = 2**12

#: Most (endomorphism, element) pairs that one pass over the action covers:
#: the whole table of :attr:`EndoRing.action`, or the chunked scan of
#: ``endo-height-exponent`` and ``endo-indicator-monotone``.
MAX_ACTION_ENTRIES = 2**26

#: Bytes of endos x elements x r int64 entries in one block of
#: :meth:`EndoRing.action_chunks`.
_CHUNK_BYTES = 2**24

#: Members decoded at a time when ``Ideal(group, indices)`` reads its shifts.
_DECODE_ROWS = 4096


def ring_order(G: GroupSpec) -> int:
    """``p ** sum(min(e_s, e_t))`` over all coordinate pairs — no enumeration.

    >>> from .groups import make_group
    >>> ring_order(make_group(2, [(1, 1), (2, 1)]))
    32
    """
    exps = G.coordinate_exponents
    return G.p ** sum(min(es, et) for es in exps for et in exps)


@dataclass(frozen=True)
class Endo:
    """An endomorphism as a residue matrix (rows = source coordinates)."""

    group: GroupSpec
    matrix: tuple[tuple[int, ...], ...]

    def __repr__(self) -> str:
        return f"Endo{self.matrix}"

    def to_json(self) -> dict:
        return {"matrix": [list(r) for r in self.matrix]}

    @classmethod
    def from_json(cls, G: GroupSpec, data: dict) -> "Endo":
        """Read ``{"matrix": [[...], ...]}``; an entry that is not a JSON
        integer (``bool``, ``float``, a string) is malformed, not coerced."""
        try:
            rows = [list(r) for r in data["matrix"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed endomorphism: {exc}") from exc
        for x in itertools.chain.from_iterable(rows):
            if not _is_int(x):
                raise InvalidInputError(f"malformed endomorphism: entry {x!r}")
        return make_endo(G, rows)


def make_endo(G: GroupSpec, rows) -> Endo:
    """Validate and reduce a matrix into an :class:`Endo`.

    Entry ``(s, t)`` is reduced mod ``p^e_t``; a reduced entry not divisible
    by ``p^max(0, e_t - e_s)`` does not define a homomorphism and is
    rejected.
    """
    exps = G.coordinate_exponents
    r = G.rank
    if len(rows) != r or any(len(row) != r for row in rows):
        raise InvalidInputError(f"matrix must be {r}x{r}")
    p = G.p
    out = []
    for s in range(r):
        new_row = []
        for t in range(r):
            entry = rows[s][t] % (p ** exps[t])
            need = p ** max(0, exps[t] - exps[s])
            if entry % need != 0:
                raise InvalidInputError(
                    f"entry ({s},{t}) = {entry} not divisible by {need}"
                )
            new_row.append(entry)
        out.append(tuple(new_row))
    return Endo(G, tuple(out))


def zero_endo(G: GroupSpec) -> Endo:
    return Endo(G, tuple((0,) * G.rank for _ in range(G.rank)))


def identity_endo(G: GroupSpec) -> Endo:
    return Endo(
        G,
        tuple(tuple(1 if s == t else 0 for t in range(G.rank)) for s in range(G.rank)),
    )


def scalar_endo(G: GroupSpec, c: int) -> Endo:
    """Multiplication by the integer ``c``."""
    return make_endo(
        G,
        [[c if s == t else 0 for t in range(G.rank)] for s in range(G.rank)],
    )


def apply(a: Element, f: Endo) -> Element:
    """``a.f`` — row vector times matrix, coordinatewise reduction.

    >>> from .groups import make_group
    >>> G = make_group(2, [(1, 1), (2, 1)])
    >>> apply(G.element([1, 0]), make_endo(G, [[0, 2], [0, 2]])).coords
    (0, 2)
    """
    if a.group != f.group:
        raise MismatchedParentError("element and endomorphism of different groups")
    moduli = a.group.coordinate_moduli
    coords = tuple(
        sum(a.coords[s] * f.matrix[s][t] for s in range(a.group.rank)) % moduli[t]
        for t in range(a.group.rank)
    )
    return Element(a.group, coords)


def compose(f: Endo, g: Endo) -> Endo:
    """``f`` then ``g`` (so ``a.compose(f, g) == (a.f).g``): matrix product."""
    if f.group != g.group:
        raise MismatchedParentError("endomorphisms of different groups")
    G = f.group
    r = G.rank
    moduli = G.coordinate_moduli
    rows = [
        [
            sum(f.matrix[s][k] * g.matrix[k][t] for k in range(r)) % moduli[t]
            for t in range(r)
        ]
        for s in range(r)
    ]
    return Endo(G, tuple(tuple(row) for row in rows))


def endo_add(f: Endo, g: Endo) -> Endo:
    if f.group != g.group:
        raise MismatchedParentError("endomorphisms of different groups")
    moduli = f.group.coordinate_moduli
    rows = tuple(
        tuple((x + y) % moduli[t] for t, (x, y) in enumerate(zip(fr, gr)))
        for fr, gr in zip(f.matrix, g.matrix)
    )
    return Endo(f.group, rows)


def image(f: Endo) -> Subgroup:
    """The image subgroup ``G.f`` (a plain subgroup, not fully invariant in general):
    the span of f's rows."""
    moduli, strides = _packing(f.group)
    rows = np.array(f.matrix, dtype=np.int64) @ strides
    return _subgroup(f.group, _span(rows, moduli, strides))


def endo_rank(f: Endo) -> int:
    """Rank of the image subgroup: the number of its cyclic summands.

    >>> from .groups import make_group
    >>> G = make_group(2, [(1, 1), (2, 1)])
    >>> endo_rank(make_endo(G, [[0, 2], [0, 2]]))
    1
    """
    return int(_image_ranks(f.group, [f.matrix])[0])


def _image_ranks(G: GroupSpec, mats) -> np.ndarray:
    """Number of cyclic summands of the image of each matrix in ``mats``
    (shape ``(n, r, r)``, row ``s`` the image of generator ``s``).

    Coordinate ``t`` is scaled by ``p^(E - e_t)`` into ``Z/p^E``, so each
    image is the row span of an ``r x r`` matrix over ``Z/p^E`` and its rank
    is the number of Smith invariants below ``p^E``.  Round by round, every
    matrix takes an entry ``p^v u`` of least valuation; if ``v < E`` it counts
    one summand and sets ``row_k <- u row_k - (a_k / p^v) row_pivot``.  That
    clears the pivot's column (``u`` is a unit, so the other rows' span keeps
    its shape) and, as ``a_pivot / p^v = u``, the pivot's row, which is the
    summand just counted.  The cost depends on ``r`` and ``E``, not on ``|G|``.
    """
    p, E = G.p, G.exponent
    mod = p**E
    # products of two residues stay exact in int64 below this modulus
    dtype = np.int64 if mod < 2**31 else object
    pows = np.array([p**k for k in range(E + 1)], dtype=dtype)
    a = np.array(mats, dtype=dtype)
    n, r = a.shape[0], G.rank
    a = a * pows[E - np.array(G.coordinate_exponents)] % mod
    ranks = np.zeros(n, dtype=np.int64)
    at = np.arange(n)
    for _ in range(r):
        val = np.zeros((n, r, r), dtype=np.int64)
        for k in range(1, E + 1):
            val += a % pows[k] == 0
        i, j = np.divmod(val.reshape(n, r * r).argmin(axis=1), r)
        v = val[at, i, j]
        if (v == E).all():
            break
        ranks += v < E
        pv = pows[v]
        u = a[at, i, j] // pv
        q = a[at, :, j] // pv[:, None]
        a = (u[:, None, None] * a - q[:, :, None] * a[at, i][:, None, :]) % mod
    return ranks


# --------------------------------------------------------------------------
# the ring's shape and its vectorized tables


class EndoRing:
    """The index space of End(G): its indexing and additive basis.

    Endomorphisms are addressed by dense indices whose digit ``k`` is the
    multiple of ``basis[k]``, one of the ``r^2`` single-entry matrices (with
    the forced divisibility) that additively span the ring.  The shape checks
    no budget and holds ``O(r^2)`` numbers: matrices are decoded from indices
    on demand (:meth:`decode`), and the action reads the group's table
    (:func:`pgroups.groups._table`) when it is called.
    """

    def __init__(self, G: GroupSpec):
        self.group = G
        self.size = ring_order(G)
        exps = G.coordinate_exponents
        r = self.rank = G.rank
        self.moduli = _packing(G)[0]

        # positions (s, t) row-major; digit radix min(e_s,e_t),
        # stored entry = digit * p^max(0, e_t - e_s)
        self._endo_radix = np.array(
            [G.p ** min(es, et) for es in exps for et in exps], dtype=np.int64
        )
        self._endo_lift = np.array(
            [G.p ** max(0, et - es) for es in exps for et in exps], dtype=np.int64
        )
        # exact below 2**63, which covers every ring that can be indexed
        self._endo_strides = np.append(np.cumprod(self._endo_radix[:0:-1])[::-1], 1)
        self.basis = np.diag(self._endo_lift).reshape(r * r, r, r)

    # -- endo indexing ------------------------------------------------------

    def pack_endos(self, mats: np.ndarray) -> np.ndarray:
        digits = mats.reshape(mats.shape[0], -1) // self._endo_lift[None, :]
        return digits @ self._endo_strides

    def decode(self, endo_indices) -> np.ndarray:
        """Matrices (shape ``(..., r, r)``) of the endomorphisms with these indices."""
        idx = np.asarray(endo_indices, dtype=np.int64)
        digits = (idx[..., None] // self._endo_strides) % self._endo_radix
        return (digits * self._endo_lift).reshape(idx.shape + (self.rank, self.rank))

    def endo_of_index(self, idx: int) -> Endo:
        return Endo(self.group, tuple(map(tuple, self.decode(idx).tolist())))

    # -- the action ---------------------------------------------------------

    def _act_block(self, mats: np.ndarray) -> np.ndarray:
        """Packed images of every element under each matrix in ``mats``, one
        coordinate of the images at a time, in place in tables of matrices
        by elements."""
        table = _table(self.group)
        coords = table.coords
        out = np.zeros((len(mats), len(coords)), dtype=np.int64)
        image = np.empty_like(out)
        for t in range(self.rank):
            np.multiply(mats[:, 0, t, None], coords[:, 0], out=image)
            for s in range(1, self.rank):
                image += mats[:, s, t, None] * coords[:, s]
            image %= table.moduli[t]
            image *= table.strides[t]
            out += image
        return out

    @property
    def action(self) -> np.ndarray:
        """Full (|E|, |G|) action table, refused above ``MAX_ACTION_ENTRIES``."""
        if self.size * self.group.order > MAX_ACTION_ENTRIES:
            raise RingTooLargeError("full action table over cap; use chunked access")
        return self._act_block(self.decode(np.arange(self.size)))

    def action_chunks(self):
        """Yield ``(start, packed_block)`` covering all endomorphisms, each
        block sized so that endos x elements x r int64 entries fit in
        ``_CHUNK_BYTES``; its tables, at most three of endos x elements, fit
        too when r >= 3."""
        step = max(1, _CHUNK_BYTES // (8 * self.group.order * self.rank))
        for start in range(0, self.size, step):
            stop = min(start + step, self.size)
            yield start, self._act_block(self.decode(np.arange(start, stop)))

    def action_row(self, endo_idx: int) -> np.ndarray:
        return self._act_block(self.decode([endo_idx]))[0]

    def action_rows(self, endo_indices) -> np.ndarray:
        """Packed image table for a selection of endomorphisms.

        Callers with very large selections should slice them; each row costs
        ``|G|`` int64 entries.
        """
        return self._act_block(self.decode(endo_indices))

    # -- index sets ---------------------------------------------------------

    def endo_span(self, seed: np.ndarray) -> np.ndarray:
        """Smallest additively closed endo index set containing ``seed`` (and 0)."""
        return _span(seed, self._endo_radix, self._endo_strides)

    def basis_multiples(self) -> np.ndarray:
        """``p^v basis[k]`` reduced, at ``[v, k]`` for ``v <= exp(G)``."""
        pows = self.group.p ** np.arange(self.group.exponent + 1)
        return pows[:, None, None, None] * self.basis % self.moduli

    def basis_grid(self, steps) -> np.ndarray:
        """Sorted indices of the additive span of the ``steps_k basis[k]``."""
        return _grid(steps, self._endo_radix, self._endo_strides)

    def is_fully_invariant(self, H: Subgroup) -> bool:
        """``H.b`` lies in ``H`` for every basis matrix ``b``; as ``H`` is a
        subgroup, that covers every sum of basis matrices, i.e. all of End(G)."""
        table = _table(self.group)
        images = table.coords[H.indices] @ self.basis % table.moduli
        return bool(_members(images @ table.strides, H.indices).all())


@lru_cache(maxsize=32)
def _cached_ring(G: GroupSpec) -> EndoRing:
    """The one shape per group, at any ring size."""
    return EndoRing(G)


def get_ring(G: GroupSpec, max_ring: int | None = None) -> EndoRing:
    """The shared ring of ``G``, for work that walks End(G): refused when
    |End(G)| exceeds ``max_ring`` (default 2**20), and at any cap from 2**63
    on, where its int64 indices end."""
    cap = DEFAULT_MAX_RING_ORDER if max_ring is None else max_ring
    size = ring_order(G)
    if size > cap:
        raise RingTooLargeError(f"|End(G)| = {size} exceeds cap {cap}")
    if size >= 2**63:
        raise RingTooLargeError(f"|End(G)| = {size} is not below 2**63, the int64 index limit")
    return _cached_ring(G)


def enumerate_endos(G: GroupSpec, max_ring: int | None = None) -> list[Endo]:
    """Every endomorphism, in the fixed enumeration order.

    >>> from .groups import make_group
    >>> len(enumerate_endos(make_group(2, [(1, 1), (2, 1)])))
    32
    """
    ring = get_ring(G, max_ring=max_ring)
    mats = ring.decode(np.arange(ring.size)).tolist()
    return [Endo(G, tuple(map(tuple, m))) for m in mats]


# --------------------------------------------------------------------------
# ideals


@lru_cache(maxsize=64)
def _blocks(G: GroupSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(e, m, λ)``, read-only: the blocks' exponents and multiplicities, and
    ``λ[s, t] = max(0, e_t - e_s)``, the least valuation of an entry from
    block ``s`` to block ``t``."""
    exps, mults = np.array(G.components).T
    out = exps, mults, np.maximum(0, exps[None, :] - exps[:, None])
    for a in out:
        a.setflags(write=False)
    return out


def _log_size(G: GroupSpec, w) -> np.ndarray:
    """``log_p`` of the size of the ideals with shift matrices ``w``, over any
    leading axes: an entry from block ``s`` to block ``t`` takes
    ``p^(e_t - w_st)`` values, on each of ``m_s m_t`` coordinate pairs."""
    exps, mults, _ = _blocks(G)
    return (np.outer(mults, mults) * (exps - np.asarray(w))).sum(axis=(-2, -1))


def _entry_shifts(G: GroupSpec, mats) -> np.ndarray:
    """``[s, t]``: the least valuation of an entry from block ``s`` to block
    ``t`` over the ``r x r`` matrices ``mats`` (``e_t`` if all are zero)."""
    a = np.asarray(mats, dtype=np.int64).reshape(-1, G.rank, G.rank)
    least = _valuations(G, np.gcd.reduce(a, axis=0))
    starts = np.cumsum(_blocks(G)[1]) - _blocks(G)[1]
    return np.minimum.reduceat(np.minimum.reduceat(least, starts, axis=0), starts, axis=1)


def _digit_steps(G: GroupSpec, w) -> np.ndarray:
    """The step ``p^(w_st - λ_st)`` of each basis digit of the ideals with
    shift matrices ``w`` (``(..., k, k)`` to ``(..., r^2)``): the ideal is the
    grid of these steps (:meth:`EndoRing.basis_grid`).  Read only for member
    indices, refutation witnesses and the oracles."""
    _, mults, lam = _blocks(G)
    d = np.repeat(np.repeat(np.asarray(w) - lam, mults, axis=-2), mults, axis=-1)
    return G.p ** d.reshape(d.shape[:-2] + (-1,))


class Ideal:
    """A two-sided ideal of End(G), held in its shift form: ``shifts[s, t]``
    (read-only int64, ``k x k``) is the least valuation of an entry from block
    ``s`` to block ``t`` over its members (``e_t`` for none), and the ideal is
    every endomorphism whose entries have at least those valuations.  Equality
    and hashing use the type, the group and the shifts; ``generators`` (as
    :class:`Endo`) takes no part.  ``indices``, the sorted members (read-only
    int64), are built on first use.  The census's ``Ideal(group, indices)``
    reads the shifts off a member set, which ``dagger-well-defined`` checks.

    >>> from .groups import make_group
    >>> G = make_group(2, [(1, 1), (2, 1)])
    >>> I = principal_ideal(G, make_endo(G, [[0, 2], [0, 0]]))
    >>> I.shifts.tolist(), I.size
    ([[1, 1], [1, 1]], 4)
    >>> Ideal(G, I.indices) == I
    True
    """

    __slots__ = ("group", "shifts", "generators", "_key", "_indices")

    def __init__(self, group: GroupSpec, indices):
        ring = _cached_ring(group)
        held = np.array(indices).reshape(-1)
        if held.dtype.kind not in "iu" or not ((0 <= held) & (held < ring.size)).all():
            raise InvalidInputError(f"ideal members must be integers in [0, {ring.size})")
        held = held.astype(np.int64)
        held.setflags(write=False)
        # the gcd of each entry over the members, reduced block by block
        gcd = np.zeros((group.rank, group.rank), dtype=np.int64)
        for start in range(0, held.size, _DECODE_ROWS):
            block = ring.decode(held[start : start + _DECODE_ROWS])
            gcd = np.gcd(gcd, np.gcd.reduce(block, axis=0))
        self._hold(group, _entry_shifts(group, gcd))
        self._indices = held

    def _hold(self, group: GroupSpec, shifts, generators=()) -> "Ideal":
        self.group = group
        self._key = np.asarray(shifts, dtype=np.int64).tobytes()
        k = len(group.components)
        self.shifts = np.frombuffer(self._key, dtype=np.int64).reshape(k, k)
        self.generators = tuple(generators)
        self._indices = None
        return self

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._key == other._key
            and self.group == other.group
        )

    def __hash__(self) -> int:
        return hash((type(self), self.group, self._key))

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            steps = _digit_steps(self.group, self.shifts)
            self._indices = _cached_ring(self.group).basis_grid(steps)
            self._indices.setflags(write=False)
        return self._indices

    @property
    def size(self) -> int:
        return self.group.p ** int(_log_size(self.group, self.shifts))

    def endos(self) -> list[Endo]:
        return list(map(_cached_ring(self.group).endo_of_index, self.indices))

    def __contains__(self, f) -> bool:
        if not (isinstance(f, Endo) and f.group == self.group):
            return False
        return bool((_entry_shifts(self.group, f.matrix) >= self.shifts).all())

    def __repr__(self) -> str:
        return f"Ideal(size={self.size} of End({self.group.describe()}))"

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "generators": [f.to_json() for f in self.generators],
        }


def _ideal(G: GroupSpec, shifts, generators: tuple[Endo, ...] = ()) -> Ideal:
    """The ideal with this block shift matrix."""
    return Ideal.__new__(Ideal)._hold(G, shifts, generators)


def _sandwich_products(ring: EndoRing, mats: np.ndarray) -> np.ndarray:
    """Packed indices of ``A f B`` over the additive basis pairs ``(A, B)``,
    one row of ``r^4`` per matrix ``f`` of ``mats`` (shape ``(n, r, r)``).

    The two-sided ideal generated by ``f`` is the additive span of its row
    (bilinearity reduces arbitrary ``u f v`` to basis pairs).
    """
    basis, r = ring.basis, ring.rank
    prods = np.matmul(np.matmul(basis, mats[:, None])[:, :, None], basis) % ring.moduli
    return ring.pack_endos(prods.reshape(-1, r, r)).reshape(len(mats), -1)


def ideal_generated(G: GroupSpec, gens) -> Ideal:
    """Two-sided ideal generated by the given endomorphisms, with no ring: the
    least closure ``w_st = min(e_t, min_uv λ_su + ν_uv + λ_vt)`` of their entry
    valuations ``ν`` (:func:`_entry_shifts`) under the products with the basis
    on the left and on the right."""
    gens = tuple(gens)
    if any(f.group != G for f in gens):
        raise MismatchedParentError("generator endomorphism of a different group")
    exps, _, lam = _blocks(G)
    left = (lam[:, :, None] + _entry_shifts(G, [f.matrix for f in gens])).min(axis=1)
    return _ideal(G, np.minimum((left[:, :, None] + lam).min(axis=1), exps), gens)


def principal_ideal(G: GroupSpec, f: Endo) -> Ideal:
    return ideal_generated(G, [f])


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    """Elementwise sum ``I + J`` (already an ideal), generated by the
    generators of both: the entrywise min of the shifts."""
    _same_group(I, J)
    return _ideal(I.group, np.minimum(I.shifts, J.shifts), I.generators + J.generators)


def ideal_meet(I: Ideal, J: Ideal) -> Ideal:
    """``I`` meet ``J``: the entrywise max of the shifts."""
    _same_group(I, J)
    return _ideal(I.group, np.maximum(I.shifts, J.shifts))


def ideal_leq(I: Ideal, J: Ideal) -> bool:
    """``I <= J``: each shift of ``I`` is at least that of ``J``."""
    _same_group(I, J)
    return bool((I.shifts >= J.shifts).all())


def ideal_shifts(G: GroupSpec) -> np.ndarray:
    """The block shift matrices of the two-sided ideals of End(G), shape
    ``(ideals, k, k)``, in lexicographic order.

    ``w[s, t]`` is the least valuation of an entry from block ``s`` to block
    ``t`` over the ideal's members; the ideal is every endomorphism whose
    entries have at least those valuations.  Row ``s`` is the block shifts of
    the fully invariant subgroup ``H_s = I G[p^e_s]``, and the matrices are
    the chains ``H_1 <= ... <= H_k`` of lattice nodes with ``H_s <= G[p^e_s]``
    and ``p^(e_s - e_(s-1)) H_s <= H_(s-1)``, extended one block at a time
    over the sorted nodes.  No ring is built: the cost follows the number of
    ideals, which ``|End(G)|`` does not bound, so callers keep their own
    budget.

    >>> from .groups import make_group
    >>> ideal_shifts(make_group(2, [(1, 1), (2, 1)])).tolist()[:2]
    [[[0, 1], [0, 0]], [[0, 1], [0, 1]]]
    """
    nodes = np.array(sorted(enumerate_fi_subgroups(G).shifts), dtype=np.int64)
    exps, _, lam = _blocks(G)
    socle, inside = _within(nodes, lam), _within(nodes, nodes)
    chains = np.flatnonzero(socle[:, 0])[:, None]
    for s in range(1, len(exps)):
        # [i, j]: node j may follow node i as H_s after H_(s-1)
        step = inside & _within(nodes + (exps[s] - exps[s - 1]), nodes).T & socle[:, s]
        prev, nxt = np.nonzero(step[chains[:, -1]])
        chains = np.hstack((chains[prev], nxt[:, None]))
    return nodes[chains]


def _pullback(G: GroupSpec, alpha) -> np.ndarray:
    """``w_st = max(λ_st, alpha_t)``, ``(..., k)`` to ``(..., k, k)``: the
    pullback of the block sum with shifts ``alpha`` holds the ``f`` whose
    entries into block ``t`` have valuation at least ``alpha_t``."""
    return np.maximum(_blocks(G)[2], np.asarray(alpha)[..., None, :])


def _pushforward(w) -> np.ndarray:
    """``alpha_t = min_s w_st``, ``(..., k, k)`` to ``(..., k)``: the images of
    an ideal's members reach, in block ``t``, its least entry valuation."""
    return np.asarray(w).min(axis=-2)


@lru_cache(maxsize=32)
def _ideal_images(G: GroupSpec) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
    """``(count, ((alpha, n), ...))``: the number of two-sided ideals, and for
    each image ``alpha`` (block shifts, ascending) the number ``n`` of ideals
    whose pushforward it is.  Kept per group, unlike :func:`ideal_shifts`,
    whose listing grows with the ideal count: this summary has one entry per
    fully invariant subgroup.  Callers check their ideal budget first."""
    W = ideal_shifts(G)
    images, counts = np.unique(_pushforward(W), axis=0, return_counts=True)
    return len(W), tuple(zip(map(tuple, images.tolist()), counts.tolist()))


def pullback_size(G: GroupSpec, alpha) -> int:
    """The size of the pullback of the block sum with shifts ``alpha``
    (:func:`dagger_subgroup`), read off its shift matrix (:func:`_pullback`)."""
    return G.p ** int(_log_size(G, _pullback(G, alpha)))


def _check_ideal_budget(G: GroupSpec, max_ideals: int | None) -> None:
    cap = DEFAULT_MAX_IDEAL_RING_ORDER if max_ideals is None else max_ideals
    if ring_order(G) > cap:
        raise RingTooLargeError(
            f"|End(G)| = {ring_order(G)} exceeds ideal-enumeration cap {cap}"
        )


def enumerate_ideals(G: GroupSpec, max_ideals: int | None = None) -> list[Ideal]:
    """All two-sided ideals, read off their shift matrices
    (:func:`ideal_shifts`), sorted by (size, indices).  Two grids of one size
    compare as the least member of either outside the other, which sits in
    the last entry where their shifts differ, so the order is (size, shifts
    from the last entry).

    The ideal budget (default cap 2**12) is the census's
    (:func:`_ideal_census`), the oracle that ``dagger-well-defined`` checks
    this listing against."""
    _check_ideal_budget(G, max_ideals)
    return [_ideal(G, w) for w in _listed_shifts(G)]


def _listed_shifts(G: GroupSpec) -> np.ndarray:
    """:func:`ideal_shifts` in the order of :func:`enumerate_ideals`; the
    caller checks the ideal budget."""
    W = ideal_shifts(G)
    return W[np.lexsort(np.vstack((W.reshape(len(W), -1).T, _log_size(G, W))))]


def _ideal_census(G: GroupSpec, max_ideals: int | None = None) -> list[Ideal]:
    """The ideal lattice by exhaustion, the oracle of :func:`enumerate_ideals`:
    the principal ideals of the distinct multiples ``p^v b`` of the basis
    matrices, then every sum of them (:func:`_sum_closure`), sorted by (size,
    indices).
    They reach every ideal, as ``e_ss f e_tt`` lies in the ideal of ``f`` and
    is some ``c b``, which generates the ideal of ``p^(v_p(c)) b``.  The
    census spans packed sets as large as End(G), hence a budget of its own
    (default cap 2**12)."""
    _check_ideal_budget(G, max_ideals)
    ring = _cached_ring(G)
    mults = ring.basis_multiples().reshape(-1, G.rank, G.rank)
    mults = mults[np.unique(ring.pack_endos(mults), return_index=True)[1]]
    # multiples with the same products, say within one block, span one ideal
    products = {np.unique(s).tobytes(): s for s in _sandwich_products(ring, mults)}
    principal = map(ring.endo_span, products.values())
    ideals = [Ideal(G, S) for S in _sum_closure(ring, principal)]
    # big-endian bytes of nonnegative indices compare as their lists do
    ideals.sort(key=lambda I: (I.size, I.indices.astype(">i8").tobytes()))
    return ideals


def _sum_closure(ring: EndoRing, spans) -> list[np.ndarray]:
    """Every sum of a nonempty set of the additive subgroups ``spans`` of
    End(G) (sorted index arrays), in order of discovery: the closure over
    these atoms (:func:`_join_closure`), joining each sum found only with the
    spans it neither contains nor lies in, compared by member bitmasks.  A
    sum spans the smaller set from the larger one."""
    radix, strides = ring._endo_radix, ring._endo_strides

    def join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        small, large = sorted((a, b), key=len)
        return _span(small, radix, strides, span=large)

    return _join_closure(spans, join, _bits)


def special_ideals(G: GroupSpec, n: int) -> tuple[Ideal, Ideal]:
    """The pair ``(p^n E, E[p^n])``: scaled ring and p^n-torsion ideal, with
    the shift matrices ``min(λ_st + n, e_t)`` and ``max(λ_st, e_t - n)``.

    >>> from .groups import make_group
    >>> power, torsion = special_ideals(make_group(2, [(1, 1), (2, 1)]), 1)
    >>> power.shifts.tolist(), torsion.shifts.tolist()
    ([[1, 2], [1, 1]], [[0, 1], [0, 1]])
    """
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    exps, _, lam = _blocks(G)
    n = min(n, G.exponent)
    return _ideal(G, np.minimum(lam + n, exps)), _ideal(G, np.maximum(lam, exps - n))


# --------------------------------------------------------------------------
# the two dagger maps


def dagger_subgroup(G: GroupSpec, H: Subgroup) -> Ideal:
    """The ideal of endomorphisms mapping all of G into ``H``: those whose
    every row lies in ``H``.

    ``H`` must be fully invariant, otherwise the result would not be closed
    under right multiplication: the block sum of its block shifts ``alpha``
    in normal form (:func:`pgroups.lattice.canonical_fi_form`).  Then the
    ideal is ``w_st = max(λ_st, alpha_t)`` (:func:`_pullback`).

    >>> from .groups import fundamental_subgroup, make_group
    >>> G = make_group(2, [(1, 1), (2, 1)])
    >>> dagger_subgroup(G, fundamental_subgroup(G, 1, 2)).shifts.tolist()  # pG
    [[1, 1], [1, 1]]
    """
    if H.group != G:
        raise MismatchedParentError("subgroup of a different group")
    try:
        alpha = canonical_fi_form(G, H)
    except NotFullyInvariantError:
        msg = f"subgroup of order {H.order} is not fully invariant"
        raise NotFullyInvariantError(msg) from None
    return _ideal(G, _pullback(G, alpha))


def _image_shifts(G: GroupSpec, I: Ideal) -> tuple[int, ...]:
    """The block shifts of the pushforward of ``I`` (:func:`_pushforward`)."""
    if I.group != G:
        raise MismatchedParentError("ideal of a different group")
    return tuple(_pushforward(I.shifts).tolist())


def dagger_ideal(G: GroupSpec, I: Ideal) -> Subgroup:
    """The subgroup generated by the images of the ideal's members: the
    block sum with shifts ``alpha_t = min_s w_st`` (:func:`_pushforward`).

    >>> from .groups import make_group
    >>> G = make_group(2, [(1, 1), (2, 1)])
    >>> dagger_ideal(G, special_ideals(G, 1)[1]).block_shifts  # G[p]
    (0, 1)
    """
    return block_subgroup(G, _image_shifts(G, I))


def find_dagger_collision(G: GroupSpec, ideals=None):
    """Two distinct ideals with the same image subgroup, or None.

    Construction first (needs components of two different exponents): with
    ``a`` of minimal and ``b`` of maximal exponent ``e``, the ideal generated
    by (a -> p^(e-1) b, b -> p^(e-1) b) strictly contains the one generated
    by (b -> p^(e-1) b), yet both push forward to the top power subgroup.
    Falls back to searching ``ideals``, by default every ideal when the ring
    is within the default ideal-enumeration cap.
    """
    if len(G.components) > 1:
        # the first coordinate has the minimal exponent, the last the maximal
        rows_g = [[0] * G.rank for _ in range(G.rank)]
        rows_g[-1][-1] = G.p ** (G.exponent - 1)
        rows_f = [row[:] for row in rows_g]
        rows_f[0][-1] = rows_g[-1][-1]
        I = ideal_generated(G, [make_endo(G, rows_f)])
        J = ideal_generated(G, [make_endo(G, rows_g)])
        if I != J and _image_shifts(G, I) == _image_shifts(G, J):
            return I, J
    if ideals is None and ring_order(G) <= DEFAULT_MAX_IDEAL_RING_ORDER:
        ideals = enumerate_ideals(G)
    by_image: dict[tuple[int, ...], Ideal] = {}
    for I in ideals or ():
        img = _image_shifts(G, I)
        if img in by_image:
            return by_image[img], I
        by_image[img] = I
    return None
