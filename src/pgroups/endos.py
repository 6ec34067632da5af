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

Both maps, full invariance and single-element orbits are computed from
generators, never by scanning the ring against the group.  ``G.f`` is
generated by the ``r`` rows ``e_s.f``, and End(G) is additively spanned by the
``r^2`` single-entry matrices of ``EndoRing.basis``, so:

* the pullback of ``H`` is ``{f : every row of f lies in H}``;
* ``H`` is fully invariant iff ``H.b`` lies in ``H`` for each basis matrix ``b``;
* the pushforward of ``I`` is the span of the rows of I's members;
* the orbit ``{a.f : f}`` of ``a`` is the span of the ``a.b``.

Spans are closed one generator at a time (:func:`_span`).  The claims that
are exhaustive by statement, ``endo-height-exponent`` and
``endo-indicator-monotone``, still scan every (endomorphism, element) pair
through :meth:`EndoRing.action_chunks`; ``rank-subadditivity`` reads
sampled action rows.

Both directions, their closure behavior, and several identities about the
power/socle ideals are checked mechanically by the ``verify_*`` helpers.

Each group has one cached :class:`EndoRing`, a shape (digit radix, strides,
the r^2 basis matrices) that decodes members from their indices on demand.
Orbits, full invariance and the ideal helpers need only the shape and run at
any ring size; work that walks End(G) goes through :func:`get_ring`, which
applies the ring budget.

An :class:`Ideal` is a packed set like a subgroup: the sorted indices of its
members, with the ring's digit radix.  Sums, meets and containment of ideals
are the shared packed-set operations of :mod:`pgroups.groups`, and
:func:`enumerate_ideals` closes the principal ideals under sums with the same
join-closure as the fully invariant lattice.

Enumeration order of the ring is fixed (matrix positions row-major, entries
ascending), so every index used here is reproducible run to run.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvalidInputError,
    MismatchedParentError,
    NotFullyInvariantError,
    RingTooLargeError,
)
from .groups import Element, GroupSpec, Subgroup, fundamental_subgroup
from .groups import subgroup_leq, subgroup_meet, subgroup_sum
from .groups import _PackedSet, _grid, _join, _join_closure, _leq, _meet, _members
from .groups import _span, _subgroup, _table
from .reports import ClaimReport

#: Largest endomorphism ring that will be enumerated.
DEFAULT_MAX_RING_ORDER = 2**20

#: Largest ring for which full ideal enumeration is attempted.
DEFAULT_MAX_IDEAL_RING_ORDER = 2**12

#: Bytes of the widest temporary in one block of :meth:`EndoRing.action_chunks`.
_CHUNK_BYTES = 2**24


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
        try:
            rows = [list(map(int, r)) for r in data["matrix"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed endomorphism: {exc}") from exc
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
    t = _table(f.group)
    rows = np.array(f.matrix, dtype=np.int64) @ t.strides
    return _subgroup(f.group, _span(rows, t.moduli, t.strides))


def endo_rank(f: Endo) -> int:
    """Rank of the image subgroup: p-log of the size of its socle."""
    G = f.group
    # the socle is where p.a vanishes, i.e. where height(p.a) is INF
    socle = int((_table(G).heights[1, image(f).indices] == G.exponent).sum())
    rank = 0
    while socle > 1:
        socle //= G.p
        rank += 1
    return rank


# --------------------------------------------------------------------------
# the ring's shape and its vectorized tables


class EndoRing:
    """The shape of End(G): indexing, the additive basis and lookup tables.

    Elements are addressed by their packed indices (see :mod:`pgroups.groups`),
    endomorphisms by dense indices in a fixed enumeration order.  ``basis``
    holds the ``r^2`` single-entry matrices (with the forced divisibility)
    that additively span the ring.  The shape checks no budget; member
    matrices are decoded from indices on demand (:meth:`decode`), and the
    whole ``endo_matrices`` table is built on first use by work that walks
    End(G), which gets the ring through :func:`get_ring`.
    """

    def __init__(self, G: GroupSpec):
        self.group = G
        self.size = ring_order(G)
        exps = G.coordinate_exponents
        r = self.rank = G.rank
        table = _table(G)
        self.moduli, self._elem_strides = table.moduli, table.strides
        self.elem_coords = table.coords

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

    @cached_property
    def endo_matrices(self) -> np.ndarray:
        """Every member as an ``(|End|, r, r)`` table, in enumeration order."""
        return self.decode(np.arange(self.size, dtype=np.int64))

    # -- element indexing ---------------------------------------------------

    def element_index(self, a: Element) -> int:
        return int(np.dot(np.array(a.coords, dtype=np.int64), self._elem_strides))

    def element_of_index(self, idx: int) -> Element:
        return Element(self.group, tuple(self.elem_coords[idx].tolist()))

    def add_element_indices(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized index-space addition (broadcasting allowed)."""
        ca = (a[..., None] // self._elem_strides) % self.moduli
        cb = (b[..., None] // self._elem_strides) % self.moduli
        return ((ca + cb) % self.moduli) @ self._elem_strides

    # -- endo indexing ------------------------------------------------------

    def endo_index(self, f: Endo) -> int:
        flat = np.array(f.matrix, dtype=np.int64).reshape(-1)
        digits = flat // self._endo_lift
        return int(np.dot(digits, self._endo_strides))

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

    def add_endo_indices(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        da = (a[..., None] // self._endo_strides) % self._endo_radix
        db = (b[..., None] // self._endo_strides) % self._endo_radix
        return ((da + db) % self._endo_radix) @ self._endo_strides

    # -- the action ---------------------------------------------------------

    def _act_block(self, mats: np.ndarray) -> np.ndarray:
        """Packed images of every element under each matrix in ``mats``."""
        prod = np.einsum("xs,cst->cxt", self.elem_coords, mats) % self.moduli
        return prod @ self._elem_strides

    @property
    def action(self) -> np.ndarray:
        """Full (|E|, |G|) action table, refused above 2**26 entries."""
        if self.size * self.group.order > 2**26:
            raise RingTooLargeError("full action table over cap; use chunked access")
        return self._act_block(self.endo_matrices)

    def action_chunks(self):
        """Yield ``(start, packed_block)`` covering all endomorphisms, each
        block's widest temporary (endos x elements x r) within ``_CHUNK_BYTES``."""
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

    def endo_rows(self, endo_indices=None) -> np.ndarray:
        """Packed rows ``e_s.f`` (shape ``(k, r)``) of the selected
        endomorphisms, or of the whole ring."""
        mats = self.endo_matrices if endo_indices is None else self.decode(endo_indices)
        return mats @ self._elem_strides

    def orbit_steps(self, elem_indices) -> np.ndarray:
        """Per element ``a``, the step of each coordinate ``t`` of its orbit:
        the gcd of ``p^e_t`` and the ``(a.b)_t`` over the additive basis,
        which are the ``a_s p^max(0, e_t - e_s)``."""
        lift = self._endo_lift.reshape(self.rank, self.rank)
        coords = self.elem_coords[elem_indices]
        steps = np.broadcast_to(self.moduli, coords.shape)
        for s in range(self.rank):
            steps = np.gcd(steps, coords[..., s, None] * lift[s])
        return steps

    def orbit_indices(self, elem_idx: int) -> np.ndarray:
        """Sorted unique packed indices of ``{a.f : f}`` for one element.

        This is the span of the ``a.b`` over the additive basis, hence the
        smallest fully invariant subgroup containing ``a``.  Each ``a.b`` lies
        in one coordinate, so the span splits by coordinate: coordinate ``t``
        runs over the multiples of its step (:meth:`orbit_steps`).
        """
        return _grid(self.group, self.orbit_steps(elem_idx))

    # -- subgroup helpers ---------------------------------------------------

    def element_span(self, seed: np.ndarray) -> np.ndarray:
        """Smallest subgroup (as sorted packed indices) containing ``seed``."""
        return _span(seed, self.moduli, self._elem_strides)

    def endo_span(self, seed: np.ndarray) -> np.ndarray:
        """Smallest additively closed endo index set containing ``seed`` (and 0)."""
        return _span(seed, self._endo_radix, self._endo_strides)

    def is_fully_invariant(self, H: Subgroup) -> bool:
        """``H.b`` lies in ``H`` for every basis matrix ``b``; as ``H`` is a
        subgroup, that covers every sum of basis matrices, i.e. all of End(G)."""
        images = self.elem_coords[H.indices] @ self.basis % self.moduli
        return bool(_members(images @ self._elem_strides, H.indices).all())


@lru_cache(maxsize=32)
def _cached_ring(G: GroupSpec) -> EndoRing:
    """The one shape per group, at any ring size."""
    return EndoRing(G)


def get_ring(G: GroupSpec, max_ring: int | None = None) -> EndoRing:
    """The shared ring of ``G``, for work that walks End(G): refused when
    |End(G)| exceeds ``max_ring`` (default 2**20)."""
    cap = DEFAULT_MAX_RING_ORDER if max_ring is None else max_ring
    size = ring_order(G)
    if size > cap:
        raise RingTooLargeError(f"|End(G)| = {size} exceeds cap {cap}")
    return _cached_ring(G)


def enumerate_endos(G: GroupSpec, max_ring: int | None = None) -> list[Endo]:
    """Every endomorphism, in the fixed enumeration order.

    >>> from .groups import make_group
    >>> len(enumerate_endos(make_group(2, [(1, 1), (2, 1)])))
    32
    """
    mats = get_ring(G, max_ring=max_ring).endo_matrices.tolist()
    return [Endo(G, tuple(map(tuple, m))) for m in mats]


# --------------------------------------------------------------------------
# ideals


class Ideal(_PackedSet):
    """A two-sided ideal, held as the sorted indices of its members in the
    fixed enumeration order of End(G), packed with the ring's digit radix and
    strides.

    ``indices`` is a read-only sorted int64 array, as for a :class:`Subgroup`.
    ``generators`` records a generating set (also as indices); it takes no
    part in equality.
    """

    __slots__ = ("generators",)

    def __init__(self, group: GroupSpec, indices, generators: tuple[int, ...] = ()):
        self._pack(group, indices)
        self.generators = tuple(generators)

    def _digits(self) -> tuple[np.ndarray, np.ndarray]:
        ring = _cached_ring(self.group)
        return ring._endo_radix, ring._endo_strides

    def _with(self, indices: np.ndarray) -> "Ideal":
        return Ideal(self.group, indices)

    @property
    def size(self) -> int:
        return self.indices.size

    def endos(self) -> list[Endo]:
        return list(map(_cached_ring(self.group).endo_of_index, self.indices))

    def generator_endos(self) -> list[Endo]:
        return list(map(_cached_ring(self.group).endo_of_index, self.generators))

    def __contains__(self, f: Endo) -> bool:
        i = _cached_ring(self.group).endo_index(f)
        return bool(_members(np.array([i]), self.indices)[0])

    def __repr__(self) -> str:
        return f"Ideal(size={self.size} of End({self.group.describe()}))"

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "generators": [f.to_json() for f in self.generator_endos()],
        }


def _sandwich_products(ring: EndoRing, mat: np.ndarray) -> np.ndarray:
    """Packed indices of ``A f B`` over the additive basis pairs ``(A, B)``.

    The two-sided ideal generated by ``f`` is the additive span of these
    (bilinearity reduces arbitrary ``u f v`` to basis pairs).
    """
    basis = ring.basis
    left = np.einsum("ast,tu->asu", basis, mat)
    prods = np.einsum("asu,buv->absv", left, basis).reshape(-1, ring.rank, ring.rank)
    prods %= ring.moduli[None, None, :]
    return np.unique(ring.pack_endos(prods))


def ideal_generated(G: GroupSpec, gens, max_ring: int | None = None) -> Ideal:
    """Two-sided ideal generated by the given endomorphisms."""
    ring = get_ring(G, max_ring=max_ring)
    gen_idx = []
    seeds = [np.array([0], dtype=np.int64)]
    for f in gens:
        if f.group != G:
            raise MismatchedParentError("generator endomorphism of a different group")
        gen_idx.append(ring.endo_index(f))
        mat = np.array(f.matrix, dtype=np.int64)
        seeds.append(_sandwich_products(ring, mat))
    closure = ring.endo_span(np.concatenate(seeds))
    return Ideal(G, closure, generators=tuple(gen_idx))


def principal_ideal(G: GroupSpec, f: Endo, max_ring: int | None = None) -> Ideal:
    return ideal_generated(G, [f], max_ring=max_ring)


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    """Elementwise sum ``I + J``, generated by the generators of both: the
    span of ``I`` and ``J`` (already an ideal, no multiplicative closure)."""
    return Ideal(I.group, _join(I, J).indices, I.generators + J.generators)


def ideal_meet(I: Ideal, J: Ideal) -> Ideal:
    return _meet(I, J)


def ideal_leq(I: Ideal, J: Ideal) -> bool:
    return _leq(I, J)


def enumerate_ideals(G: GroupSpec, max_ring: int | None = None) -> list[Ideal]:
    """All two-sided ideals: principal ideals, then the pairwise-sum fixpoint,
    sorted by (size, indices).

    Budgeted separately from plain ring enumeration (default cap 2**12)
    because the principal-ideal sweep touches every ring element.
    """
    cap = DEFAULT_MAX_IDEAL_RING_ORDER if max_ring is None else max_ring
    if ring_order(G) > cap:
        raise RingTooLargeError(
            f"|End(G)| = {ring_order(G)} exceeds ideal-enumeration cap {cap}"
        )
    ring = _cached_ring(G)
    products = (_sandwich_products(ring, mat) for mat in ring.endo_matrices)
    seeds = {prods.tobytes(): prods for prods in products}
    ideals = _join_closure((Ideal(G, ring.endo_span(s)) for s in seeds.values()), _join)
    ideals.sort(key=lambda I: (I.size, I.indices.tolist()))
    return ideals


def special_ideals(G: GroupSpec, n: int) -> tuple[Ideal, Ideal]:
    """The pair ``(p^n E, E[p^n])``: scaled ring and p^n-torsion ideal."""
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    ring = get_ring(G)
    p = G.p
    scaled = (ring.endo_matrices * p**n) % ring.moduli[None, None, :]
    power = Ideal(G, np.unique(ring.pack_endos(scaled)))
    killed = (scaled == 0).all(axis=(1, 2))
    torsion = Ideal(G, np.flatnonzero(killed))
    return power, torsion


# --------------------------------------------------------------------------
# the two dagger maps


def dagger_subgroup(G: GroupSpec, H: Subgroup) -> Ideal:
    """The ideal of endomorphisms mapping all of G into ``H``: those whose
    every row lies in ``H``.

    ``H`` must be fully invariant, otherwise the result would not be closed
    under right multiplication.
    """
    if H.group != G:
        raise MismatchedParentError("subgroup of a different group")
    ring = get_ring(G)
    if not ring.is_fully_invariant(H):
        raise NotFullyInvariantError(
            f"subgroup of order {H.order} is not fully invariant"
        )
    inside = _members(ring.endo_rows(), H.indices).all(axis=1)
    return Ideal(G, np.flatnonzero(inside))


def dagger_ideal(G: GroupSpec, I: Ideal) -> Subgroup:
    """The subgroup generated by the images of the ideal's members: the span
    of their rows."""
    if I.group != G:
        raise MismatchedParentError("ideal of a different group")
    ring = _cached_ring(G)
    rows = ring.endo_rows(I.indices)
    return _subgroup(G, ring.element_span(rows.reshape(-1)))


@dataclass(frozen=True)
class DaggerReport:
    """Closure verdict for one subgroup or ideal under the double dagger."""

    subject: str
    status: str  # "closed" | "not_closed"
    witnesses: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "status": self.status,
            "witnesses": self.witnesses,
        }


def is_dagger_closed(x: Subgroup | Ideal) -> DaggerReport:
    """Does the double dagger reproduce ``x``?

    For subgroups the closure can only shrink; for ideals it can only grow,
    and witnesses list sample members of the difference.
    """
    if isinstance(x, Subgroup):
        G = x.group
        back = dagger_ideal(G, dagger_subgroup(G, x))
        if back == x:
            return DaggerReport(subject=f"subgroup of order {x.order}", status="closed")
        lost = np.setdiff1d(x.indices, back.indices)
        diff = np.concatenate((lost, np.setdiff1d(back.indices, x.indices)))
        return DaggerReport(
            subject=f"subgroup of order {x.order}",
            status="not_closed",
            witnesses=_table(G).coords[diff[:3]].tolist(),
        )
    if isinstance(x, Ideal):
        G = x.group
        back = dagger_subgroup(G, dagger_ideal(G, x))
        if back == x:
            return DaggerReport(subject=f"ideal of size {x.size}", status="closed")
        extra = np.setxor1d(back.indices, x.indices)
        return DaggerReport(
            subject=f"ideal of size {x.size}",
            status="not_closed",
            witnesses=_cached_ring(G).decode(extra[:3]).tolist(),
        )
    raise InvalidInputError(f"expected a Subgroup or Ideal, got {type(x).__name__}")


def dagger_inv_class(G: GroupSpec, H: Subgroup, ideals=None) -> list[Ideal]:
    """All enumerated ideals whose image subgroup is exactly ``H``."""
    pool = enumerate_ideals(G) if ideals is None else ideals
    return [I for I in pool if dagger_ideal(G, I) == H]


def find_dagger_collision(G: GroupSpec):
    """Two distinct ideals with the same image subgroup, or None.

    Construction first (needs components of two different exponents): with
    ``a`` of minimal and ``b`` of maximal exponent ``e``, the ideal generated
    by (a -> p^(e-1) b, b -> p^(e-1) b) strictly contains the one generated
    by (b -> p^(e-1) b), yet both push forward to the top power subgroup.
    Falls back to exhaustive ideal enumeration when the ring is small enough.
    """
    p = G.p
    e = G.exponent
    if len(G.components) > 1:
        r = G.rank
        low = 0  # first coordinate: minimal exponent
        high = r - 1  # last coordinate: maximal exponent
        rows_f = [[0] * r for _ in range(r)]
        rows_f[low][high] = p ** (e - 1)
        rows_f[high][high] = p ** (e - 1)
        rows_g = [[0] * r for _ in range(r)]
        rows_g[high][high] = p ** (e - 1)
        I = ideal_generated(G, [make_endo(G, rows_f)])
        J = ideal_generated(G, [make_endo(G, rows_g)])
        if I != J and dagger_ideal(G, I) == dagger_ideal(G, J):
            return I, J
    if ring_order(G) <= DEFAULT_MAX_IDEAL_RING_ORDER:
        pool = enumerate_ideals(G)
        by_image: dict[Subgroup, Ideal] = {}
        for I in pool:
            img = dagger_ideal(G, I)
            if img in by_image:
                return by_image[img], I
            by_image[img] = I
    return None


# --------------------------------------------------------------------------
# mechanical verification of the correspondence


def _reports(G: GroupSpec, verdicts) -> list[ClaimReport]:
    """One report per ``(claim id, witnesses, what was checked)``."""
    return [
        ClaimReport(
            claim_id=cid,
            status="refuted" if ws else "verified",
            group=G.describe(),
            witnesses=ws,
            checked=checked,
        )
        for cid, ws, checked in verdicts
    ]


def verify_fun_identities(G: GroupSpec) -> list[ClaimReport]:
    """Check, for every n up to exp(G), the four identities tying the power
    and torsion ideals to the power and torsion subgroups:

    * image of ``p^n E``      == ``p^n G``        (holds)
    * preimage of ``p^n G``   == ``p^n E``        (fails off homocyclic groups)
    * image of ``E[p^n]``     == ``G[p^n]``       (holds)
    * preimage of ``G[p^n]``  == ``E[p^n]``       (holds)
    """
    e = G.exponent
    ring = get_ring(G)
    wit: dict[str, list] = {k: [] for k in (
        "power-ideal-dagger",
        "power-subgroup-dagger",
        "socle-ideal-dagger",
        "socle-subgroup-dagger",
    )}
    for n in range(e + 1):
        powerE, torsionE = special_ideals(G, n)
        powerG = fundamental_subgroup(G, n, e)  # p^n G
        torsionG = fundamental_subgroup(G, 0, n)  # G[p^n]
        if dagger_ideal(G, powerE) != powerG:
            wit["power-ideal-dagger"].append({"n": n})
        got = dagger_subgroup(G, powerG)
        if got != powerE:
            extra = np.setdiff1d(got.indices, powerE.indices)
            wit["power-subgroup-dagger"].append(
                {
                    "n": n,
                    "preimage_size": got.size,
                    "scaled_ring_size": powerE.size,
                    "endo_outside_scaled_ring": ring.decode(extra[0]).tolist()
                    if extra.size
                    else None,
                }
            )
        if dagger_ideal(G, torsionE) != torsionG:
            wit["socle-ideal-dagger"].append({"n": n})
        if dagger_subgroup(G, torsionG) != torsionE:
            wit["socle-subgroup-dagger"].append({"n": n})
    return _reports(G, [(cid, ws, f"all n in [0, {e}]") for cid, ws in wit.items()])


def verify_galois_suite(G: GroupSpec, nodes=None, ideals=None) -> list[ClaimReport]:
    """Order/meet/join preservation, closure behavior, and class structure of
    the two dagger maps, exhaustively over the fully invariant lattice and
    the full ideal lattice."""
    from .lattice import enumerate_fi_subgroups

    if nodes is None:
        nodes = enumerate_fi_subgroups(G).nodes
    if ideals is None:
        ideals = enumerate_ideals(G)
    verdicts = []  # (claim id, witnesses, what was checked)
    node_list = list(nodes)
    up = {H: dagger_subgroup(G, H) for H in node_list}
    down = {I: dagger_ideal(G, I) for I in ideals}

    # the pushforward of an ideal must be fully invariant, the pullback an ideal
    ring = get_ring(G)
    wd_wit = []
    for I in ideals:
        if not ring.is_fully_invariant(down[I]):
            wd_wit.append({"ideal_size": I.size})
    sample = ring.endo_matrices[: min(ring.size, 64)]
    for H in node_list:
        ideal_idx = up[H].indices
        # a nonempty finite set is closed under addition iff it is its own span
        if not np.array_equal(ring.endo_span(ideal_idx), ideal_idx):
            wd_wit.append({"subgroup_order": H.order, "failure": "additive"})
        # Two-sided multiplicative closure against a fixed sample of ring
        # members (exhaustive would be quadratic in |E| for no extra insight).
        mats = ring.endo_matrices[ideal_idx]
        for side, A, B in (("right-mult", mats, sample), ("left-mult", sample, mats)):
            prod = np.einsum("ast,btu->absu", A, B) % ring.moduli
            packed = np.unique(ring.pack_endos(prod.reshape(-1, ring.rank, ring.rank)))
            if not np.isin(packed, ideal_idx).all():
                wd_wit.append({"subgroup_order": H.order, "failure": side})
    checked = f"{len(node_list)} subgroups, {len(ideals)} ideals"
    verdicts.append(("dagger-well-defined", wd_wit[:5], checked))

    # order preservation, both directions
    order_wit = []
    for H, K in itertools.product(node_list, repeat=2):
        if subgroup_leq(H, K) and not ideal_leq(up[H], up[K]):
            order_wit.append({"pair": [H.order, K.order], "side": "subgroup"})
    for I, J in itertools.product(ideals, repeat=2):
        if ideal_leq(I, J) and not subgroup_leq(down[I], down[J]):
            order_wit.append({"pair": [I.size, J.size], "side": "ideal"})
    verdicts.append(("dagger-order", order_wit[:5], "all ordered pairs on both sides"))

    # meet/join preservation
    sum_wit, meet_wit = [], []
    for H, K in itertools.combinations(node_list, 2):
        HK_sum = subgroup_sum(H, K)
        HK_meet = subgroup_meet(H, K)
        # the FI lattice is closed under both, so the results are nodes
        lhs = up.get(HK_sum) or dagger_subgroup(G, HK_sum)
        if lhs != ideal_sum(up[H], up[K]):
            sum_wit.append({"pair": [H.order, K.order], "side": "subgroup"})
        lhs = up.get(HK_meet) or dagger_subgroup(G, HK_meet)
        if lhs != ideal_meet(up[H], up[K]):
            meet_wit.append({"pair": [H.order, K.order], "side": "subgroup"})
    for I, J in itertools.combinations(ideals, 2):
        S = ideal_sum(I, J)
        lhs = down.get(S) or dagger_ideal(G, S)
        if lhs != subgroup_sum(down[I], down[J]):
            sum_wit.append({"pair": [I.size, J.size], "side": "ideal"})
        M = ideal_meet(I, J)
        lhs = down.get(M) or dagger_ideal(G, M)
        if lhs != subgroup_meet(down[I], down[J]):
            meet_wit.append(
                {
                    "pair": [I.size, J.size],
                    "side": "ideal",
                    "image_of_meet_order": lhs.order,
                    "meet_of_images_order": subgroup_meet(down[I], down[J]).order,
                }
            )
    checked = "all unordered pairs on both sides"
    verdicts.append(("dagger-sum-preservation", sum_wit[:5], checked))
    verdicts.append(("dagger-intersection-preservation", meet_wit[:5], checked))

    # closure behavior
    sub_defl_wit, fi_closed_wit = [], []
    back_up = {H: dagger_ideal(G, up[H]) for H in node_list}
    for H in node_list:
        back = back_up[H]
        if not subgroup_leq(back, H):
            sub_defl_wit.append({"subgroup_order": H.order})
        if back != H:
            fi_closed_wit.append({"subgroup_order": H.order, "closure_order": back.order})
    checked = f"{len(node_list)} fully invariant subgroups"
    verdicts.append(("subgroup-double-dagger-deflation", sub_defl_wit, checked))
    verdicts.append(("fi-dagger-closed", fi_closed_wit, checked))
    ideal_defl_wit, ideal_infl_wit, triple_wit = [], [], []
    back_of = {I: dagger_subgroup(G, down[I]) for I in ideals}
    closed_ideals = [I for I in ideals if back_of[I] == I]
    for I in ideals:
        back = back_of[I]
        if not ideal_leq(back, I):
            sample = np.setdiff1d(back.indices, I.indices)
            ideal_defl_wit.append(
                {
                    "ideal_size": I.size,
                    "closure_size": back.size,
                    "endo_in_closure_only": ring.decode(sample[0]).tolist(),
                }
            )
        if not ideal_leq(I, back):
            ideal_infl_wit.append({"ideal_size": I.size})
        if dagger_ideal(G, back) != down[I]:
            triple_wit.append({"ideal_size": I.size, "side": "ideal"})
    for H in node_list:
        if dagger_subgroup(G, back_up[H]) != up[H]:
            triple_wit.append({"subgroup_order": H.order, "side": "subgroup"})
    checked = f"{len(ideals)} ideals"
    verdicts.append(("ideal-double-dagger-deflation", ideal_defl_wit[:5], checked))
    verdicts.append(("ideal-double-dagger-inflation", ideal_infl_wit[:5], checked))
    checked = "both composites on every object"
    verdicts.append(("dagger-triple", triple_wit[:5], checked))

    # closed-object equivalences and the lattice isomorphism between them
    equiv_wit = []
    images = {down[I] for I in ideals}
    for H in node_list:
        if (back_up[H] == H) != (H in images):
            equiv_wit.append({"subgroup_order": H.order})
    preimages = set(up.values())
    for I in ideals:
        if (back_of[I] == I) != (I in preimages):
            equiv_wit.append({"ideal_size": I.size})
    checked = "closedness vs membership in the opposite map's range"
    verdicts.append(("dagger-closed-equivalences", equiv_wit[:5], checked))
    iso_wit = []
    for I, J in itertools.product(closed_ideals, repeat=2):
        if ideal_leq(I, J) != subgroup_leq(down[I], down[J]):
            iso_wit.append({"pair": [I.size, J.size]})
    if len(closed_ideals) != len(node_list):
        iso_wit.append(
            {
                "closed_ideals": len(closed_ideals),
                "fully_invariant_subgroups": len(node_list),
            }
        )
    checked = f"{len(closed_ideals)} closed ideals vs {len(node_list)} subgroups"
    verdicts.append(("closed-lattice-isomorphism", iso_wit[:5], checked))

    # preimage classes: closed under sums, with a unique closed maximum
    class_wit = []
    for H in node_list:
        cls = [I for I in ideals if down[I] == H]
        if not cls:
            class_wit.append({"subgroup_order": H.order, "failure": "empty class"})
            continue
        for I, J in itertools.combinations(cls, 2):
            S = ideal_sum(I, J)
            if dagger_ideal(G, S) != H:
                class_wit.append({"subgroup_order": H.order, "failure": "sum leaves class"})
        closed_members = [I for I in cls if back_of[I] == I]
        if len(closed_members) != 1:
            class_wit.append(
                {"subgroup_order": H.order, "closed_members": len(closed_members)}
            )
        else:
            top = max(cls, key=lambda I: I.size)
            if top != closed_members[0] or not all(
                ideal_leq(I, closed_members[0]) for I in cls
            ):
                class_wit.append({"subgroup_order": H.order, "failure": "not maximum"})
    checked = f"{len(ideals)} ideals grouped by image"
    verdicts.append(("dagger-class-structure", class_wit[:5], checked))

    # fundamental subgroups are closed
    fund_wit = []
    e = G.exponent
    for n in range(1, e + 1):
        for kappa in range(e):
            H = fundamental_subgroup(G, kappa, n)
            if dagger_ideal(G, dagger_subgroup(G, H)) != H:
                fund_wit.append({"cell": [n, kappa]})
    checked = f"all {e * e} fundamental subgroups"
    verdicts.append(("fundamental-dagger-closed", fund_wit[:5], checked))
    return _reports(G, verdicts)
