"""Symbolic layer: transfinite invariants without materializing a group.

Everything here works with three small value types:

* :class:`Ordinal` — ordinals below omega^2, written ``w*q + r``;
* :class:`CardinalValue` — either a natural number or an aleph;
* :class:`UlmSequence` — a cardinal-valued function on an initial segment
  of the ordinals, stored per omega-block as an explicit finite head plus a
  tail rule (``all_zero`` or ``constant``), which keeps eventually-constant
  data finite.

On top of those sit the realizability criterion for Ulm sequences, the
block-shaped ("basic") presentations of transfinite direct sums and their
translation to and from Ulm data, and symbolic descriptors for the ideals
attached to two-parameter subgroups, with the stated comparison rule kept
verbatim so it can be tested against finite groups.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import (
    BudgetExceededError,
    IncomparableContextError,
    InvalidInputError,
    NotAdmissibleError,
    ShapeViolationError,
)
from .groups import GroupSpec, _is_int, ulm_invariants
from .reports import ClaimReport, _verdict


def _json_int(value, what: str) -> int:
    """An integer field of symbolic JSON; ``bool``, ``float`` and strings are
    malformed, not coerced."""
    if not _is_int(value):
        raise InvalidInputError(f"malformed {what}: {value!r}")
    return value


# --------------------------------------------------------------------------
# ordinals below omega^2


@dataclass(frozen=True, order=True)
class Ordinal:
    """``w*q + r`` with natural q, r.  Field order makes comparison lexicographic."""

    q: int = 0
    r: int = 0

    def __post_init__(self):
        if self.q < 0 or self.r < 0:
            raise InvalidInputError("ordinal parts must be nonnegative")

    @property
    def is_limit(self) -> bool:
        """No immediate predecessor (0 and the w-multiples)."""
        return self.r == 0

    @property
    def is_finite(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.r)
        w = "w" if self.q == 1 else f"w*{self.q}"
        return w if self.r == 0 else f"{w}+{self.r}"

    def to_json(self) -> dict:
        return {"q": self.q, "r": self.r}

    @classmethod
    def from_json(cls, data: dict) -> "Ordinal":
        try:
            q = _json_int(data["q"], "ordinal part")
            r = _json_int(data["r"], "ordinal part")
            return cls(q=q, r=r)
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed ordinal: {exc}") from exc


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition: a finite left part is absorbed by a limit right part."""
    if b.q > 0:
        return Ordinal(a.q + b.q, b.r)
    return Ordinal(a.q, a.r + b.r)


# --------------------------------------------------------------------------
# cardinals


@functools.total_ordering
@dataclass(frozen=True)
class CardinalValue:
    """A natural number or an aleph, with the obvious total order."""

    kind: str  # "finite" | "aleph"
    value: int

    def __post_init__(self):
        if self.kind not in ("finite", "aleph"):
            raise InvalidInputError(f"unknown cardinal kind {self.kind!r}")
        if self.value < 0:
            raise InvalidInputError("cardinal parameter must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.kind == "finite" and self.value == 0

    @property
    def is_infinite(self) -> bool:
        return self.kind == "aleph"

    def _key(self) -> tuple[int, int]:
        return (0, self.value) if self.kind == "finite" else (1, self.value)

    def __lt__(self, other: "CardinalValue") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        return str(self.value) if self.kind == "finite" else f"aleph_{self.value}"

    def to_json(self) -> dict:
        return {self.kind: self.value}

    @classmethod
    def from_json(cls, data) -> "CardinalValue":
        """Accepts ``{"finite": 5}``, ``{"aleph": 0}``, or a bare integer."""
        if isinstance(data, bool):
            raise InvalidInputError(f"malformed cardinal: {data!r}")
        if isinstance(data, int):
            return cls(kind="finite", value=data)
        if not isinstance(data, dict) or len(data) != 1:
            raise InvalidInputError(f"malformed cardinal: {data!r}")
        kind, value = next(iter(data.items()))
        return cls(kind=kind, value=_json_int(value, "cardinal"))


def finite(n: int) -> CardinalValue:
    return CardinalValue("finite", n)


def aleph(k: int) -> CardinalValue:
    return CardinalValue("aleph", k)


ZERO = finite(0)


def cardinal_add(a: CardinalValue, b: CardinalValue) -> CardinalValue:
    """Finite values add; any infinite operand absorbs (take the max)."""
    if a.kind == "finite" and b.kind == "finite":
        return finite(a.value + b.value)
    return max(a, b)


def cardinal_sum(values: Iterable[CardinalValue]) -> CardinalValue:
    total = ZERO
    for v in values:
        total = cardinal_add(total, v)
    return total


def _suffix_sums(values: list[CardinalValue]) -> list[CardinalValue]:
    """``out[i]`` is the sum of ``values[i:]``, so ``out[len(values)]`` is zero:
    one pass, where summing each suffix afresh is quadratic."""
    out = [ZERO]
    for v in reversed(values):
        out.append(cardinal_add(v, out[-1]))
    return out[::-1]


def cardinal_repeat_omega(c: CardinalValue) -> CardinalValue:
    """Sum of countably many copies: 0 stays 0, finite > 0 becomes aleph_0."""
    if c.is_zero:
        return ZERO
    return c if c.is_infinite else aleph(0)


def _keyed_blocks(blocks) -> list[dict]:
    """Each block's JSON, keyed first by its limit ordinal ``xi = w*i``."""
    return [{"xi": Ordinal(i, 0).to_json(), **b.to_json()} for i, b in enumerate(blocks)]


# --------------------------------------------------------------------------
# Ulm sequences, blockwise

TAIL_ALL_ZERO = "all_zero"
TAIL_CONSTANT = "constant"

#: Largest ``q`` and largest ``r`` of the length ``w*q + r`` of an Ulm
#: sequence read from JSON.  Every block up to the length is built, omitted
#: ones included, so this bounds the time and memory of one request.
MAX_ULM_LENGTH = 2**16


@dataclass(frozen=True)
class UlmBlock:
    """Values on one omega-segment: explicit head, then a tail rule.

    ``tail`` is None only for a final partial block (the sequence stops
    inside the segment, so there is nothing after the head).
    """

    head: tuple[CardinalValue, ...]
    tail: Optional[str] = TAIL_ALL_ZERO
    tail_value: Optional[CardinalValue] = None

    def value_at(self, j: int) -> CardinalValue:
        if j < len(self.head):
            return self.head[j]
        if self.tail == TAIL_ALL_ZERO:
            return ZERO
        if self.tail == TAIL_CONSTANT:
            return self.tail_value  # type: ignore[return-value]
        raise InvalidInputError("position beyond a partial block")

    def suffix_sums(self) -> list[CardinalValue]:
        """The sum of the values from head offset ``j`` to the end of the
        omega-segment, for every ``j``, ``len(head)`` included."""
        tail = cardinal_repeat_omega(self.tail_value) if self.tail == TAIL_CONSTANT else ZERO
        return [cardinal_add(h, tail) for h in _suffix_sums(list(self.head))]

    def is_everywhere_zero(self) -> bool:
        return all(v.is_zero for v in self.head) and self.tail != TAIL_CONSTANT

    def to_json(self) -> dict:
        out: dict = {"head": [v.to_json() for v in self.head], "tail": self.tail}
        if self.tail_value is not None:
            out["tail_value"] = self.tail_value.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "UlmBlock":
        try:
            head = tuple(CardinalValue.from_json(v) for v in data["head"])
            tail = data.get("tail", TAIL_ALL_ZERO)
            tv = data.get("tail_value")
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed block: {exc}") from exc
        return cls(
            head=head,
            tail=tail,
            tail_value=CardinalValue.from_json(tv) if tv is not None else None,
        )


@dataclass(frozen=True)
class UlmSequence:
    """Cardinal values on ``[0, length)`` for an ordinal length below omega^2.

    Block ``i`` holds the values on ``[w*i, w*(i+1))``; when ``length.r > 0``
    the final block is partial and its head must have exactly ``length.r``
    entries with no tail rule.
    """

    length: Ordinal
    blocks: tuple[UlmBlock, ...]

    def __post_init__(self):
        lam = self.length
        want = lam.q + (1 if lam.r > 0 else 0)
        if len(self.blocks) != want:
            raise ShapeViolationError(
                f"length {lam} needs {want} blocks, got {len(self.blocks)}"
            )
        for i, b in enumerate(self.blocks):
            partial = lam.r > 0 and i == len(self.blocks) - 1
            if partial:
                if b.tail is not None:
                    raise ShapeViolationError("final partial block must not have a tail")
                if len(b.head) != lam.r:
                    raise ShapeViolationError(
                        f"partial block needs exactly {lam.r} head values"
                    )
            else:
                if b.tail not in (TAIL_ALL_ZERO, TAIL_CONSTANT):
                    raise ShapeViolationError(f"bad tail rule {b.tail!r}")
                if b.tail == TAIL_CONSTANT and (
                    b.tail_value is None or b.tail_value.is_zero
                ):
                    raise ShapeViolationError(
                        "constant tail requires a nonzero tail value"
                    )

    def value_at(self, kappa: Ordinal) -> CardinalValue:
        if not kappa < self.length:
            raise InvalidInputError(f"position {kappa} outside [0, {self.length})")
        return self.blocks[kappa.q].value_at(kappa.r)

    def block_total(self, i: int) -> CardinalValue:
        """Sum of all values in block ``i``."""
        return self.blocks[i].suffix_sums()[0]

    def to_json(self) -> dict:
        return {"lambda": self.length.to_json(), "blocks": _keyed_blocks(self.blocks)}

    @classmethod
    def from_json(cls, data: dict) -> "UlmSequence":
        """Blocks act as a map keyed by ``xi``; omitted blocks mean all-zero.

        Block dictionaries without an ``xi`` key fill slots positionally.
        A final partial block given with an ``all_zero`` tail is coerced to
        the tailless partial shape, padding its head with zeros if short.
        """
        try:
            lam = Ordinal.from_json(data["lambda"])
            raw_blocks = list(data["blocks"])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed sequence: {exc}") from exc
        if max(lam.q, lam.r) > MAX_ULM_LENGTH:
            raise BudgetExceededError(
                f"length {lam} exceeds the Ulm length cap:"
                f" q and r must each be at most {MAX_ULM_LENGTH}"
            )
        want = lam.q + (1 if lam.r > 0 else 0)
        slots: list[Optional[UlmBlock]] = [None] * want
        cursor = 0
        for raw in raw_blocks:
            if not isinstance(raw, dict):
                raise InvalidInputError(f"malformed block: {raw!r}")
            if "xi" in raw:
                xi = Ordinal.from_json(raw["xi"])
                if not xi.is_limit:
                    raise InvalidInputError(f"block key {xi} is not a limit ordinal")
                idx = xi.q
            else:
                idx = cursor
            if not 0 <= idx < want:
                raise InvalidInputError(f"block at w*{idx} lies outside length {lam}")
            if slots[idx] is not None:
                raise InvalidInputError(f"duplicate block at w*{idx}")
            slots[idx] = UlmBlock.from_json({k: v for k, v in raw.items() if k != "xi"})
            cursor = idx + 1
        for i in range(want):
            if slots[i] is not None:
                continue
            if lam.r > 0 and i == want - 1:
                slots[i] = UlmBlock(head=(ZERO,) * lam.r, tail=None)
            else:
                slots[i] = UlmBlock(head=(), tail=TAIL_ALL_ZERO)
        if lam.r > 0:
            last = slots[-1]
            if last.tail == TAIL_ALL_ZERO:
                head = last.head + (ZERO,) * (lam.r - len(last.head))
                slots[-1] = UlmBlock(head=head, tail=None)
        return cls(length=lam, blocks=tuple(slots))  # type: ignore[arg-type]


def ulm_sequence_of_group(G: GroupSpec) -> UlmSequence:
    """The (finite) Ulm sequence of a bounded group: one partial block."""
    values = tuple(finite(u) for u in ulm_invariants(G))
    return UlmSequence(
        length=Ordinal(0, G.exponent),
        blocks=(UlmBlock(head=values, tail=None),),
    )


def check_ulm_criterion(seq: UlmSequence) -> ClaimReport:
    """Can these cardinals be the Ulm values of a transfinite direct sum?

    The constraint: for every position ``kappa`` with ``kappa + w`` still
    below the length, the total mass at or beyond ``kappa + w`` must not
    exceed the mass on the window ``[kappa, kappa + w)``.  Within one block
    the window sum only changes at head offsets, so evaluating every block
    boundary and every head offset is exhaustive; the report's witness is
    the earliest failing ``kappa``.

    >>> seq = UlmSequence(Ordinal(1, 1), (
    ...     UlmBlock(head=(finite(1),), tail=TAIL_CONSTANT, tail_value=finite(1)),
    ...     UlmBlock(head=(finite(1),), tail=None),
    ... ))
    >>> check_ulm_criterion(seq).status
    'verified'
    """
    witnesses = []
    checked = 0
    # beyond[i]: the mass of the blocks after block i
    beyond = _suffix_sums([seq.block_total(k) for k in range(1, len(seq.blocks))])
    for i in range(seq.length.q):
        for j, window in enumerate(seq.blocks[i].suffix_sums()):
            checked += 1
            if not beyond[i] <= window:
                witnesses.append(
                    {
                        "kappa": Ordinal(i, j).to_json(),
                        "mass_beyond_window": str(beyond[i]),
                        "window_sum": str(window),
                    }
                )
                break
        if witnesses:
            break
    return _verdict(
        "ulm-criterion",
        f"sequence of length {seq.length}",
        witnesses,
        f"{checked} window positions",
    )


# --------------------------------------------------------------------------
# block-shaped presentations (transfinite direct sums of cyclics)


@dataclass(frozen=True)
class BasicGroupSpec:
    """One block of a transfinite presentation: cyclic summand multiplicities.

    ``pairs`` lists (exponent, multiplicity) with exponents strictly
    increasing and multiplicities nonzero; the tail rule extends beyond the
    last listed exponent (``constant`` means every larger exponent appears
    with that multiplicity).  A block is bounded exactly when its tail is
    ``all_zero``.
    """

    pairs: tuple[tuple[int, CardinalValue], ...]
    tail: str = TAIL_ALL_ZERO
    tail_value: Optional[CardinalValue] = None

    def __post_init__(self):
        if self.tail not in (TAIL_ALL_ZERO, TAIL_CONSTANT):
            raise ShapeViolationError(f"bad tail rule {self.tail!r}")
        if self.tail == TAIL_CONSTANT and (
            self.tail_value is None or self.tail_value.is_zero
        ):
            raise ShapeViolationError("constant tail requires a nonzero value")
        prev = 0
        for n, m in self.pairs:
            if n <= prev:
                raise InvalidInputError("exponents must be strictly increasing and >= 1")
            if m.is_zero:
                raise InvalidInputError(f"zero multiplicity listed for exponent {n}")
            prev = n

    @property
    def is_bounded(self) -> bool:
        return self.tail == TAIL_ALL_ZERO

    @property
    def is_empty(self) -> bool:
        return not self.pairs and self.tail == TAIL_ALL_ZERO

    def multiplicity_of(self, n: int) -> CardinalValue:
        for exp, m in self.pairs:
            if exp == n:
                return m
        if self.tail == TAIL_CONSTANT and (not self.pairs or n > self.pairs[-1][0]):
            return self.tail_value  # type: ignore[return-value]
        return ZERO

    def rank(self) -> CardinalValue:
        total = cardinal_sum(m for _, m in self.pairs)
        if self.tail == TAIL_CONSTANT:
            total = cardinal_add(total, cardinal_repeat_omega(self.tail_value))
        return total

    def to_json(self) -> dict:
        out: dict = {
            "pairs": [[n, m.to_json()] for n, m in self.pairs],
            "tail": self.tail,
        }
        if self.tail_value is not None:
            out["tail_value"] = self.tail_value.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "BasicGroupSpec":
        try:
            pairs = tuple(
                (_json_int(n, "exponent"), CardinalValue.from_json(m))
                for n, m in data["pairs"]
            )
            tail = data.get("tail", TAIL_ALL_ZERO)
            tv = data.get("tail_value")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed block: {exc}") from exc
        return cls(
            pairs=pairs,
            tail=tail,
            tail_value=CardinalValue.from_json(tv) if tv is not None else None,
        )


@dataclass(frozen=True)
class BasicSequence:
    """Blocks indexed by the limit ordinals ``0, w, w*2, ...`` in order."""

    blocks: tuple[BasicGroupSpec, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ShapeViolationError("at least one block is required")

    def to_json(self) -> dict:
        return {"blocks": _keyed_blocks(self.blocks)}

    @classmethod
    def from_json(cls, data: dict) -> "BasicSequence":
        try:
            raw_blocks = list(data["blocks"])
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed sequence: {exc}") from exc
        parsed = []
        for i, raw in enumerate(raw_blocks):
            if not isinstance(raw, dict):
                raise InvalidInputError(f"malformed block: {raw!r}")
            if "xi" in raw:
                xi = Ordinal.from_json(raw["xi"])
                if xi != Ordinal(i, 0):
                    raise InvalidInputError(
                        f"block {i} must sit at w*{i}, not {xi}"
                    )
            parsed.append(
                BasicGroupSpec.from_json({k: v for k, v in raw.items() if k != "xi"})
            )
        return cls(blocks=tuple(parsed))


def basic_sequence_of_group(G: GroupSpec) -> BasicSequence:
    """Bounded groups are a single bounded block: their own (n, m) pairs."""
    pairs = tuple((n, finite(m)) for n, m in G.components)
    return BasicSequence(blocks=(BasicGroupSpec(pairs=pairs),))


def check_basic_sequence_admissible(seq: BasicSequence) -> ClaimReport:
    """Shape rules are enforced, the rank inequality is reported.

    Every block before the last must be unbounded (a bounded block would
    already exhaust its level) and no block may be empty — violations raise
    :class:`ShapeViolationError`.  The reported criterion is that each block
    have at least as many summands as all later blocks combined, since the
    later levels embed below it.
    """
    blocks = seq.blocks
    for i, b in enumerate(blocks):
        if b.is_empty:
            raise ShapeViolationError(f"block {i} is empty")
        if i < len(blocks) - 1 and b.is_bounded:
            raise ShapeViolationError(f"block {i} is bounded but not final")
    witnesses = []
    ranks = [b.rank() for b in blocks]
    later = _suffix_sums(ranks)
    for i in range(len(blocks) - 1):
        if not later[i + 1] <= ranks[i]:
            witnesses.append(
                {
                    "block": i,
                    "rank": str(ranks[i]),
                    "later_sum": str(later[i + 1]),
                }
            )
            break
    return _verdict(
        "basic-sequence-admissible",
        f"sequence of {len(blocks)} blocks",
        witnesses,
        f"{max(len(blocks) - 1, 0)} rank comparisons",
    )


def _dense_multiplicities(b: BasicGroupSpec) -> tuple[CardinalValue, ...]:
    """Multiplicities for exponents 1..max listed, zeros filled in."""
    if not b.pairs:
        return ()
    top = b.pairs[-1][0]
    return tuple(b.multiplicity_of(n) for n in range(1, top + 1))


def basic_seq_to_ulm(seq: BasicSequence) -> UlmSequence:
    """Multiplicity of exponent ``n`` in the block at ``xi`` lands at position
    ``xi + (n - 1)`` of the Ulm sequence; constant tails carry over unchanged."""
    verdict = check_basic_sequence_admissible(seq)
    if verdict.status == "refuted":
        raise NotAdmissibleError(f"inadmissible blocks: {verdict.witnesses}")
    blocks = seq.blocks
    out: list[UlmBlock] = []
    for b in blocks[:-1]:
        out.append(
            UlmBlock(head=_dense_multiplicities(b), tail=b.tail, tail_value=b.tail_value)
        )
    last = blocks[-1]
    if last.is_bounded:
        head = _dense_multiplicities(last)
        out.append(UlmBlock(head=head, tail=None))
        length = Ordinal(len(blocks) - 1, len(head))
    else:
        out.append(
            UlmBlock(
                head=_dense_multiplicities(last), tail=last.tail, tail_value=last.tail_value
            )
        )
        length = Ordinal(len(blocks), 0)
    return UlmSequence(length=length, blocks=tuple(out))


def _pairs_from_head(head: tuple[CardinalValue, ...]) -> tuple[tuple[int, CardinalValue], ...]:
    return tuple((j + 1, v) for j, v in enumerate(head) if not v.is_zero)


def ulm_to_basic_seq(seq: UlmSequence) -> BasicSequence:
    """Inverse translation; rejects Ulm data no block presentation can match."""
    blocks: list[BasicGroupSpec] = []
    for i, b in enumerate(seq.blocks):
        partial = seq.length.r > 0 and i == len(seq.blocks) - 1
        if not partial and b.tail == TAIL_ALL_ZERO and i < len(seq.blocks) - 1:
            raise NotAdmissibleError(
                f"block {i} is bounded but not final: no block presentation exists"
            )
        blocks.append(
            BasicGroupSpec(
                pairs=_pairs_from_head(b.head),
                tail=TAIL_ALL_ZERO if partial else b.tail,
                tail_value=None if partial else b.tail_value,
            )
        )
    out = BasicSequence(blocks=tuple(blocks))
    verdict = check_basic_sequence_admissible(out)
    if verdict.status == "refuted":
        raise NotAdmissibleError(f"inadmissible blocks: {verdict.witnesses}")
    return out


# --------------------------------------------------------------------------
# symbolic descriptors for the ideals attached to two-parameter subgroups


@dataclass(frozen=True)
class SymbolicIdealDescriptor:
    """Names the ideal of endomorphisms whose image lies in ``p^kappa G[p^n]``
    with rank at most ``mu``.

    The rank cap is meaningful only when infinite; a finite ``mu`` is the
    collapse marker for finite groups, where every image rank is finite and
    the cap filters nothing.
    """

    kappa: Ordinal
    n: int
    mu: CardinalValue = aleph(0)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("torsion parameter must be >= 1")

    def __str__(self) -> str:
        return f"ideal(p^{self.kappa} G[p^{self.n}], rank<={self.mu})"

    def to_json(self) -> dict:
        return {"kappa": self.kappa.to_json(), "n": self.n, "mu": self.mu.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "SymbolicIdealDescriptor":
        try:
            return cls(
                kappa=Ordinal.from_json(data["kappa"]),
                n=_json_int(data["n"], "descriptor n"),
                mu=CardinalValue.from_json(data["mu"]) if "mu" in data else aleph(0),
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed descriptor: {exc}") from exc


def _subgroup_param_leq(a: SymbolicIdealDescriptor, b: SymbolicIdealDescriptor) -> bool:
    """Parameterwise test for ``p^ka G[p^na] <= p^kb G[p^nb]`` independent of
    the ambient group: deeper height and smaller torsion bound."""
    return a.kappa >= b.kappa and a.n <= b.n


def descriptor_leq(a: SymbolicIdealDescriptor, b: SymbolicIdealDescriptor) -> bool:
    """The comparison rule as stated for these descriptors: the ideal order
    REVERSES the subgroup order (ideal(a) <= ideal(b) iff the subgroup of
    ``a`` contains the subgroup of ``b``, with rank caps compared the
    ordinary way).

    Kept verbatim so the ``descriptor-rule-*`` claims (:mod:`pgroups.claims`)
    can test it against finite groups — which refute the direction (the
    attached map is order-preserving, not order-reversing).  When the
    subgroup parameters are incomparable both ways, the
    answer would depend on the ambient group, so no context-free verdict
    exists.
    """
    a_contains_b = _subgroup_param_leq(b, a)
    b_contains_a = _subgroup_param_leq(a, b)
    if not a_contains_b and not b_contains_a:
        raise IncomparableContextError(
            f"{a} vs {b}: containment depends on the ambient group"
        )
    return a_contains_b and a.mu <= b.mu
