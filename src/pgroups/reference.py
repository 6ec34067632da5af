"""Bundled worked example: the group Z(p^2) (+) Z(p^4) and its published
companion tables.

The tables ship exactly as listed so the verification machinery can compare
them against recomputed values; two rows of the indicator table disagree
with the recomputation and carry their corrected values here (see the
``reference-table-rows`` claim and the project decision log).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .endos import make_endo, scalar_endo
from .errors import InvalidInputError
from .groups import GroupSpec, make_group
from .symbolic import (
    TAIL_ALL_ZERO,
    TAIL_CONSTANT,
    Ordinal,
    UlmBlock,
    UlmSequence,
    finite,
)


def reference_group(p: int = 2) -> GroupSpec:
    """The running example ``Z(p^2) (+) Z(p^4)``."""
    return make_group(p, [(2, 1), (4, 1)])


#: Counts for the reference group, independent of p.
REFERENCE_ADMISSIBLE_COUNT = 13
REFERENCE_REALIZABLE_COUNT = 9
REFERENCE_FI_NODE_COUNT = 9

#: The count quoted alongside the listed table (it counts table rows, i.e.
#: indicators, two of which cut out the same subgroup as another row; the
#: recomputed distinct-subgroup count is REFERENCE_FI_NODE_COUNT).
REFERENCE_LISTED_FI_COUNT = 11

#: (nodes on a longest chain, widest antichain) of its fully invariant lattice.
REFERENCE_LATTICE_STATS = (7, 2)

#: Rising-path tally as listed alongside the table: lengths 0..4.
REFERENCE_PATH_TALLY = {0: 1, 1: 3, 2: 4, 3: 2, 4: 1}
REFERENCE_PATH_TOTAL = 11


@dataclass(frozen=True)
class ReferenceRow:
    """One listed row: an indicator, the named subgroup it allegedly cuts
    out, and that subgroup's block shifts.  ``true_*`` fields are populated
    only on the rows whose recomputed value differs."""

    indicator: tuple[int, ...]
    listed_name: str
    listed_shifts: tuple[int, int]
    true_name: Optional[str] = None
    true_shifts: Optional[tuple[int, int]] = None

    @property
    def is_erratum(self) -> bool:
        return self.true_name is not None

    @property
    def expected_shifts(self) -> tuple[int, int]:
        """What the cut-out subgroup actually is."""
        return self.true_shifts if self.true_shifts is not None else self.listed_shifts


#: The indicator table for the reference group: () is the empty indicator
#: (only the implicit terminal entry), cutting out the zero subgroup.
REFERENCE_TABLE: tuple[ReferenceRow, ...] = (
    ReferenceRow(indicator=(), listed_name="0", listed_shifts=(2, 4)),
    ReferenceRow(indicator=(1,), listed_name="G[p]", listed_shifts=(1, 3)),
    ReferenceRow(
        indicator=(2,),
        listed_name="p^2G",
        listed_shifts=(2, 2),
        true_name="p^3G",
        true_shifts=(2, 3),
    ),
    ReferenceRow(indicator=(3,), listed_name="p^3G", listed_shifts=(2, 3)),
    ReferenceRow(indicator=(0, 1), listed_name="G[p^2]", listed_shifts=(0, 2)),
    ReferenceRow(
        indicator=(1, 2),
        listed_name="pG",
        listed_shifts=(1, 1),
        true_name="pG[p^2]",
        true_shifts=(1, 2),
    ),
    ReferenceRow(indicator=(1, 3), listed_name="pG[p^2]", listed_shifts=(1, 2)),
    ReferenceRow(indicator=(2, 3), listed_name="p^2G", listed_shifts=(2, 2)),
    ReferenceRow(indicator=(0, 1, 2), listed_name="G[p^3]", listed_shifts=(0, 1)),
    ReferenceRow(indicator=(1, 2, 3), listed_name="pG", listed_shifts=(1, 1)),
    ReferenceRow(indicator=(0, 1, 2, 3), listed_name="G", listed_shifts=(0, 0)),
)

#: Matrix cells whose listed display disagrees with recomputation
#: (cell -> block shifts): both were listed as the shifts (1, 2).
REFERENCE_MATRIX_ERRATA = {
    (1, 0): {"listed": (1, 2), "true": (1, 3)},  # row 1, col 0 is G[p]
    (2, 0): {"listed": (1, 2), "true": (0, 2)},  # row 2, col 0 is G[p^2]
}


def reference_collision_generators(G: GroupSpec):
    """Generators of the two ideals named as a collision pair for the
    reference group: scalar ``p^3`` and the diagonal ``(p, p^3)``.

    Listed with both images equal to the socle; recomputation gives the
    scalar ideal the image ``p^3 G`` instead (``named-collision-pair``).
    """
    if len(G.components) != 2 or G.components[0][1] != 1 or G.components[1][1] != 1:
        raise InvalidInputError("collision pair is defined for rank-2 reference shapes")
    p = G.p
    e = G.exponent
    n1 = G.components[0][0]
    f = scalar_endo(G, p ** (e - 1))
    g = make_endo(G, [[p ** (n1 - 1), 0], [0, p ** (e - 1)]])
    return f, g


def ulm_reject_example() -> UlmSequence:
    """Length w+1 with nothing below the limit: fails the criterion at 0."""
    return UlmSequence(
        length=Ordinal(1, 1),
        blocks=(
            UlmBlock(head=(), tail=TAIL_ALL_ZERO),
            UlmBlock(head=(finite(1),), tail=None),
        ),
    )


def ulm_accept_example() -> UlmSequence:
    """Length w+1 with value 1 everywhere below the limit: passes."""
    return UlmSequence(
        length=Ordinal(1, 1),
        blocks=(
            UlmBlock(head=(finite(1),), tail=TAIL_CONSTANT, tail_value=finite(1)),
            UlmBlock(head=(finite(1),), tail=None),
        ),
    )
