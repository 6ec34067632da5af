"""Every endomorphism ring within the ideal budget, for p in {2, 3, 5, 7}.

Shared by the tier-1 oracles that check a basis-built computation against the
whole-ring definition it replaces on each ring of the family, with the claim
ids of the dagger suite, which ``run_claims`` reaches through one runner.
"""
import itertools

from pgroups import make_group, ring_order

IDEAL_BUDGET = 2**12


def _partitions(n, least=1):
    """Strictly increasing exponents with multiplicities, total size ``n``."""
    if n == 0:
        yield []
        return
    for e in range(least, n + 1):
        for m in range(1, n // e + 1):
            for rest in _partitions(n - e * m, e + 1):
                yield [(e, m)] + rest


def _family():
    out = []
    for p in (2, 3, 5, 7):
        for n in itertools.count(1):
            if p**n > IDEAL_BUDGET:
                break
            for pairs in _partitions(n):
                G = make_group(p, pairs)
                if ring_order(G) <= IDEAL_BUDGET:
                    out.append(G)
    return out


FAMILY = _family()

#: The twelve claims of the dagger suite; ``dagger-well-defined``, its census
#: oracle, is a claim of its own.
DAGGER_SUITE = [
    "dagger-order",
    "dagger-sum-preservation",
    "dagger-intersection-preservation",
    "subgroup-double-dagger-deflation",
    "fi-dagger-closed",
    "ideal-double-dagger-deflation",
    "ideal-double-dagger-inflation",
    "dagger-triple",
    "dagger-closed-equivalences",
    "closed-lattice-isomorphism",
    "dagger-class-structure",
    "fundamental-dagger-closed",
]

#: The four identities tying the power and torsion ideals to the power and
#: torsion subgroups.
FUN_IDENTITIES = [
    "power-ideal-dagger",
    "power-subgroup-dagger",
    "socle-ideal-dagger",
    "socle-subgroup-dagger",
]
