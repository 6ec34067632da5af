"""Every endomorphism ring within the ideal budget, for p in {2, 3, 5, 7}.

Shared by the tier-1 oracles that check a basis-built computation against the
whole-ring definition it replaces on each ring of the family.
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
