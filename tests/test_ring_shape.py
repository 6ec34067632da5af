"""One cached ring shape per group: member matrices are built on demand, and
the ring budget applies only to work that walks End(G)."""
import importlib.util
import itertools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import pgroups
from pgroups import (
    RingTooLargeError,
    dagger_ideal,
    enumerate_fi_subgroups,
    enumerate_ideals,
    get_ring,
    ideal_generated,
    identity_endo,
    image,
    make_group,
    run_claims,
    scalar_endo,
    special_ideals,
)
from pgroups import claims, endos
from pgroups.claims import _least_outside
from pgroups.cli import main
from pgroups.endos import (
    _CHUNK_BYTES,
    DEFAULT_MAX_IDEAL_RING_ORDER,
    _cached_ring,
    _pullback,
    _pushforward,
    ring_order,
)
from pgroups.groups import _fundamental_shifts, _table
from pgroups.lattice import is_valid_fi_form
from ring_family import DAGGER_SUITE, FAMILY

#: Rings above the default 2**20 cap on small groups.
BIG_RINGS = [
    make_group(2, [(1, 2), (3, 2)]),  # |G| = 256, |End| = 2^24
    make_group(3, [(1, 1), (2, 1), (3, 1)]),  # |G| = 729
    make_group(2, [(1, 1), (2, 1), (3, 1), (4, 1)]),  # |G| = 1024
]


def _valid_block_shifts(G):
    ranges = [range(n + 1) for n, _ in G.components]
    return sum(is_valid_fi_form(G, alpha) for alpha in itertools.product(*ranges))


@pytest.mark.parametrize("G", BIG_RINGS, ids=lambda G: G.describe())
def test_lattice_above_the_ring_cap(G):
    assert ring_order(G) > 2**20
    with pytest.raises(RingTooLargeError):
        get_ring(G)
    assert enumerate_fi_subgroups(G).node_count == _valid_block_shifts(G)


def test_lattice_builds_each_orbit_once():
    G = make_group(2, [(1, 16)])  # |G| = 2^16, |End| = 2^256
    start = time.perf_counter()
    assert enumerate_fi_subgroups(G).node_count == 2
    # one orbit per element (65536 subgroups of up to |G| elements) takes minutes
    assert time.perf_counter() - start < 20
    # the coverage claim's oracle builds the distinct orbits the same way
    start = time.perf_counter()
    (report,) = run_claims(G, ids=["indicator-coverage"])
    assert time.perf_counter() - start < 20
    assert report.status == "verified"


def test_fi_closure_indicator_is_one_pass():
    G = make_group(2, [(1, 14)])  # |G| = 2^14
    start = time.perf_counter()
    (report,) = run_claims(G, ids=["fi-closure-indicator"])
    # one orbit and one indicator cut per element took about 7 s here
    assert time.perf_counter() - start < 3
    assert (report.status, report.checked) == ("verified", "16384 elements")


def test_shape_only_claims_run_above_the_ring_cap():
    G = BIG_RINGS[0]
    ids = ["fi-closure-indicator", "indicator-coverage", "indicator-subgroups-invariant"]
    reports = run_claims(G, ids=ids)
    assert [(r.claim_id, r.status) for r in reports] == [(i, "verified") for i in ids]
    (skipped,) = run_claims(G, ids=["endo-height-exponent"])
    assert skipped.status == "skipped"
    assert "exceeds cap 1048576" in skipped.checked


def test_one_ring_build_per_claim_run(small24):
    _cached_ring.cache_clear()
    run_claims(small24)
    info = _cached_ring.cache_info()
    assert info.misses == 1
    assert info.hits > 0


def test_ring_shape_holds_no_member_table(G2):
    _cached_ring.cache_clear()
    ids = ["dagger-well-defined", "power-subgroup-dagger", "named-collision-pair"]
    reports = run_claims(G2, ids=ids)  # ideals, both daggers, power/socle ideals
    assert all(r.status != "skipped" for r in reports)
    ring = _cached_ring(G2)
    arrays = [v for v in vars(ring).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size < ring.size for a in arrays)  # |End| = 1024


def test_ideal_helpers_keep_the_callers_cap():
    G = make_group(2, [(5, 1), (6, 1)])  # |End| = 2^21
    with pytest.raises(RingTooLargeError):
        get_ring(G)
    f = scalar_endo(G, 32)
    I = ideal_generated(G, [f])
    assert I.size == 2
    assert I.to_json() == {"size": 2, "generators": [f.to_json()]}
    assert f in I
    assert identity_endo(G) not in I
    assert set(I.endos()) == {f, scalar_endo(G, 0)}
    assert list(I.generators) == [f]
    img = dagger_ideal(G, I)
    assert img == image(f)
    assert img.order == 2


def test_action_chunks_are_sized_in_bytes():
    G = make_group(2, [(16, 1)])  # |End| = |G| = 2^16, inside the default caps
    start, block = next(get_ring(G).action_chunks())
    assert start == 0
    assert 0 < block.nbytes <= _CHUNK_BYTES
    assert block.shape == (_CHUNK_BYTES // (8 * G.order), G.order)


@pytest.mark.parametrize(
    "p, pairs",
    [
        (2, [(1, 1), (2, 1)]),
        (2, [(1, 1), (3, 1)]),
        (2, [(2, 2)]),
        (2, [(1, 2), (2, 1)]),
        (2, [(2, 1), (3, 1)]),
        (2, [(1, 1), (5, 1)]),
        (3, [(1, 1), (2, 1)]),
        (3, [(1, 1), (3, 1)]),
        (2, [(2, 1), (4, 1)]),
    ],
)
def test_small_rings_act_in_one_block(p, pairs):
    ring = get_ring(make_group(p, pairs))
    blocks = list(ring.action_chunks())
    assert len(blocks) == 1
    assert np.array_equal(blocks[0][1], ring.action)


def _small_ring_groups():
    """The nine groups of the benchmark's ``verify`` workload."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [make_group(p, pairs) for p, pairs in module.SMALL_RING_GROUPS]


#: The claims whose runners read no element; some open the ring shape.
SHAPE_CLAIMS = [
    "power-ideal-dagger",
    "power-subgroup-dagger",
    "socle-ideal-dagger",
    "socle-subgroup-dagger",
    "descriptor-rule-as-stated",
    "descriptor-rule-empirical",
    "rank-subadditivity",
    "collision-recipe",
    "named-collision-pair",
    *DAGGER_SUITE,
]


def _shape_answers(G) -> tuple:
    """The ring shape's arrays, the member indices of the ideals (every ideal
    within the ideal budget, else the power and torsion ideals of at most
    2**12 members) and the rendered reports of ``SHAPE_CLAIMS``."""
    ring = get_ring(G)
    shape = {k: np.asarray(v).tolist() for k, v in vars(ring).items() if k != "group"}
    if ring_order(G) <= DEFAULT_MAX_IDEAL_RING_ORDER:
        ideals = enumerate_ideals(G)
    else:
        ideals = [I for n in range(G.exponent + 1) for I in special_ideals(G, n)]
        ideals = [I for I in ideals if I.size <= 2**12]
    members = [I.indices.tolist() for I in ideals]
    return shape, members, [r.render() for r in run_claims(G, ids=SHAPE_CLAIMS)]


def test_ring_shape_reads_no_element(monkeypatch):
    """The ring is the index space of End(G): opening it, listing ideal
    members and the claims that only gate on it read no table of the group's
    elements, from the nine ``verify`` groups up to Z(2^20)."""
    groups = _small_ring_groups() + [make_group(2, [(20, 1)])]
    expected = [_shape_answers(G) for G in groups]

    def refuse(*args, **kwargs):
        raise AssertionError("elements of the group were read")

    for name, module in list(sys.modules.items()):
        if name.startswith("pgroups") and getattr(module, "_table", None) is _table:
            monkeypatch.setattr(module, "_table", refuse)
    assert pgroups.groups._table is refuse
    _cached_ring.cache_clear()
    for G, answers in zip(groups, expected):
        assert _shape_answers(G) == answers, G.describe()


def _index_space_least_outside(G, w, v):
    """The witness as the ring's index space gave it: ``w``'s step at the last
    digit where ``v``'s step does not divide it, decoded."""
    steps = endos._digit_steps(G, w)
    k = np.flatnonzero(steps % endos._digit_steps(G, v))
    if not k.size:
        return None
    ring = _cached_ring(G)
    return ring.decode(steps[k[-1]] * ring._endo_strides[k[-1]]).tolist()


@pytest.mark.parametrize("G", FAMILY, ids=lambda G: G.describe())
def test_least_outside_is_the_index_space_witness(G):
    """Read off the shifts, ``_least_outside`` gives the decoded index of the
    least member outside, both ways on every pair its callers build: the
    pullback of p^n G against p^n E for n up to exp(G), and each listed
    ideal against its double dagger."""
    e = G.exponent
    pairs = [
        (_pullback(G, _fundamental_shifts(G, n, e)), special_ideals(G, n)[0].shifts)
        for n in range(e + 1)
    ]
    pairs += [(I.shifts, _pullback(G, _pushforward(I.shifts))) for I in enumerate_ideals(G)]
    for w, v in pairs:
        for a, b in ((w, v), (v, w)):
            assert _least_outside(G, a, b) == _index_space_least_outside(G, a, b)


@pytest.mark.parametrize("cap", [str(2**81), str(10**30)])
def test_ring_runners_skip_past_int64(capsys, cap):
    """|End(Z(2)^9)| = 2^81: refused at any cap, as its indices overflow int64."""
    Z2_9 = '{"p": 2, "components": [{"exponent": 1, "multiplicity": 9}]}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", Z2_9, "--max-ring", cap, "--claims", "rank-subadditivity"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["status"] == "skipped"
    assert report["checked"] == (
        "|End(G)| = 2417851639229258349412352 is not below 2**63, the int64 index limit"
    )


def test_power_witness_is_read_off_the_shifts_past_int64(capsys):
    """|End(Z(2) + Z(4)^6)| = 2^85: the witness needs no index of it."""
    G = '{"p": 2, "components": [{"exponent": 1, "multiplicity": 1}, {"exponent": 2, "multiplicity": 6}]}'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", G, "--max-ring", str(2**100), "--claims", "power-subgroup-dagger"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    (wit,) = json.loads(out)["witnesses"]
    expected = [[0] * 7 for _ in range(7)]
    expected[0][6] = 2
    assert wit["endo_outside_scaled_ring"] == expected


def test_closed_form_claims_build_no_ring(monkeypatch, capsys):
    """The power/socle identities, the descriptor rule, the collisions and
    ``endo`` answer with the ring's constructors refusing, above the default
    ``--max-ring`` too."""

    def refuse(*args, **kwargs):
        raise AssertionError("the ring was built")

    for module in (claims, endos):
        monkeypatch.setattr(module, "get_ring", refuse)
        monkeypatch.setattr(module, "_cached_ring", refuse)
    ids = [
        "collision-recipe",
        "descriptor-rule-as-stated",
        "descriptor-rule-empirical",
        "power-ideal-dagger",
        "power-subgroup-dagger",
        "socle-ideal-dagger",
        "socle-subgroup-dagger",
    ]
    reports = run_claims(make_group(2, [(1, 1), (19, 1)]), ids=ids)  # |End| = 2^22
    assert [(r.claim_id, r.status != "skipped") for r in reports] == [(i, True) for i in ids]
    (pair,) = run_claims(make_group(2, [(2, 1), (4, 1)]), ids=["named-collision-pair"])
    assert pair.status != "skipped"
    G24 = '{"p": 2, "components": [{"exponent": 1, "multiplicity": 1}, {"exponent": 2, "multiplicity": 1}]}'
    assert main(["endo", G24]) == 0
    assert "two-sided ideals: 8" in capsys.readouterr().out
