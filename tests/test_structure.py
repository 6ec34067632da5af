"""The package's modules import in one direction, each at its top, and each
claim has one home.

Read from the source with ``ast``: no import statement sits inside a function
or method, and the graph of ``pgroups`` modules importing one another has no
cycle.  The shape layers (``groups``, ``indicators``, ``symbolic``, ``lattice``
and ``matrix``) reach nothing of ``endos``, which builds on them.  Every claim
id is written once, where its runner registers it, and only the registry, the
symbolic verdicts, the CLI and the package namespace read the report module.
The public namespace is pinned, so that a change to it is made on purpose.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pgroups
from pgroups import all_claim_ids

SOURCE = Path(pgroups.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text("utf-8")) for path in sorted(SOURCE.glob("*.py"))}


def _imported(node: ast.AST) -> set[str]:
    """The ``pgroups`` modules named by one import statement."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names if a.name.startswith("pgroups.")]
        return {name.split(".")[1] for name in names}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 0:
        module = node.module or ""
        if not module.startswith("pgroups"):
            return set()
        relative = module.split(".")[1:]
    else:
        relative = (node.module or "").split(".") if node.module else []
    if relative:
        return {relative[0]}
    # ``from . import x``: x is a module, or a name of the package itself
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def _graph() -> dict[str, set[str]]:
    return {
        name: set().union(*map(_imported, ast.walk(tree))) - {name}
        for name, tree in MODULES.items()
    }


def _reach(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        for nxt in graph[todo.pop()] - seen:
            seen.add(nxt)
            todo.append(nxt)
    return seen


def test_no_import_inside_a_function():
    local = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{name}.py:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert local == []


def test_module_imports_are_acyclic():
    graph = _graph()
    assert set().union(*graph.values()) <= set(MODULES)
    assert [name for name in graph if name in _reach(graph, name)] == []


def test_shape_layers_reach_nothing_of_endos():
    graph = _graph()
    for name in ("groups", "indicators", "symbolic", "lattice", "matrix"):
        assert "endos" not in _reach(graph, name), name


def test_each_claim_id_is_written_once():
    literals = Counter(
        node.value
        for tree in MODULES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {cid: literals[cid] for cid in all_claim_ids() if literals[cid] != 1} == {}


def test_only_the_registry_symbolic_cli_and_package_read_reports():
    readers = {
        name
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "reports"
    }
    assert readers == {"claims", "symbolic", "cli", "__init__"}


#: ``sorted(pgroups.__all__)``: the modules and the names the package exports.
PUBLIC = [
    "BasicGroupSpec", "BasicSequence", "BudgetExceededError", "CardinalValue",
    "ClaimContext", "ClaimReport", "DEFAULT_MAX_GROUP_ORDER",
    "DEFAULT_MAX_IDEAL_RING_ORDER", "DEFAULT_MAX_RING_ORDER",
    "DEFAULT_MAX_SUBGROUP_SIZE", "Element", "Endo", "EndoRing", "FILattice",
    "FundMatrix", "GroupSpec", "GroupTooLargeError", "INF", "Ideal",
    "IncomparableContextError", "IndexOutOfRangeError", "Indicator",
    "InvalidInputError", "MismatchedParentError", "NoAliasError",
    "NonIncreasingExponentsError", "NonPrimeError", "NotAdmissibleError",
    "NotFullyInvariantError", "NotNormalizableError", "Ordinal", "PGroupError",
    "REFERENCE_ADMISSIBLE_COUNT", "REFERENCE_FI_NODE_COUNT", "REFERENCE_LATTICE_STATS",
    "REFERENCE_LISTED_FI_COUNT", "REFERENCE_MATRIX_ERRATA", "REFERENCE_PATH_TALLY",
    "REFERENCE_PATH_TOTAL", "REFERENCE_REALIZABLE_COUNT", "REFERENCE_TABLE",
    "ReferenceRow", "RingTooLargeError", "RisingPath", "ShapeViolationError",
    "Subgroup", "SymbolicIdealDescriptor", "TAIL_ALL_ZERO", "TAIL_CONSTANT", "TOP",
    "TRANSITIVITY_MAX_ORDER", "UlmBlock", "UlmSequence", "UnknownFormatError",
    "VERDICTS", "ZeroMultiplicityError", "add", "admissible_glb", "admissible_lub",
    "aleph", "alias", "all_claim_ids", "apply", "basic_seq_to_ulm",
    "basic_sequence_of_group", "block_subgroup", "build_matrix", "canonical_fi_form",
    "cardinal_add", "cardinal_repeat_omega", "cardinal_sum",
    "check_basic_sequence_admissible", "check_ulm_criterion", "claims", "compose",
    "cut_shifts", "dagger_ideal", "dagger_subgroup", "descriptor_leq", "endo_add",
    "endo_rank", "endos", "entry_join", "entry_meet", "enumerate_admissible",
    "enumerate_elements", "enumerate_endos", "enumerate_fi_subgroups",
    "enumerate_ideals", "enumerate_rising_paths", "errors", "exponent", "fi_closure",
    "find_dagger_collision", "finite", "full_subgroup", "fundamental_subgroup",
    "get_ring", "groups", "has_gap_at", "hasse_export", "height", "ideal_generated",
    "ideal_leq", "ideal_meet", "ideal_shifts", "ideal_sum", "identity_endo", "image",
    "ind_max", "ind_min", "ind_of", "indicator_subgroup", "indicator_to_path",
    "indicator_universe", "indicators", "is_admissible", "is_realizable",
    "is_valid_fi_form", "lattice", "lattice_stats", "load_allowlist", "make_endo",
    "make_group", "matrix", "min_admissible", "neg", "ord_add", "path_tally",
    "path_to_indicator", "precedes", "principal_ideal", "pullback_size", "quartering",
    "reference", "reference_collision_generators", "reference_group", "reports",
    "ring_order", "run_claims", "scalar_endo", "sigma_sum", "smul", "special_ideals",
    "subgroup_generated", "subgroup_leq", "subgroup_meet", "subgroup_name",
    "subgroup_sum", "symbolic", "ulm_accept_example", "ulm_invariants",
    "ulm_reject_example", "ulm_sequence_of_group", "ulm_to_basic_seq",
    "unexpected_refutations", "zero_endo", "zero_subgroup",
]


def test_public_names_are_pinned():
    assert sorted(pgroups.__all__) == PUBLIC
