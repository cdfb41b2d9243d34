"""The package runs on the standard library alone, and its surface is pinned.

Test oracles such as sympy may be imported by tests, never by the package.
The exports, the command line options and the parameters of every export,
of the entry points and of the group builders are written out here, so that
adding or removing a knob or an export is a deliberate change of this file.  So are
the functions that call core.validate: tables are checked where they enter
the program, and a builder that re-validates a table it built is a change
of this file too.  So are the callers of engel_bracket, so that a second
bracket loop is one as well, of the bracket scan is_n_engel_subset and of
the sift, of the exponential subquandle scan is_ncs, which only the fact
suite runs, and of normal_closure, which only the derived subgroup and the
lower central terms use.  So is the list of gen families.
"""

import argparse
import ast
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import quandles
from quandles import classify, cli, corpus, permgroup

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quandles"


def _imported_top_level_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("quandles" if node.level else node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"quandles"}
    for path in sources:
        foreign = _imported_top_level_modules(path) - allowed
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_project_declares_no_runtime_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert [line for line in lines if line.startswith("dependencies")] == ["dependencies = []"]


def test_exports_are_pinned():
    assert quandles.__all__ == [
        "AxiomViolation", "CapExceeded", "ClassificationReport", "Congruence",
        "CorpusSpec", "NotACongruence", "NotAGroup", "NotAUnit", "NotClosed",
        "OrbitTreeNode", "ParseError", "Quandle", "QuandleError",
        "SeriesDegrees", "SuiteReport", "UnknownName",
        "affine", "all_congruences", "all_subquandles",
        "builtin_group", "builtin_quandle", "congruence_generated", "conj",
        "conj_subset", "default_corpus", "degrees", "dihedral",
        "direct_product", "disjoint_union", "enumerate_quandles",
        "induced_subquandle", "inn", "is_connected", "is_isomorphic",
        "is_medial", "is_n_locally_reductive", "is_n_reductive", "is_ncs",
        "l_chain", "lambda_congruence", "locally_reductive_degree", "o_chain",
        "orbit_tree", "principal_series", "quotient",
        "reductive_degree", "subquandle_closure", "trans", "trivial",
        "validate",
    ]
    for name in quandles.__all__:
        assert hasattr(quandles, name), name


def test_command_line_options_are_pinned():
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    options = {name: [opt for action in sub._actions
                      for opt in action.option_strings if opt not in ("-h", "--help")]
               for name, sub in commands.items()}
    assert options == {
        "gen": ["--out"],
        "classify": ["--json"],
        "tree": ["--dot"],
        "verify": ["--max-order", "--exhaustive", "--cap-enumeration"],
    }


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_entry_point_parameters_are_pinned():
    # The suite's order bounds and the scan caps are module constants, not
    # parameters; the census cap stays a parameter, set by a CLI option.
    assert _params(classify.classify) == ["q"]
    assert _params(classify.gather_facts) == ["q"]
    assert _params(classify.reductive_degree) == ["q"]
    assert _params(classify.verify_suite) == ["corpus", "groups"]
    assert [f.name for f in fields(corpus.CorpusSpec)] == [
        "exhaustive_up_to", "enumeration_cap"]


def _exported_params(obj):
    """Parameter names of an export; None for an exception class that keeps
    the constructor of Exception, which has no signature to inspect."""
    try:
        return _params(obj)
    except ValueError:
        assert issubclass(obj, Exception), obj
        return None


def test_exported_parameters_are_pinned():
    got = {name: _exported_params(getattr(quandles, name))
           for name in quandles.__all__}
    assert got == {
        "AxiomViolation": ["axiom", "witness"],
        "CapExceeded": ["what", "cap"],
        "ClassificationReport": [
            "order", "label", "orbit_sizes", "connected", "faithful", "medial",
            "abelian", "nilpotent_quandle", "solvable_quandle",
            "trans_derived_length", "reductive_degree",
            "locally_reductive_degree", "os_degree", "tos_degree", "ncs",
            "inn_order", "trans_order", "inn_nilpotency_class"],
        "Congruence": ["n", "class_of", "classes"],
        "CorpusSpec": ["exhaustive_up_to", "enumeration_cap"],
        "NotACongruence": ["witness"],
        "NotAGroup": None,
        "NotAUnit": ["n", "t"],
        "NotClosed": ["witness", "message"],
        "OrbitTreeNode": ["subset", "depth", "children"],
        "ParseError": None,
        "Quandle": ["table", "label"],
        "QuandleError": None,
        "SeriesDegrees": ["os_degree", "tos_degree"],
        "SuiteReport": ["results"],
        "UnknownName": ["name", "known"],
        "affine": ["n", "t"],
        "all_congruences": ["q"],
        "all_subquandles": ["q"],
        "builtin_group": ["name"],
        "builtin_quandle": ["name"],
        "congruence_generated": ["q", "pairs"],
        "conj": ["group", "exponent", "label"],
        "conj_subset": ["group", "subset", "exponent", "label"],
        "default_corpus": ["spec"],
        "degrees": ["q"],
        "dihedral": ["n"],
        "direct_product": ["quandles"],
        "disjoint_union": ["quandles"],
        "enumerate_quandles": ["n", "cap"],
        "induced_subquandle": ["q", "subset"],
        "inn": ["q", "trans_group"],
        "is_connected": ["q"],
        "is_isomorphic": ["q1", "q2"],
        "is_medial": ["q"],
        "is_n_locally_reductive": ["q", "n"],
        "is_n_reductive": ["q", "n"],
        "is_ncs": ["q"],
        "l_chain": ["q"],
        "lambda_congruence": ["q"],
        "locally_reductive_degree": ["q"],
        "o_chain": ["q"],
        "orbit_tree": ["q"],
        "principal_series": ["q", "x"],
        "quotient": ["q", "partition", "label"],
        "reductive_degree": ["q"],
        "subquandle_closure": ["q", "seed"],
        "trans": ["q"],
        "trivial": ["n"],
        "validate": ["table", "label"],
    }


def test_group_builder_parameters_are_pinned():
    assert _params(permgroup.closure) == ["generators", "degree", "start", "bound"]
    assert _params(permgroup.normal_closure) == ["seed", "ambient", "bound"]
    assert _params(permgroup.derived_subgroup) == ["group"]


def _functions_calling(name: str) -> set[str]:
    """Qualified name of each function (or module) in src that calls name."""
    callers = set()

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        elif isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            callers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return callers


def test_only_outside_tables_are_validated():
    # the paper's 16-element table enters as a .qnd document
    assert _functions_calling("validate") == {"qndfile.parse"}


def test_group_tables_are_validated_in_one_place():
    assert _functions_calling("validate_group") == {"core.conj_subset"}


def test_one_closure_kernel_for_quandles_and_groups():
    # quandle and group validation read one greedy generating set, and
    # every closure under the operation runs one worklist
    assert _functions_calling("_close") == {
        "grouptables._generating_set", "core.subquandle_closure",
        "orbitseries._subquandles"}
    assert _functions_calling("_generating_set") == {
        "core.validate", "grouptables.validate_group"}


def test_quotients_are_built_in_one_place():
    # the suite's quotients pass core.quotient's congruence check; only
    # the row-equality chain, a congruence by construction, skips it
    assert _functions_calling("_quotient_table") == {
        "core.quotient", "congruence.l_chain"}


def test_one_engel_bracket_loop():
    assert _functions_calling("engel_bracket") == {"grouptables.is_n_engel_subset"}


def test_one_engel_bracket_scan():
    # the 2-Engel verdict reads the bridge's whole-group scan at n = 2
    assert _functions_calling("is_n_engel_subset") == {"classify.verify_suite"}


def test_one_sift():
    # membership and Schreier-Sims strip by the transversals alike
    assert _functions_calling("_sift") == {
        "permgroup.PermGroup.__contains__", "permgroup.PermGroup._extend"}


def test_gen_families_come_from_one_table():
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    family = next(action for action in commands["gen"]._actions
                  if action.dest == "family")
    assert family.choices == (
        "trivial", "dihedral", "affine", "conj", "union", "product", "builtin")


def test_orbit_partitions_are_not_recomputed():
    # gather_facts reads the Inn orbits off the orbit tree and the Trans
    # orbits off the O-chain instead of running orbits again.
    assert _functions_calling("orbits") == {
        "classify.is_connected", "congruence.o_chain",
        "core._element_invariants", "orbitseries._orbits_within"}


def test_union_find_serves_only_congruences():
    # orbits search generator images; a union per (generator, point) edge
    # must not come back into the orbit kernel
    assert _functions_calling("union_find") == {
        "congruence.join", "congruence.congruence_generated"}


def test_only_the_suite_scans_for_connected_subquandles():
    # the suite's per-table stage, run once per distinct table
    assert _functions_calling("is_ncs") == {"classify._table_stage"}


def test_normal_closures_serve_only_commutator_terms():
    # [Inn, Inn] is a plain closure over T' (classify._groups), not a
    # normal closure
    assert _functions_calling("normal_closure") == {
        "permgroup._commutator_term", "permgroup.derived_subgroup"}
