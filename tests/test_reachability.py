"""Which top-level definitions of `src/pptlab` no command line route reaches.

Reachability is by name over the AST: the roots are `cli.main` and every
module-level statement that is not a definition; a reached definition
reaches every top-level function or class, in any module, whose name it
mentions as a name or an attribute.  Strings (`__all__`, dict keys) and
imports reach nothing.  The set left over is pinned, each entry to the
ROADMAP direction that will wire or move it: 5 wires the separable route,
7 the witness and the bound, and 4, the benchmark change, unpins the
oracles that `perfbench/spans.WRAPPED` wraps by name, so that they can
move into the tests.  New dead code fails this test, and so does a
definition that gets wired or moved without leaving the list.

A second test keeps `certify` and `cli` to `segre`'s public names, a
third keeps the report format in `cli`: `segre` and `certify` return
result objects, and only `cli` (reports) and `qstate` (state files) encode
complex numbers.  A fourth keeps every search in `segre`: `certify`
decides from the results it is given.  A fifth keeps the package numpy
only: no module imports scipy.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pptlab"

UNREACHED = {
    "certify.SeparableDecomposition": 5,
    "certify._schur_basis": 5,
    "certify.rank_n_separable_decomposition": 5,
    "qstate.factor_blocks": 5,
    "segre.classify_separable_good": 5,
    "certify._pencil_eigvalsh": 7,
    "certify.necessary_bound": 7,
    "certify.witness_decomposition": 7,
    # pinned in src by perfbench/spans.WRAPPED, which wraps them by name
    "segre.find_line_subspaces": 4,
    "segre.minor_system_roots": 4,
    "segre.transversal": 4,
}


def unreached_definitions() -> set:
    defs, todo = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[f"{path.stem}.{node.name}"] = node
            else:
                todo.append(node)
    todo.append(defs["cli.main"])
    reached = set()
    while todo:
        used = {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(todo.pop()) if isinstance(n, (ast.Name, ast.Attribute))}
        for key, node in defs.items():
            if key not in reached and key.split(".")[1] in used:
                reached.add(key)
                todo.append(node)
    return set(defs) - reached


def test_unreached_definitions_are_the_pinned_ones():
    assert unreached_definitions() == set(UNREACHED)


def test_certify_uses_no_private_segre_name():
    # cli too: it reads segre as a module, certify imports names from it
    for module in ("certify", "cli"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("segre")
                    for alias in node.names]
        read = [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "segre"]
        assert imported + read, f"{module} uses nothing from segre: the check reads the wrong node"
        assert not [name for name in imported + read if name.startswith("_")], module


def test_certify_runs_no_search():
    # each of these runs a product-vector enumeration; certify names none
    tree = ast.parse((SRC / "certify.py").read_text())
    named = {node.id if isinstance(node, ast.Name) else
             node.attr if isinstance(node, ast.Attribute) else node.name
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert "edge_pair_search" in named, "the check reads the wrong nodes"
    assert not named & {"enumerate_product_vectors", "ces_certificate", "classify_goodness"}


def test_only_cli_writes_reports():
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem in ("segre", "certify"):
            assert not [node.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef) and node.name == "to_json"], path.stem
        if any(isinstance(node, ast.Call) and "complex_pairs" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(tree)):
            callers.add(path.stem)
    assert callers == {"cli", "qstate"}


def test_no_module_imports_scipy():
    # a docstring or comment may name scipy; an import node may not
    imported = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                             else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])]
    assert ("segre", "numpy") in imported, "the check reads the wrong nodes"
    assert [pair for pair in imported if pair[1].split(".")[0] == "scipy"] == []
