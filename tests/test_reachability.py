"""Which top-level definitions of `src/pptlab` no command line route reaches.

Reachability is by name over the AST: the roots are `cli.main` and every
module-level statement that is not a definition; a reached definition
reaches every top-level function or class, in any module, whose name it
mentions as a name or an attribute.  Strings (`__all__`, dict keys) and
imports reach nothing.  The set left over is pinned, each entry to the
ROADMAP direction that will wire or move it: 4 wires the separable route,
6 the witness and the bound, and 2 moves the test-only helpers and oracles
into the tests.  New dead code fails this test, and so does a definition
that gets wired or moved without leaving the list.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pptlab"

UNREACHED = {
    "certify.SeparableDecomposition": 4,
    "certify._schur_basis": 4,
    "certify.rank_n_separable_decomposition": 4,
    "qstate.factor_blocks": 4,
    "segre.classify_separable_good": 4,
    "certify._pencil_eigvalsh": 6,
    "certify.necessary_bound": 6,
    "certify.witness_decomposition": 6,
    "certify.find_rank1_compression": 2,
    "qstate.normalized": 2,
    "qstate.save_factor": 2,
    "segre._det_samples_to_coeffs": 2,
    "segre._poly_roots_companion": 2,
    "segre._polyeig": 2,
    "segre.find_line_subspaces": 2,
    "segre.minor_system_roots": 2,
    "segre.transversal": 2,
    "zoo.tiles_upb_3x3": 2,
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
