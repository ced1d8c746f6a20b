"""Properties of the package as a whole: formula walkers leave no reference
cycles behind, no function recurses, and the formula module imports nothing
above the structures."""

import ast
import gc
import pathlib

import pytest

import epquery as q
from helpers import FALLBACK, digraph

SRC = pathlib.Path(q.__file__).parent

B = digraph(["a", "b", "c"], {("a", "b"), ("b", "c"), ("c", "a")})
TEXT = "exists x . exists y . (E(x,y) & (exists z . (E(y,z) | x = z)) & (exists x . E(y,x)))"
PHI = q.parse_formula(TEXT)
# the Or of atoms stays one union constraint in eval_dnf_hom's search
UNIONS = q.parse_formula("exists x . exists y . exists z . (E(x,y) & (E(y,z) | E(z,x) | E(z,z)))")
# the second Or is filtered through the relation of the first in eval_kvar
COVERED = q.parse_formula("exists x . exists y . ((P(x) | E(x,y)) & (E(y,x) | P(y)))")
B_P = q.Structure(q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("E", 2)]),
                  ("a", "b", "c"), {"P": {("a",)}, "E": {("a", "b"), ("b", "c")}})
# unary mode leaves most slots of a clause empty, and each quantifier moves
# below the clauses without its variable
SAT = q.reduce_sat(q.CnfFormula(4, (frozenset({1, -2, 3}), frozenset({-1, 2, 4}),
                                    frozenset({2, 3, -4}))), "unary")
PP = q.parse_formula("exists x . exists y . exists z . (E(x,y) & E(y,z) & x = z)")
PP_STRUCT = q.structure_of_pp(PP)

CALLS = {
    "eval_naive": lambda: q.eval_naive(PHI, B),
    "eval_naive_specialized": lambda: q.eval_naive(SAT.sentence, SAT.structure),
    "eval_kvar": lambda: q.eval_kvar(PHI, B, 3),
    "eval_kvar_covered_or": lambda: q.eval_kvar(COVERED, B_P, 2),
    "eval_dnf_hom": lambda: q.eval_dnf_hom(PHI, B),
    "eval_dnf_hom_unions": lambda: q.eval_dnf_hom(UNIONS, B),
    "structure_of_pp": lambda: q.structure_of_pp(PP),
    "render": lambda: q.render(PHI),
    "parse_formula": lambda: q.parse_formula(TEXT),
    "to_pp_disjunction": lambda: q.to_pp_disjunction(PHI),
    "replace_atoms": lambda: q.replace_atoms(PHI, lambda atom: atom),
    "pp_from_decomposition": lambda: q.pp_from_decomposition(
        PP_STRUCT, q.treewidth_upper(PP_STRUCT)[1], 2
    ),
    "treewidth_exact": lambda: q.treewidth_exact(FALLBACK),
    "decide_ppk": lambda: q.decide_ppk(q.canonical_query(FALLBACK), 4),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_calls_leave_no_reference_cycles(name):
    # Garbage that only the cyclic collector can free stays allocated until
    # the next collection, which raises peak memory between collections.
    CALLS[name]()  # warm: target tables are prepared and kept on first use
    gc.collect()
    gc.disable()
    try:
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()


# Recursions whose depth the function's own guard bounds: none.
BOUNDED_RECURSION = set()


def _self_calls(tree, module):
    """Qualified names of functions that call themselves by name.

    ``(yield rec(c))`` in a generator hands the child generator to
    ``formulas.walk``, which runs it on an explicit stack: that is not a
    recursive call and is not reported.
    """
    found = set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}.{child.name}"
                handed_to_walk = {
                    id(n.value) for n in ast.walk(child) if isinstance(n, ast.Yield)
                }
                for n in ast.walk(child):
                    if not isinstance(n, ast.Call) or id(n) in handed_to_walk:
                        continue
                    f = n.func
                    if isinstance(f, ast.Name) and f.id == child.name:
                        found.add(name)
                    if (isinstance(f, ast.Attribute) and f.attr == child.name
                            and isinstance(f.value, ast.Name) and f.value.id == "self"):
                        found.add(name)
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{qual}.{child.name}")
            else:
                visit(child, qual)

    visit(tree, module)
    return found


def test_no_function_recurses_outside_bounded_searches():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _self_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == BOUNDED_RECURSION


def test_self_call_lint_sees_recursion():
    tree = ast.parse(
        "def rec(f):\n    return [rec(c) for c in f]\n"
        "def gen(f):\n    for c in f:\n        yield gen(c)\n"
        "def delegating(f):\n    for c in f:\n        yield from delegating(c)\n"
        "class P:\n    def m(self):\n        return self.m()\n"
    )
    assert _self_calls(tree, "m") == {"m.rec", "m.delegating", "m.P.m"}


def test_formulas_imports_only_errors_and_structures():
    # The AST layer sits below the homomorphism engine: entailment, which
    # needs homomorphisms, lives in normalize.
    tree = ast.parse((SRC / "formulas.py").read_text(encoding="utf-8"))
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert local == {"errors", "structures"}
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(alias.name.startswith("epquery") for alias in node.names)]
