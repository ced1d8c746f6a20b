"""Each malformed input to a parser or a checking function raises its own
error, or gets its own refusal; a ``ParseError`` names the line at fault."""

import pytest

import epquery as q
from helpers import E2, digraph

P1 = q.Signature([q.RelationSymbol("P", 1)])
EDGE = digraph(["a", "b"], {("a", "b")})
LOOP = digraph(["c"], {("c", "c")})
EMPTY = q.Structure(E2, (), {})

# (parser, text, line, message)
PARSE_ERRORS = [
    pytest.param(q.parse_structure, "signature E2\nuniverse a\n", 1,
                 "malformed symbol 'E2'; expected NAME/ARITY", id="structure-symbol-without-arity"),
    pytest.param(q.parse_structure, "signature /2\nuniverse a\n", 1,
                 "malformed symbol '/2'; expected NAME/ARITY", id="structure-symbol-without-name"),
    pytest.param(q.parse_structure, "signature E/x\nuniverse a\n", 1,
                 "bad arity in 'E/x'", id="structure-bad-arity"),
    pytest.param(q.parse_structure, "# E twice\nsignature E/2 E/3\nuniverse a\n", 2,
                 "signature has duplicate symbol names", id="structure-duplicate-symbol"),
    pytest.param(q.parse_structure, "signature P/0\nuniverse a\n", 1,
                 "symbol 'P' has arity 0; arity must be >= 1", id="structure-zero-arity"),
    pytest.param(q.parse_structure, "signature E/2\ntuple E a a\n", 2,
                 "expected a 'universe' line after the signature", id="structure-no-universe-line"),
    pytest.param(q.parse_structure, "signature E/2\n\nuniverse   # none\n", 3,
                 "empty universe", id="structure-empty-universe"),
    pytest.param(q.parse_structure, "signature E/2\nuniverse a\ntuple\n", 3,
                 "tuple line needs a symbol name", id="structure-tuple-without-symbol"),
    pytest.param(q.parse_structure, "signature E/2\nuniverse a\nedge a a\n", 3,
                 "unexpected line starting with 'edge'", id="structure-unknown-line-head"),
    pytest.param(q.parse_structure, "", 1,
                 "structure text needs 'signature' and 'universe' lines", id="structure-empty-text"),
    pytest.param(q.parse_structure, "signature E/2\n# no universe\n", 2,
                 "structure text needs 'signature' and 'universe' lines", id="structure-no-universe"),
    pytest.param(q.parse_decomposition, "node t0\n", 1,
                 "node line needs an id and at least one element", id="decomposition-empty-bag"),
    pytest.param(q.parse_decomposition, "node t0 a\nnode t0 b\n", 2,
                 "duplicate node id 't0'", id="decomposition-duplicate-node"),
    pytest.param(q.parse_decomposition, "node t0 a\nnode t1 a\nedge t0\n", 3,
                 "edge line needs exactly two node ids", id="decomposition-short-edge"),
    pytest.param(q.parse_decomposition, "node t0 a\nbag t0 a\n", 2,
                 "unexpected line starting with 'bag'", id="decomposition-unknown-line-head"),
    pytest.param(q.parse_dimacs, "c header next\np cnf 2\n", 2,
                 "malformed problem line; expected 'p cnf N M'", id="dimacs-short-problem-line"),
    pytest.param(q.parse_dimacs, "p cnf x 2\n", 1,
                 "malformed problem line", id="dimacs-problem-line-not-numbers"),
    pytest.param(q.parse_dimacs, "p cnf 2 1\n1 y 0\n", 2,
                 "bad literal 'y'", id="dimacs-bad-literal"),
    pytest.param(q.parse_dimacs, "c only a comment\n", 1,
                 "missing problem line", id="dimacs-no-problem-line"),
]


@pytest.mark.parametrize("parse, text, line, message", PARSE_ERRORS)
def test_parse_error_names_its_line(parse, text, line, message):
    with pytest.raises(q.ParseError) as caught:
        parse(text)
    assert (caught.value.line, str(caught.value)) == (line, f"{message} (line {line})")


def test_verify_homomorphism_refuses_malformed_maps():
    good = {"a": "c", "b": "c"}
    assert q.verify_homomorphism(q.Homomorphism(EDGE, LOOP, good))
    other = q.Structure(P1, ("c",), {"P": {("c",)}})
    maps = [
        (EDGE, other, good),  # the signatures differ
        (EDGE, LOOP, {"a": "c"}),  # b has no image
        (EDGE, LOOP, {"a": "c", "b": "d"}),  # d is not in the target
    ]
    for source, target, mapping in maps:
        assert not q.verify_homomorphism(q.Homomorphism(source, target, mapping))


# (call, exception class, message)
CHECK_ERRORS = [
    pytest.param(lambda: q.find_homomorphism(EDGE, LOOP, fixed={"z": "c"}), q.EpqError,
                 "fixed element 'z' is not in the source universe", id="fixed-unknown-element"),
    pytest.param(lambda: q.find_homomorphism(EDGE, LOOP, fixed={"a": "z"}), q.EpqError,
                 "fixed value 'z' is not in the target universe", id="fixed-unknown-value"),
    pytest.param(lambda: q.isomorphic(EDGE, q.Structure(P1, ("a", "b"), {})), q.SignatureMismatch,
                 "isomorphism test needs similar structures", id="isomorphic-signatures"),
    pytest.param(lambda: q.conj([]), q.EpqError, "empty conjunction", id="empty-conj"),
    pytest.param(lambda: q.disj([]), q.EpqError, "empty disjunction", id="empty-disj"),
    pytest.param(lambda: q.canonical_query(EMPTY), q.EpqError,
                 "canonical query needs a non-empty universe", id="canonical-query-empty"),
    pytest.param(lambda: q.pp_from_decomposition(
        EDGE, q.TreeDecomposition(("t0", "t1"), (("t0", "t1"),), {"t0": {"a"}, "t1": {"b"}}), 2),
        q.EpqError, "decomposition is not valid for the structure", id="pp-invalid-decomposition"),
]


@pytest.mark.parametrize("call, cls, message", CHECK_ERRORS)
def test_check_raises_its_error(call, cls, message):
    with pytest.raises(q.EpqError) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (cls, message)


def test_core_of_an_empty_universe_is_itself():
    assert q.core(EMPTY) is EMPTY


def test_validate_decomposition_refuses_bad_node_lists():
    bag = {"t0": frozenset("ab")}
    assert q.validate_decomposition(EDGE, q.TreeDecomposition(("t0",), (), bag))
    bad = [
        q.TreeDecomposition(("t0", "t0"), (("t0", "t0"),), bag),  # a node id twice
        # an edge to an unknown node, with as many edges as a tree on the nodes
        q.TreeDecomposition(("t0", "t1"), (("t0", "t9"),), {**bag, "t1": frozenset("b")}),
    ]
    for d in bad:
        assert not q.validate_decomposition(EDGE, d)
