"""Property tests: printing and parsing round trips, parser failure modes,
and agreement between evaluation strategies on random sentences."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import epquery as q

SETTINGS = dict(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = ("x", "y", "z")
SIG = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("E", 2)])

names = st.sampled_from(NAMES)
atoms = st.one_of(
    st.builds(lambda v: q.Atom("P", (v,)), names),
    st.builds(lambda v, w: q.Atom("E", (v, w)), names, names),
    st.builds(q.Equality, names, names),
)


def _ep_nodes(inner):
    return st.one_of(
        st.builds(q.Exists, names, inner),
        st.lists(inner, min_size=2, max_size=3).map(q.conj),
        st.lists(inner, min_size=2, max_size=3).map(q.disj),
    )


def _fo_nodes(inner):
    return st.one_of(
        _ep_nodes(inner), st.builds(q.Forall, names, inner), st.builds(q.Not, inner)
    )


def _closed(f):
    for v in sorted(q.free_variables(f)):
        f = q.Exists(v, f)
    return f


fo_formulas = st.recursive(atoms, _fo_nodes, max_leaves=12)
ep_sentences = st.recursive(atoms, _ep_nodes, max_leaves=8).map(_closed)

# Wrappers for deep nests; conj and disj flatten a nested node of their own
# kind, so every nest stays in the canonical form that parsing produces.
WRAPPERS = (
    lambda f, v: q.Exists(v, f),
    lambda f, v: q.Forall(v, f),
    lambda f, v: q.Not(f),
    lambda f, v: q.conj([f, q.Atom("P", (v,))]),
    lambda f, v: q.disj([q.Equality(v, v), f]),
)


@st.composite
def deep_formulas(draw):
    f = draw(fo_formulas)
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(draw(st.integers(1000, 1500))):
        f = rng.choice(WRAPPERS)(f, rng.choice(NAMES))
    return f


@settings(max_examples=200, **SETTINGS)
@given(fo_formulas)
def test_render_parse_round_trip(f):
    assert q.parse_formula(q.render(f)) == f


@settings(max_examples=10, **SETTINGS)
@given(deep_formulas())
def test_render_parse_round_trip_deep(f):
    assert q.parse_formula(q.render(f)) == f


TOKENS = ("exists", "forall", "not", "x", "y", "P", "E", "(", ")", ",", ".", "=", "&", "|",
          " ", "\n", "#", "$", "1a", "'")


@settings(max_examples=300, **SETTINGS)
@given(st.lists(st.sampled_from(TOKENS), max_size=30), st.booleans())
def test_token_strings_fail_only_with_parse_error(tokens, with_signature):
    text = "".join(tokens)
    try:
        f = q.parse_formula(text, SIG if with_signature else None)
    except q.ParseError:
        return
    assert q.parse_formula(q.render(f)) == f


@settings(max_examples=20, **SETTINGS)
@given(st.integers(1, 3000), st.integers(-1, 1), st.sampled_from(("P(x)", "", "not")))
def test_deep_brackets_fail_only_with_parse_error(depth, extra, core):
    text = "(" * depth + core + ")" * (depth + extra)
    if extra == 0 and core == "P(x)":
        assert q.parse_formula(text) == q.Atom("P", ("x",))
    else:
        with pytest.raises(q.ParseError):
            q.parse_formula(text)


@st.composite
def small_structures(draw):
    universe = tuple(f"e{i}" for i in range(draw(st.integers(1, 3))))
    edges = draw(st.sets(st.sampled_from([(a, b) for a in universe for b in universe])))
    marked = draw(st.sets(st.sampled_from(universe)))
    return q.Structure(SIG, universe, {"E": edges, "P": {(v,) for v in marked}})


@settings(max_examples=150, **SETTINGS)
@given(ep_sentences, small_structures())
def test_strategies_agree_with_naive(phi, b):
    expected = q.eval_naive(phi, b)
    assert q.eval_kvar(phi, b, q.classify(phi).variables) == expected
    assert q.eval_dnf_hom(phi, b) == expected


ELEMENTS = ("a", "b", "c", "e1", "e2", "x_3")
SYMBOLS = st.sampled_from(
    [q.RelationSymbol("P", 1), q.RelationSymbol("E", 2), q.RelationSymbol("T", 3)]
)


@st.composite
def structures(draw):
    signature = q.Signature(draw(st.lists(SYMBOLS, min_size=1, max_size=3, unique=True)))
    universe = tuple(sorted(draw(st.sets(st.sampled_from(ELEMENTS), min_size=1))))
    relations = {
        sym.name: draw(st.sets(st.tuples(*[st.sampled_from(universe)] * sym.arity), max_size=6))
        for sym in signature
    }
    return q.Structure(signature, universe, relations)


@settings(max_examples=100, **SETTINGS)
@given(structures())
def test_structure_text_round_trip(s):
    text = q.format_structure(s)
    assert q.parse_structure(text) == s
    assert q.format_structure(q.parse_structure(text)) == text


@st.composite
def block_relations(draw):
    arity = draw(st.integers(1, 3))
    universe = tuple(draw(st.permutations(ELEMENTS))[: draw(st.integers(0, len(ELEMENTS)))])
    coordinates = st.frozensets(st.sampled_from(universe)) if universe else st.just(frozenset())
    blocks = draw(st.lists(st.tuples(*[coordinates] * arity), max_size=4))
    return q.GdnfRelation(arity, universe, tuple(blocks))


@settings(max_examples=100, **SETTINGS)
@given(block_relations())
def test_gdnf_text_round_trip(g):
    text = q.format_gdnf(g)
    assert q.parse_gdnf(text) == g
    assert q.format_gdnf(q.parse_gdnf(text)) == text


@st.composite
def decompositions(draw):
    # a random tree: node i > 0 hangs from an earlier node
    nodes = tuple(f"t{i}" for i in range(draw(st.integers(1, 6))))
    edges = tuple((nodes[i], nodes[draw(st.integers(0, i - 1))]) for i in range(1, len(nodes)))
    bag = st.frozensets(st.sampled_from(ELEMENTS), min_size=1)
    return q.TreeDecomposition(nodes, edges, {node: draw(bag) for node in nodes})


@settings(max_examples=100, **SETTINGS)
@given(decompositions())
def test_decomposition_text_round_trip(d):
    text = q.format_decomposition(d)
    again = q.parse_decomposition(text)
    assert sorted(again.nodes) == sorted(d.nodes)
    assert again.bags == d.bags
    assert {frozenset(e) for e in again.edges} == {frozenset(e) for e in d.edges}
    assert q.format_decomposition(again) == text
