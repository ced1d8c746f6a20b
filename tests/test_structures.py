import random
import time

import pytest

import epquery as q
from helpers import (
    E2,
    UNION_SIG,
    brute_iso_exists,
    cycle_digraph,
    digraph,
    random_structure,
)


def test_signature_rejects_duplicate_names():
    with pytest.raises(q.EpqError):
        q.Signature([q.RelationSymbol("E", 2), q.RelationSymbol("E", 1)])


def test_signature_rejects_zero_arity():
    with pytest.raises(q.EpqError):
        q.Signature([q.RelationSymbol("P", 0)])


def test_validate_well_formed_loop():
    loop = digraph(["a"], {("a", "a")})
    assert q.validate(loop) == []


def test_validate_empty_universe():
    s = q.Structure(E2, (), {})
    assert any("empty universe" in p for p in q.validate(s))


def test_validate_arity_violation():
    s = q.Structure(E2, ("a",), {"E": {("a", "a", "a")}})
    assert any("arity" in p for p in q.validate(s))


def test_validate_unknown_symbol_and_stray_element():
    s = q.Structure(E2, ("a",), {"F": {("a",)}, "E": {("a", "b")}})
    report = q.validate(s)
    assert any("'F'" in p for p in report)
    assert any("'b'" in p for p in report)


def test_product_edge_times_loop():
    a = digraph(["a1", "a2"], {("a1", "a2")})
    b = digraph(["b1"], {("b1", "b1")})
    p = q.product(a, b)
    assert p.universe == ("a1|b1", "a2|b1")
    assert p.relations["E"] == {("a1|b1", "a2|b1")}


def test_product_universe_size_multiplies():
    rng = random.Random(11)
    for _ in range(20):
        a = random_structure(rng, E2, 3)
        b = random_structure(rng, E2, 3)
        assert len(q.product(a, b).universe) == len(a.universe) * len(b.universe)


def test_product_c2_c3_edge_count():
    c2, c3 = cycle_digraph(2, "x"), cycle_digraph(3, "y")
    # oracle: count pairs of edges agreeing componentwise
    expected = {
        (q.pair_token(e1[0], e2[0]), q.pair_token(e1[1], e2[1]))
        for e1 in c2.relations["E"]
        for e2 in c3.relations["E"]
    }
    assert len(expected) == 6
    assert q.product(c2, c3).relations["E"] == expected


def test_product_requires_similar():
    a = digraph(["a"], set())
    b = q.Structure(q.Signature([q.RelationSymbol("F", 1)]), ("a",), {})
    with pytest.raises(q.SignatureMismatch):
        q.product(a, b)


def test_induced_substructure_examples():
    loop = digraph(["a"], {("a", "a")})
    assert q.induced_substructure(loop, {"a"}) == loop

    edge = digraph(["a", "b"], {("a", "b")})
    only_a = q.induced_substructure(edge, {"a"})
    assert only_a.universe == ("a",)
    assert only_a.relations["E"] == frozenset()

    tail = digraph(["a", "b"], {("a", "b"), ("b", "b")})
    just_b = q.induced_substructure(tail, {"b"})
    assert just_b.universe == ("b",)
    assert just_b.relations["E"] == {("b", "b")}


def test_induced_substructure_rejects_bad_subsets():
    edge = digraph(["a", "b"], {("a", "b")})
    with pytest.raises(q.EpqError):
        q.induced_substructure(edge, set())
    with pytest.raises(q.EpqError):
        q.induced_substructure(edge, {"z"})


def test_isomorphic_self_and_trivial_negative():
    tri = cycle_digraph(3)
    assert q.isomorphic(tri, tri)
    loop = digraph(["a"], {("a", "a")})
    free = digraph(["a"], set())
    assert not q.isomorphic(loop, free)


def test_isomorphic_relabelled_cycle_matches_oracle():
    tri = cycle_digraph(3, "u")
    relabelled = digraph(["z2", "z0", "z1"], {("z2", "z0"), ("z0", "z1"), ("z1", "z2")})
    assert brute_iso_exists(tri, relabelled)
    assert q.isomorphic(tri, relabelled)


def _relabelled(rng, s):
    """A copy of ``s`` under a random bijection onto fresh element names."""
    names = [f"r{i}" for i in range(len(s.universe))]
    rng.shuffle(names)
    rename = dict(zip(s.universe, names))
    relations = {name: {tuple(rename[x] for x in t) for t in rows}
                 for name, rows in s.relations.items()}
    return q.Structure(s.signature, tuple(sorted(names)), relations)


def test_isomorphic_agrees_with_oracle_on_random_pairs():
    rng = random.Random(5)
    for _ in range(60):
        a = random_structure(rng, E2, 3)
        b = random_structure(rng, E2, 3)
        assert q.isomorphic(a, b) == brute_iso_exists(a, b)
    # two independent draws are seldom isomorphic; a relabelled copy always is
    for signature, density in ((E2, 0.4), (UNION_SIG, 0.2)):
        for _ in range(40):
            a = random_structure(rng, signature, 5, density)
            twin = _relabelled(rng, a)
            assert q.isomorphic(a, twin) and brute_iso_exists(a, twin)
            b = random_structure(rng, signature, 5, density)
            assert q.isomorphic(a, b) == brute_iso_exists(a, b)
    empty = q.Structure(UNION_SIG, (), {})
    assert q.isomorphic(empty, empty) and brute_iso_exists(empty, empty)


def test_isomorphic_limit():
    big = digraph([f"v{i}" for i in range(13)], set())
    with pytest.raises(q.LimitExceeded):
        q.isomorphic(big, big)


def test_product_symmetry_up_to_isomorphism():
    rng = random.Random(7)
    for _ in range(25):
        a = random_structure(rng, E2, 3)
        b = random_structure(rng, E2, 3)
        assert q.isomorphic(q.product(a, b), q.product(b, a))


def test_product_of_valid_structures_validates():
    rng = random.Random(9)
    for _ in range(25):
        a = random_structure(rng, E2, 3)
        b = random_structure(rng, E2, 3)
        assert q.validate(a) == [] and q.validate(b) == []
        assert q.validate(q.product(a, b)) == []


def test_homomorphism_pairing_property():
    # maps into both factors exist exactly when a map into the product does
    rng = random.Random(13)
    for _ in range(60):
        a = random_structure(rng, E2, 3)
        b = random_structure(rng, E2, 3)
        b2 = random_structure(rng, E2, 3)
        into_both = (
            q.find_homomorphism(a, b) is not None
            and q.find_homomorphism(a, b2) is not None
        )
        into_product = q.find_homomorphism(a, q.product(b, b2)) is not None
        assert into_both == into_product


def test_pair_token_is_injective_on_nested_products():
    assert q.pair_token("a", "b|c") != q.pair_token("a|b", "c")
    assert q.pair_token("a\\", "b") != q.pair_token("a", "\\b")


def test_structure_file_round_trip():
    text = """
    # a two-element structure
    signature E/2 P/1
    universe b a
    tuple E a b
    tuple P b
    """
    s = q.parse_structure(text)
    assert s.universe == ("b", "a")
    assert s.relations["E"] == {("a", "b")}
    out = q.format_structure(s)
    again = q.parse_structure(out)
    assert again.signature == s.signature
    assert set(again.universe) == set(s.universe)
    assert again.relations == s.relations
    assert q.format_structure(again) == out


def test_parse_structure_errors():
    with pytest.raises(q.ParseError):
        q.parse_structure("universe a b")
    with pytest.raises(q.ParseError):
        q.parse_structure("signature E/2\nuniverse a\ntuple F a")
    with pytest.raises(q.ParseError):
        q.parse_structure("signature E/2\nuniverse a\ntuple E a")
    with pytest.raises(q.ParseError):
        q.parse_structure("signature E/2\nuniverse a\ntuple E a z")


def test_parse_structure_time_is_linear():
    # Each tuple entry is looked up in constant time: 20,000 elements and
    # 40,000 tuples parse in about 0.2 s on a 2-core host, where a scan of
    # the universe list per entry took about 15 s.
    rng = random.Random(5)
    n = 20_000
    lines = ["signature E/2 P/1", "universe " + " ".join(f"e{i}" for i in range(n))]
    lines += [f"tuple E e{rng.randrange(n)} e{rng.randrange(n)}" for _ in range(40_000)]
    start = time.perf_counter()
    s = q.parse_structure("\n".join(lines))
    assert time.perf_counter() - start < 3.0
    assert len(s.universe) == n and len(s.relations["E"]) > 39_000


def test_labelled_signature_round_trip():
    sig = q.labelled_signature(3)
    assert q.labelled_rank(sig) == 3
    assert q.labelled_rank(q.digraph_signature()) == 0
    with pytest.raises(q.EpqError):
        q.labelled_rank(q.Signature([q.RelationSymbol("E", 2), q.RelationSymbol("L2", 1)]))
