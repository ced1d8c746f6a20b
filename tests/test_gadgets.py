import itertools
import random

import pytest

import epquery as q
from helpers import (
    all_two_vertex_digraphs,
    clique_digraph,
    cnf_satisfiable,
    cycle_digraph,
    digraph,
    random_cnf,
    random_labelled_digraph,
)


def _labelled(n, universe, edges, labels):
    relations = {"E": set(edges)}
    for i in range(1, n + 1):
        relations[f"L{i}"] = {(v,) for v in labels.get(i, ())}
    return q.Structure(q.labelled_signature(n), tuple(universe), relations)


def test_gadget_star_single_labelled_element():
    b = _labelled(1, ["b"], set(), {1: ["b"]})
    star = q.gadget_star(b)
    # universe 2n+4 plus two per held label; edge count 5n+4 with all labels
    assert len(star.universe) == 8
    assert len(star.relations["E"]) == 9
    assert q.validate(star) == []


def test_gadget_star_unlabelled_element_sigma2():
    b = _labelled(2, ["b"], set(), {})
    star = q.gadget_star(b)
    assert len(star.universe) == 2 * 2 + 4
    assert "b^u1" not in star.universe and "b^v2" not in star.universe


def test_gadget_star_cross_edges():
    b = _labelled(1, ["x", "y"], {("x", "y")}, {})
    star = q.gadget_star(b)
    cross = {t for t in star.relations["E"] if t[0].endswith("^t") and t[1].endswith("^s")}
    assert cross == {("x^t", "y^s")}


def test_gadget_star_is_loop_free():
    rng = random.Random(97)
    for _ in range(20):
        b = random_labelled_digraph(rng, 2, 3)
        star = q.gadget_star(b)
        assert all(x != y for x, y in star.relations["E"])


def test_gadget_star_spine_outdegrees():
    rng = random.Random(101)
    for _ in range(10):
        b = random_labelled_digraph(rng, 2, 3)
        star = q.gadget_star(b)
        out = {}
        for x, y in star.relations["E"]:
            # ignore edges between different elements' gadgets
            if x.rsplit("^", 1)[0] == y.rsplit("^", 1)[0]:
                out[x] = out.get(x, 0) + 1
        for elem in b.universe:
            spine = [f"{elem}^d"]
            for i in range(1, 3):
                spine += [f"{elem}^s{i}", f"{elem}^t{i}"]
            for vertex in spine:  # every spine vertex before the final sink
                assert out.get(vertex, 0) == 1


def test_gadget_star_no_two_step_return_to_spine_source():
    rng = random.Random(103)
    for _ in range(10):
        b = random_labelled_digraph(rng, 2, 3)
        star = q.gadget_star(b)
        edges = star.relations["E"]
        successors = {}
        for x, y in edges:
            successors.setdefault(x, set()).add(y)
        for vertex in star.universe:
            if "^s" in vertex and vertex.rsplit("^", 1)[1].startswith("s") and len(vertex.rsplit("^", 1)[1]) > 1:
                for mid in successors.get(vertex, ()):
                    assert vertex not in successors.get(mid, ())


def test_gadget_plus_examples():
    single = _labelled(1, ["b"], set(), {})
    plus = q.gadget_plus(single)
    assert plus.universe == ("b^s", "b^t")
    assert plus.relations["E"] == {("b^s", "b^t")}

    loop = _labelled(1, ["b"], {("b", "b")}, {})
    plus = q.gadget_plus(loop)
    assert plus.relations["E"] == {("b^s", "b^t"), ("b^t", "b^s")}

    rng = random.Random(107)
    for _ in range(10):
        b = random_labelled_digraph(rng, 2, 3)
        assert len(q.gadget_plus(b).universe) == 2 * len(b.universe)


def test_cycle_all_labels():
    c = q.cycle_all_labels(3)
    assert len(c.universe) == 3
    assert len(c.relations["E"]) == 3
    assert sum(len(c.relations[f"L{i}"]) for i in (1, 2, 3)) == 9
    outdeg = {v: 0 for v in c.universe}
    indeg = {v: 0 for v in c.universe}
    for x, y in c.relations["E"]:
        outdeg[x] += 1
        indeg[y] += 1
    assert set(outdeg.values()) == {1} and set(indeg.values()) == {1}
    with pytest.raises(q.EpqError):
        q.cycle_all_labels(1)


def test_unique_label_digraph():
    g = digraph(["x", "y", "z"], {("x", "y")})
    lifted = q.unique_label_digraph(g)
    assert q.labelled_rank(lifted.signature) == 3
    labels = [lifted.relations[f"L{i}"] for i in (1, 2, 3)]
    assert all(len(label) == 1 for label in labels)
    carried = {t[0] for label in labels for t in label}
    assert carried == set(g.universe)
    with pytest.raises(q.EpqError):
        q.unique_label_digraph(digraph(["x"], set()))


def test_hamiltonian_sentence_shape():
    h2 = q.hamiltonian_sentence(2)
    info = q.classify(h2)
    assert info.variables == 20  # two gadgets of ten elements each
    assert info.fragment == "EP"

    node = h2
    while isinstance(node, q.Exists):
        node = node.child
    picks = [c for c in node.children if isinstance(c, q.Or)]
    assert len(picks) == 2
    for i, pick in enumerate(picks, start=1):
        expected = q.disj(
            [
                q.Atom(
                    "E",
                    (q.query_variable(f"v{i}^t"), q.query_variable(f"v{j}^s")),
                )
                for j in (1, 2)
            ]
        )
        assert pick == expected


def test_hamiltonian_sentence_ep6_shape_and_agreement():
    ep6 = q.hamiltonian_sentence_ep6(2)
    assert isinstance(ep6, q.Or) and len(ep6.children) == 4  # one disjunct per map
    assert q.classify(ep6).variables <= 6
    h2 = q.hamiltonian_sentence(2)
    for g in all_two_vertex_digraphs():
        instance = q.reduce_hamiltonian(g)
        assert q.eval_dnf_hom(h2, instance.structure) == q.eval_kvar(
            ep6, instance.structure, 6
        )
    with pytest.raises(q.LimitExceeded):
        q.hamiltonian_sentence_ep6(5)


def test_enumeration_guards_are_constants():
    with pytest.raises(q.LimitExceeded, match="^successor-map enumeration bound: limit of 4 exceeded$"):
        q.hamiltonian_sentence_ep6(5)
    with pytest.raises(q.LimitExceeded, match="^vertex orderings: limit of 8 exceeded$"):
        q.brute_force_hamiltonian(cycle_digraph(9))
    assert q.brute_force_hamiltonian(cycle_digraph(8))


def test_hamiltonian_sentence_ep6_three_vertices():
    ep6 = q.hamiltonian_sentence_ep6(3)
    assert q.classify(ep6).variables <= 6
    assert len(ep6.children) == 27
    for edges, expected in (
        ({("a", "b"), ("b", "c"), ("c", "a")}, True),
        ({("a", "b"), ("b", "c")}, False),
    ):
        g = digraph(("a", "b", "c"), edges)
        instance = q.reduce_hamiltonian(g)
        assert q.eval_kvar(ep6, instance.structure, 6) == expected


def test_reduce_sat_zero_clause_formula_is_satisfiable():
    cnf = q.CnfFormula(2, ())
    for mode, arity in (("two-symbols", 2), ("single-symbol", 2), ("unary", 2)):
        instance = q.reduce_sat(cnf, mode=mode, arity=arity)
        assert q.eval_naive(instance.sentence, instance.structure)


def test_reduce_hamiltonian_three_vertex_cases():
    complete = clique_digraph(3)
    instance = q.reduce_hamiltonian(complete)
    assert q.brute_force_hamiltonian(complete)
    assert q.eval_dnf_hom(instance.sentence, instance.structure)

    edgeless = digraph(["a", "b", "c"], set())
    instance = q.reduce_hamiltonian(edgeless)
    assert not q.brute_force_hamiltonian(edgeless)
    assert not q.eval_dnf_hom(instance.sentence, instance.structure)


def test_reduce_hamiltonian_two_cycle():
    two = cycle_digraph(2)
    instance = q.reduce_hamiltonian(two)
    assert q.brute_force_hamiltonian(two)
    assert q.eval_dnf_hom(instance.sentence, instance.structure)


@pytest.mark.time_limit(60)
def test_pp_reduction_agrees_with_dnf_hom_on_the_four_vertex_reductions():
    # The 4-path a0 -> a1 -> a2 -> a3 with a loop at a3 has no Hamiltonian
    # circuit, and with the edge a3 -> a0 instead it is one.  pp-reduction
    # normalizes H_4 (256 members) and searches each member in turn.
    names = ["a0", "a1", "a2", "a3"]
    path = {("a0", "a1"), ("a1", "a2"), ("a2", "a3")}
    for last, expected in ((("a3", "a3"), False), (("a3", "a0"), True)):
        g = digraph(names, path | {last})
        instance = q.reduce_hamiltonian(g)
        assert q.brute_force_hamiltonian(g) is expected
        for strategy in ("dnf-hom", "pp-reduction"):
            assert q.evaluate(instance.sentence, instance.structure, strategy) is expected


def test_reduce_hamiltonian_lifted_arity():
    for g, expected in ((cycle_digraph(2), True), (digraph(["a", "b"], set()), False)):
        instance = q.reduce_hamiltonian(g, lift_arity=3)
        assert set(instance.structure.signature.names) == {"F"}
        assert instance.structure.signature.arity("F") == 3
        assert q.eval_dnf_hom(instance.sentence, instance.structure) == expected


def test_brute_force_hamiltonian_examples():
    assert q.brute_force_hamiltonian(cycle_digraph(3))
    assert not q.brute_force_hamiltonian(digraph(["a", "b", "c"], set()))
    two_plus_two = digraph(
        ["a", "b", "c", "d"],
        {("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")},
    )
    assert not q.brute_force_hamiltonian(two_plus_two)
    with pytest.raises(q.LimitExceeded):
        q.brute_force_hamiltonian(digraph([f"v{i}" for i in range(9)], set()))


def test_gadget_translation_preserves_homomorphisms():
    rng = random.Random(109)
    for _ in range(40):
        a = random_labelled_digraph(rng, 2, 3, prefix="a")
        b = random_labelled_digraph(rng, 2, 3, prefix="b")
        plain = q.find_homomorphism(a, b) is not None
        encoded = (
            q.find_homomorphism(q.gadget_star(a), q.gadget_star(b)) is not None
        )
        assert plain == encoded


def test_outdeg1_decomposition_examples():
    cyc = cycle_digraph(5)
    d = q.outdeg1_decomposition(cyc)
    assert d.width() <= 2
    assert q.validate_decomposition(cyc, d)

    funnel = digraph(["a", "b", "c"], {("a", "a"), ("b", "a"), ("c", "a")})
    d = q.outdeg1_decomposition(funnel)
    assert d.width() <= 2
    assert q.validate_decomposition(funnel, d)

    loop = digraph(["a"], {("a", "a")})
    d = q.outdeg1_decomposition(loop)
    assert d.width() == 0
    assert q.validate_decomposition(loop, d)

    with pytest.raises(q.EpqError):
        q.outdeg1_decomposition(digraph(["a", "b"], {("a", "b")}))


def test_outdeg1_decomposition_every_vertex_in_a_bag():
    rng = random.Random(113)
    graphs = []
    for _ in range(20):
        n = rng.randint(1, 6)
        universe = [f"n{i}" for i in range(n)]
        graphs.append(digraph(universe, {(v, rng.choice(universe)) for v in universe}))
    # and every digraph with outdegree 1 on at most five vertices
    for n in range(1, 6):
        universe = [f"n{i}" for i in range(n)]
        for image in itertools.product(universe, repeat=n):
            graphs.append(digraph(universe, zip(universe, image)))
    for g in graphs:
        d = q.outdeg1_decomposition(g)
        assert q.validate_decomposition(g, d)
        covered = set().union(*d.bags.values())
        assert covered == set(g.universe)
        assert d.width() <= 2


def test_star_decomposition_bag_listing():
    b = _labelled(2, ["b"], set(), {1: ["b"], 2: ["b"]})
    _, base = q.treewidth_upper(q.gadget_plus(b))
    lifted = q.star_decomposition(b, base)
    added = [n for n in lifted.nodes if n.startswith("g")]
    bags = [lifted.bags[n] for n in added]
    assert bags[0] == frozenset({"b^s", "b^t", "b^c", "b^d"})
    assert bags[1] == frozenset({"b^s", "b^t", "b^d", "b^s1"})
    assert bags[2] == frozenset({"b^s", "b^t", "b^s1", "b^t1", "b^u1", "b^v1"})
    assert max(len(bag) for bag in bags) == 6
    assert q.validate_decomposition(q.gadget_star(b), lifted)
    assert lifted.width() <= 5


def test_star_decomposition_validates_on_random_inputs():
    rng = random.Random(127)
    for _ in range(15):
        b = random_labelled_digraph(rng, 2, 4)
        _, base = q.treewidth_upper(q.gadget_plus(b))
        lifted = q.star_decomposition(b, base)
        assert q.validate_decomposition(q.gadget_star(b), lifted)
        assert lifted.width() <= max(base.width(), 5)


def test_star_decomposition_rejects_invalid_base():
    b = _labelled(1, ["b"], set(), {})
    bogus = q.TreeDecomposition(("n0",), (), {"n0": frozenset({"b^s"})})
    with pytest.raises(q.EpqError):
        q.star_decomposition(b, bogus)


def test_successor_pattern_chain_n2():
    for f in itertools.product((1, 2), repeat=2):
        pattern = q.successor_pattern(2, f)
        plus = q.gadget_plus(pattern)
        narrow = q.outdeg1_decomposition(plus)
        assert narrow.width() <= 2
        assert q.validate_decomposition(plus, narrow)
        wide = q.star_decomposition(pattern, narrow)
        star = q.gadget_star(pattern)
        assert q.validate_decomposition(star, wide)
        assert wide.width() <= 5
        sentence = q.pp_from_decomposition(star, wide, 6)
        assert q.classify(sentence).variables <= 6


def test_cnf_formula_validation():
    with pytest.raises(q.EpqError):
        q.CnfFormula(0, ())
    with pytest.raises(q.EpqError):
        q.CnfFormula(2, (frozenset(),))
    with pytest.raises(q.EpqError):
        q.CnfFormula(2, (frozenset({3}),))


def test_parse_dimacs():
    text = """c tiny instance
p cnf 2 2
1 -2 0
-1 0
"""
    cnf = q.parse_dimacs(text)
    assert cnf.variables == 2
    assert cnf.clauses == (frozenset({1, -2}), frozenset({-1}))
    with pytest.raises(q.ParseError):
        q.parse_dimacs("1 0")
    with pytest.raises(q.ParseError):
        q.parse_dimacs("p cnf 1 2\n1 0")


def test_reduce_sat_contradiction_false_in_all_modes():
    cnf = q.CnfFormula(1, (frozenset({1}), frozenset({-1})))
    assert not cnf_satisfiable(cnf)
    for mode, arity in (("two-symbols", 2), ("single-symbol", 2), ("unary", 2)):
        instance = q.reduce_sat(cnf, mode=mode, arity=arity)
        assert not q.eval_naive(instance.sentence, instance.structure)


def test_reduce_sat_two_symbols_clause_shape():
    cnf = q.CnfFormula(4, (frozenset({1, -2, 4}),))
    instance = q.reduce_sat(cnf, mode="two-symbols", arity=2)
    node = instance.sentence
    depth = 0
    while isinstance(node, q.Exists):
        node = node.child
        depth += 1
    assert depth == 4
    assert node == q.disj(
        [
            q.Atom("T", ("v1", "v1")),
            q.Atom("F", ("v2", "v2")),
            q.Atom("T", ("v4", "v4")),
        ]
    )
    assert instance.structure.relations["T"] == {("1", "1")}
    assert instance.structure.relations["F"] == {("0", "0")}
    assert cnf_satisfiable(cnf)
    assert q.eval_naive(instance.sentence, instance.structure)


def test_reduce_sat_matches_satisfiability_oracle():
    rng = random.Random(131)
    for _ in range(40):
        cnf = random_cnf(rng)
        expected = cnf_satisfiable(cnf)
        for mode, arity in (("two-symbols", 2), ("single-symbol", 3), ("unary", 2)):
            instance = q.reduce_sat(cnf, mode=mode, arity=arity)
            assert q.eval_naive(instance.sentence, instance.structure) == expected
            assert q.eval_dnf_hom(instance.sentence, instance.structure) == expected


def test_reduce_sat_two_symbols_disjuncts_are_one_variable():
    rng = random.Random(137)
    for _ in range(10):
        cnf = random_cnf(rng)
        instance = q.reduce_sat(cnf, mode="two-symbols", arity=2)
        for disjunct in q.m_normalize(instance.sentence):
            assert q.decide_ppk(disjunct, 1)


def test_reduce_sat_single_symbol_disjuncts_are_two_variable():
    rng = random.Random(139)
    for _ in range(10):
        cnf = random_cnf(rng)
        instance = q.reduce_sat(cnf, mode="single-symbol", arity=3)
        for disjunct in q.m_normalize(instance.sentence):
            assert q.decide_ppk(disjunct, 2)


def test_reduce_sat_rejects_bad_modes():
    cnf = q.CnfFormula(1, (frozenset({1}),))
    with pytest.raises(q.EpqError):
        q.reduce_sat(cnf, mode="single-symbol", arity=1)
    with pytest.raises(q.EpqError):
        q.reduce_sat(cnf, mode="nonsense")
