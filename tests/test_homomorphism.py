import collections
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import epquery as q
from epquery import homomorphism
from epquery.structures import repetition_pattern
from helpers import (
    E2,
    all_structures,
    brute_hom_exists,
    clique_digraph,
    cycle_digraph,
    digraph,
    flat_eval_dnf_hom,
    path_digraph,
    per_element_core,
    per_tuple_constraints,
    per_tuple_search,
    random_structure,
    restart_core,
    sparse_digraph,
    triangulated_grid,
)


def test_edge_into_loop():
    edge = digraph(["a", "b"], {("a", "b")})
    loop = digraph(["c"], {("c", "c")})
    h = q.find_homomorphism(edge, loop)
    assert h is not None
    assert h.mapping == {"a": "c", "b": "c"}
    assert q.verify_homomorphism(h)


def test_loop_into_edge_fails():
    loop = digraph(["a"], {("a", "a")})
    edge = digraph(["c", "d"], {("c", "d")})
    assert q.find_homomorphism(loop, edge) is None


def test_odd_cycle_wraps_only_when_length_divides():
    c5, c6, c3 = cycle_digraph(5, "f"), cycle_digraph(6, "s"), cycle_digraph(3, "t")
    assert not brute_hom_exists(c5, c3)
    assert q.find_homomorphism(c5, c3) is None
    assert brute_hom_exists(c6, c3)
    assert q.find_homomorphism(c6, c3) is not None


def test_signature_mismatch_raises():
    a = digraph(["a"], set())
    b = q.Structure(q.Signature([q.RelationSymbol("F", 1)]), ("x",), {})
    with pytest.raises(q.SignatureMismatch):
        q.find_homomorphism(a, b)


def test_node_limit_surfaces_as_error():
    a = digraph(["a", "b"], set())
    b = digraph(["x", "y"], set())
    with pytest.raises(q.LimitExceeded):
        q.find_homomorphism(a, b, max_nodes=0)


def test_node_budget_counts_each_calls_own_nodes():
    # No single search of the core's removal pass needs more than 6 nodes;
    # together they need more.  A shared stats record keeps the total only.
    triangles = digraph(
        [f"t{i}_{j}" for i in range(6) for j in range(3)],
        {(f"t{i}_{j}", f"t{i}_{(j + 1) % 3}") for i in range(6) for j in range(3)},
    )
    assert len(q.core(triangles, max_nodes=6).universe) == 3
    stats = q.SearchStats()
    assert len(q.core(triangles, max_nodes=6, stats=stats).universe) == 3
    assert stats.nodes > 6
    stats = q.SearchStats(nodes=1000)
    with pytest.raises(q.LimitExceeded):
        q.find_homomorphism(triangles, cycle_digraph(3), max_nodes=0, stats=stats)


def test_verify_rejects_bad_maps():
    loop = digraph(["a"], {("a", "a")})
    pair = digraph(["x", "y"], {("x", "x")})
    bad = q.Homomorphism(loop, pair, {"a": "y"})
    assert not q.verify_homomorphism(bad)
    good = q.Homomorphism(loop, loop, {"a": "a"})
    assert q.verify_homomorphism(good)


def test_identity_verifies_on_random_structures():
    rng = random.Random(3)
    for _ in range(20):
        s = random_structure(rng, E2, 3)
        assert q.verify_homomorphism(q.Homomorphism(s, s, {e: e for e in s.universe}))


def test_hom_equivalent_examples():
    edge = digraph(["a", "b"], {("a", "b")})
    loop = digraph(["c"], {("c", "c")})
    assert not q.hom_equivalent(edge, loop)  # loop -> edge fails
    assert q.hom_equivalent(edge, edge)
    assert not q.hom_equivalent(cycle_digraph(6, "s"), cycle_digraph(3, "t"))


def test_find_retraction_examples():
    tail = digraph(["a", "b"], {("a", "b"), ("b", "b")})
    r = q.find_retraction(tail, {"b"})
    assert r is not None and r.mapping == {"a": "b", "b": "b"}

    k3 = clique_digraph(3)
    for size in (1, 2):
        for subset in itertools.combinations(k3.universe, size):
            assert q.find_retraction(k3, set(subset)) is None

    whole = q.find_retraction(tail, {"a", "b"})
    assert whole is not None and whole.mapping == {"a": "a", "b": "b"}


def test_find_retraction_rejects_bad_subset():
    edge = digraph(["a", "b"], {("a", "b")})
    with pytest.raises(q.EpqError):
        q.find_retraction(edge, set())
    with pytest.raises(q.EpqError):
        q.find_retraction(edge, {"z"})


def test_core_examples():
    tail = digraph(["a", "b"], {("a", "b"), ("b", "b")})
    c = q.core(tail)
    assert c.universe == ("b",) and c.relations["E"] == {("b", "b")}

    k3 = clique_digraph(3)
    assert q.core(k3) == k3

    mixed = digraph(["a", "b"], {("a", "a")})
    c = q.core(mixed)
    assert c.universe == ("a",) and c.relations["E"] == {("a", "a")}


def test_core_shrinks_even_without_single_element_retractions():
    # Disjoint 2-cycle and 6-cycle: no single-element removal admits a
    # retraction fixing the rest, yet the core is the 2-cycle.
    two = cycle_digraph(2, "p")
    six = cycle_digraph(6, "z")
    both = digraph(
        two.universe + six.universe, set(two.relations["E"]) | set(six.relations["E"])
    )
    for elem in both.universe:
        assert q.find_retraction(both, set(both.universe) - {elem}) is None
    c = q.core(both)
    assert len(c.universe) == 2
    assert q.isomorphic(c, two)


def test_core_limit():
    big = digraph([f"v{i}" for i in range(25)], set())
    with pytest.raises(q.LimitExceeded):
        q.core(big)


def test_completeness_all_small_pairs():
    size_one = list(all_structures(E2, ("a",)))
    size_two = list(all_structures(E2, ("a", "b")))
    smalls = size_one + size_two
    for a in smalls:
        for b in smalls:
            got = q.find_homomorphism(a, b)
            assert (got is not None) == brute_hom_exists(a, b)
            if got is not None:
                assert q.verify_homomorphism(got)


def test_completeness_sampled_three_element_pairs():
    rng = random.Random(17)
    for _ in range(300):
        a = random_structure(rng, E2, 3)
        b = random_structure(rng, E2, 3)
        got = q.find_homomorphism(a, b)
        assert (got is not None) == brute_hom_exists(a, b)
        if got is not None:
            assert q.verify_homomorphism(got)


MIXED = q.Signature(
    [q.RelationSymbol("P", 1), q.RelationSymbol("E", 2), q.RelationSymbol("T", 3)]
)


def _mixed_structure(rng, size, density, prefix):
    # every tuple of the product may be drawn, so E(x,x) and T(x,y,x) occur
    universe = tuple(f"{prefix}{i}" for i in range(size))
    relations = {
        sym.name: {
            t for t in itertools.product(universe, repeat=sym.arity)
            if rng.random() < density[sym.arity]
        }
        for sym in MIXED
    }
    return q.Structure(MIXED, universe, relations)


def test_completeness_mixed_arity_with_pins():
    # unary masks, binary arcs, ternary row scans and pins, against the oracle
    rng = random.Random(31)
    verdicts = set()
    t_shapes = set()
    for _ in range(400):
        a = _mixed_structure(rng, rng.randint(1, 4), {1: 0.3, 2: 0.2, 3: 0.05}, "a")
        b = _mixed_structure(rng, rng.randint(1, 4), {1: 0.7, 2: 0.6, 3: 0.4}, "b")
        pinned = rng.sample(a.universe, rng.randint(0, min(2, len(a.universe))))
        fixed = {x: rng.choice(b.universe) for x in pinned}
        got = q.find_homomorphism(a, b, fixed=fixed)
        assert (got is not None) == brute_hom_exists(a, b, fixed)
        if got is not None:
            assert q.verify_homomorphism(got)
            assert all(got.mapping[x] == v for x, v in fixed.items())
        verdicts.add(got is not None)
        t_shapes |= {len(set(t)) for t in a.relations["T"]}
    assert verdicts == {True, False}
    assert t_shapes == {1, 2, 3}


# Fixed node counts and witnesses: the benchmark's node counters and every
# returned witness depend on the variable and value order, so it must not drift.
def test_grid_search_nodes_and_witness_are_pinned():
    grid = triangulated_grid(3, 6)
    stats = q.SearchStats()
    h = q.find_homomorphism(grid, sparse_digraph(1, 60, 8), stats=stats)
    assert stats.nodes == 2
    assert [h.mapping[x] for x in grid.universe] == [
        "b12", "b42", "b1", "b2", "b3", "b4",
        "b42", "b1", "b2", "b3", "b4", "b5",
        "b1", "b2", "b3", "b4", "b5", "b6",
    ]
    stats = q.SearchStats()
    assert q.find_homomorphism(grid, sparse_digraph(2, 60, 0), stats=stats) is None
    assert stats.nodes == 56


@pytest.mark.parametrize("lift", [None, 3])
def test_hamiltonian_search_nodes_and_witness_are_pinned(lift):
    g = digraph(["a0", "a1", "a2"], {("a0", "a1"), ("a1", "a2"), ("a2", "a0"), ("a0", "a2")})
    red = q.reduce_hamiltonian(g, lift)
    nodes = []
    witnesses = []
    for psi in q.to_pp_disjunction(red.sentence):
        stats = q.SearchStats()
        h = q.find_homomorphism(q.structure_of_pp(psi, red.structure.signature), red.structure,
                                stats=stats)
        nodes.append(stats.nodes)
        witnesses.append(h)
    assert nodes == [81] * 15 + [1] + [81] * 11
    assert [i for i, h in enumerate(witnesses) if h is not None] == [15]
    # q_v<i>^<part> goes to the same part of the gadget of vertex a<i-1>
    mapping = witnesses[15].mapping
    assert len(mapping) == 36
    for elem, value in mapping.items():
        i, part = elem.removeprefix("q_v").split("^")
        assert value == f"a{int(i) - 1}|{int(i) - 1}^{part}"

    no_cycle = digraph(["a0", "a1", "a2"], {("a0", "a1"), ("a1", "a0"), ("a1", "a2"), ("a2", "a2")})
    red = q.reduce_hamiltonian(no_cycle, lift)
    # one search, each successor pick a union constraint, against 27
    # searches of 81 nodes over the flattened disjuncts
    stats = q.SearchStats()
    assert not q.eval_dnf_hom(red.sentence, red.structure, stats=stats)
    assert stats.nodes == 324
    stats = q.SearchStats()
    assert not flat_eval_dnf_hom(red.sentence, red.structure, stats=stats)
    assert stats.nodes == 2187


def test_deep_search_needs_no_recursion():
    # both go far past the interpreter's default recursion limit of 1,000
    h = q.find_homomorphism(path_digraph(3000), cycle_digraph(2))
    assert h is not None and q.verify_homomorphism(h)
    edges = digraph(
        [x for i in range(1200) for x in (f"a{i}", f"b{i}")],
        {(f"a{i}", f"b{i}") for i in range(1200)},
    )
    stats = q.SearchStats()
    h = q.find_homomorphism(edges, cycle_digraph(2), stats=stats)
    assert h is not None and q.verify_homomorphism(h)
    assert stats.nodes == 1200  # one level per edge


def test_search_memory_follows_the_trail():
    # Backtracking undoes a trail of narrowed domains; a copy of every domain
    # per level would take 1,200 frames of 2,400 masks, about 23 MiB.
    edges = digraph(
        [x for i in range(1200) for x in (f"a{i}", f"b{i}")],
        {(f"a{i}", f"b{i}") for i in range(1200)},
    )
    target = cycle_digraph(2)
    q.find_homomorphism(path_digraph(2), target)  # the target's tables are kept on it
    tracemalloc.start()
    try:
        h = q.find_homomorphism(edges, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h is not None and q.verify_homomorphism(h)
    assert peak < 8 * 2**20


def _branch(target, name, args, sindex):
    distinct, pattern = repetition_pattern(args)
    return [sindex[x] for x in distinct], homomorphism._prepared(target).entry(name, pattern)


def test_union_constraint_revision():
    # P(x) | E(x,y) | E(x,z), then P(x) | T(y,y,z), revised by constructive disjunction
    sig = q.Signature(
        [q.RelationSymbol("P", 1), q.RelationSymbol("E", 2), q.RelationSymbol("T", 3)]
    )
    b = q.Structure(sig, ("0", "1", "2", "3"), {
        "P": {("3",)}, "E": {("0", "1"), ("1", "2")}, "T": {("2", "2", "0")}})
    sindex = {"x": 0, "y": 1, "z": 2}
    branches = [_branch(b, "P", ("x",), sindex), _branch(b, "E", ("x", "y"), sindex),
                _branch(b, "E", ("x", "z"), sindex)]
    full = 0b1111
    # x is in every branch: it keeps 3 (P), 0 and 1 (E); y and z are not narrowed
    assert homomorphism._union_kept(branches, [full, full, full]) == {0: 0b1011}
    # with P dead, x keeps what the two E branches support
    assert homomorphism._union_kept(branches, [0b0111, full, full]) == {0: 0b0011}
    # with one branch alive, every variable of it keeps that branch's support
    assert homomorphism._union_kept(branches, [0b0111, 0b0001, 0b0100]) == {0: 0b0010, 2: 0b0100}
    # no live branch is a wipe-out
    assert homomorphism._union_kept(branches, [0b0100, full, full]) is None
    # a ternary branch with a repeated argument shares no variable with P(x)
    mixed = branches[:1] + [_branch(b, "T", ("y", "y", "z"), sindex)]
    assert homomorphism._union_kept(mixed, [full, full, full]) == {}
    assert homomorphism._union_kept(mixed, [0b0111, full, full]) == {1: 0b0100, 2: 0b0001}


def test_prepared_target_is_invisible_to_equality():
    b = cycle_digraph(3)
    twin = cycle_digraph(3)
    a = cycle_digraph(6, "s")
    source_twin = cycle_digraph(6, "s")
    assert q.find_homomorphism(a, b) is not None
    assert b == twin
    assert q.format_structure(b) == q.format_structure(twin)
    # the source keeps its constraint skeleton the same way
    assert "_skeleton" in a.__dict__
    assert a == source_twin
    assert q.format_structure(a) == q.format_structure(source_twin)


MIXED = q.Signature(
    [q.RelationSymbol("P", 1), q.RelationSymbol("E", 2), q.RelationSymbol("T", 3)]
)


def _random_unions(rng, source):
    # 1-3 unions of 1-3 atoms each, over source elements that may repeat
    return [
        [(sym.name, tuple(rng.choice(source.universe) for _ in range(sym.arity)))
         for sym in (rng.choice(source.signature.symbols) for _ in range(rng.randint(1, 3)))]
        for _ in range(rng.randint(1, 3))
    ]


def _described(built):
    # root domains, then the arcs, scans and unions as multisets, then degrees;
    # a table is named by the identity of its object in the shared target tables
    domains, (arcs, scans, union_of, degree) = built
    return (
        domains,
        collections.Counter((x, id(out), id(back), y)
                            for x, groups in enumerate(arcs) for out, back, ys in groups
                            for y in ys),
        collections.Counter((v, tuple(vars), id(entry))
                            for v, items in enumerate(scans) for vars, entry in items),
        collections.Counter((v, tuple((tuple(vars), id(entry)) for vars, entry in branches))
                            for v, by_id in union_of.items() for branches in by_id.values()),
        list(degree),
    )


def _loopless_symmetric(rng, n, density, prefix):
    names = [f"{prefix}{i}" for i in range(n)]
    edges = {(x, y) for x, y in itertools.combinations(names, 2) if rng.random() < density}
    return digraph(names, edges | {(y, x) for x, y in edges})


def test_constraints_match_per_tuple_reference():
    # The skeleton bound to a target gives the root fixpoint, arcs, scans,
    # unions and degrees of the per-tuple builder, and a search from them
    # finds the same witness in the same number of nodes as the reference
    # search with newest-first propagation.  Random E/2 and P/1+E/2+T/3
    # pairs have repeated arguments and are mostly settled at the root;
    # colouring-like pairs (loopless symmetric graphs) are left to search.
    rng = random.Random(97)
    outcomes = collections.Counter()
    for trial in range(450):
        family = trial % 3
        if family == 2:
            a = _loopless_symmetric(rng, rng.randint(4, 8), rng.choice([0.4, 0.6]), "e")
            b = _loopless_symmetric(rng, rng.randint(3, 4), rng.choice([0.6, 0.8]), "t")
        else:
            sig = (E2, MIXED)[family]
            density = rng.choice([0.1, 0.2, 0.4]) if sig is E2 else rng.choice([0.05, 0.1, 0.2])
            a = random_structure(rng, sig, 7, density=density)
            b = random_structure(rng, sig, 4, density=rng.choice([0.3, 0.5, 0.7]), prefix="t")
        fixed = None
        if trial % 4 == 0:
            fixed = {x: rng.choice(b.universe) for x in rng.sample(a.universe, min(2, len(a.universe)))}
        unions = _random_unions(rng, a) if trial % 5 < 2 else ()
        ref = per_tuple_constraints(a, unions, b, fixed)
        new = homomorphism._constraints(a, unions, b, fixed)
        if ref is None:
            assert new is None
        else:
            assert _described(new) == _described(ref)
        stats, ref_stats = q.SearchStats(), q.SearchStats()
        found = q.find_homomorphism(a, b, fixed=fixed, unions=unions, stats=stats)
        expected = per_tuple_search(a, unions, b, fixed, stats=ref_stats)
        assert (found and found.mapping) == expected
        assert stats.nodes == ref_stats.nodes
        outcomes["wiped" if ref is None else "found" if expected else "refuted"] += 1
        outcomes["unions"] += bool(unions)
        outcomes["fixed"] += bool(fixed)
    assert min(outcomes.values()) >= 30, outcomes


def test_constraints_order_does_not_depend_on_the_hash_seed():
    # The per-variable partner lists and scans come out in one order under
    # every hash seed, although the relations are sets.
    script = """
import json
from epquery import homomorphism
from helpers import sparse_digraph, triangulated_grid
import epquery as q

sig = q.Signature([q.RelationSymbol("E", 2), q.RelationSymbol("T", 3)])

def with_triangles(g):
    edges = g.relations["E"]
    return q.Structure(sig, g.universe, {"E": edges, "T": {
        (x, y, z) for x, y in edges for w, z in edges if w == y and (x, z) in edges}})

source = with_triangles(triangulated_grid(3, 4))
target = with_triangles(sparse_digraph(5, 40, 16))
domains, (arcs, scans, _, degree) = homomorphism._constraints(source, (), target, None)
names = {}
for key, entry in homomorphism._prepared(target).keys.items():
    names[id(entry)] = key
    if entry[2] is not None:
        names[id(entry[2])], names[id(entry[3])] = key + ("fwd",), key + ("rev",)
print(json.dumps({
    "arcs": [[(names[id(out)], ys) for out, _, ys in groups] for groups in arcs],
    "scans": [[(vars, names[id(entry)]) for vars, entry in items] for items in scans],
    "degree": degree,
    "domains": domains,
}))
"""
    root = Path(__file__).resolve().parent.parent
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    assert any(runs[0]["scans"]) and any(runs[0]["arcs"])


def test_search_is_deterministic():
    rng = random.Random(23)
    for _ in range(30):
        a = random_structure(rng, E2, 3)
        b = random_structure(rng, E2, 3)
        first = q.find_homomorphism(a, b)
        second = q.find_homomorphism(a, b)
        if first is None:
            assert second is None
        else:
            assert first.mapping == second.mapping


def test_core_properties_on_random_structures():
    rng = random.Random(29)
    for _ in range(40):
        a = random_structure(rng, E2, 4)
        c = q.core(a)
        assert q.hom_equivalent(a, c)
        assert q.isomorphic(q.core(c), c)
        # universe order must not change the result up to isomorphism
        shuffled_universe = list(a.universe)
        rng.shuffle(shuffled_universe)
        shuffled = q.Structure(a.signature, tuple(shuffled_universe), a.relations)
        assert q.isomorphic(q.core(shuffled), c)


def test_stats_counts_nodes():
    stats = q.SearchStats()
    a = digraph(["a", "b"], set())
    b = digraph(["x", "y"], set())
    q.find_homomorphism(a, b, stats=stats)
    assert stats.nodes > 0


def test_core_matches_restarted_scan():
    # One pass gives the same substructure as rescanning after each removal.
    mixed = q.Signature(
        [q.RelationSymbol("P", 1), q.RelationSymbol("E", 2), q.RelationSymbol("T", 3)]
    )
    rng = random.Random(71)
    for _ in range(60):
        sig = rng.choice([E2, mixed])
        density = rng.choice([0.05, 0.1, 0.2]) if sig is mixed else rng.choice([0.1, 0.2, 0.3])
        a = random_structure(rng, sig, 8, density=density)
        assert q.core(a) == restart_core(a)
        assert q.core(a) == per_element_core(a)


def test_core_masking_matches_per_element_searches_on_h3():
    # No element of a member of m_normalize(H_3) can go, so every masked
    # removal test searches exactly the nodes of a search into the freshly
    # built substructure.
    phi = q.hamiltonian_sentence(3)
    signature = q.formula_signature(phi)
    members = q.m_normalize(phi)
    assert len(members) == 27
    masked, rebuilt = q.SearchStats(), q.SearchStats()
    for member in members:
        a = q.structure_of_pp(member, signature)
        assert q.core(a, max_universe=len(a.universe), stats=masked) is a
        assert per_element_core(a, stats=rebuilt) is a
    assert masked.nodes == rebuilt.nodes > 0


def test_core_makes_one_pass(monkeypatch):
    # A directed triangle, then 5 disjoint edges: each edge element goes, the
    # triangle stays.  Rescanning after each of the 10 removals re-tests the
    # three triangle elements every time: 43 searches instead of 13.  The
    # pass builds the constraints of a -> a once and solves once per test.
    triangle = cycle_digraph(3, "t")
    pairs = [(f"a{i}", f"b{i}") for i in range(5)]
    a = digraph(
        triangle.universe + tuple(x for pair in pairs for x in pair),
        set(triangle.relations["E"]) | set(pairs),
    )
    calls = []

    def counted(name):
        real = getattr(homomorphism, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(homomorphism, name, wrapper)

    counted("find_homomorphism")
    monkeypatch.setattr(q, "find_homomorphism", homomorphism.find_homomorphism)
    assert restart_core(a) == triangle
    assert calls.count("find_homomorphism") == 43
    calls.clear()
    counted("_constraints")
    counted("_solve")
    assert q.core(a) == triangle
    assert calls.count("find_homomorphism") == 0
    assert calls.count("_constraints") == 1
    assert 0 < calls.count("_solve") <= 13
