import collections
import gc
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import epquery as q
from epquery import homomorphism
from epquery.errors import MAX_NODES
from epquery.formulas import _structure_and_unions
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
    random_ep_formula,
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
        new = homomorphism._constraints(a, unions, b, fixed, None)
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


def _wide_target(rng, size):
    # E at one of three densities, plus hubs related to most of the universe
    # and, in half of the targets, loops; T holds rows with repeated entries,
    # so that the binary keys (0, 1, 0) and (0, 0, 1) get supports
    names = tuple(f"t{i}" for i in range(size))
    density = rng.choice([0.02, 0.08, 0.3])
    edges = {(x, y) for x in names for y in names if x != y and rng.random() < density}
    for hub in rng.sample(names, 3):
        edges |= {(hub, y) for y in names if hub != y and rng.random() < 0.7}
        edges |= {(x, hub) for x in names if x != hub and rng.random() < 0.7}
    if rng.random() < 0.5:
        edges |= {(x, x) for x in rng.sample(names, size // 10)}
    triples = set()
    for _ in range(3 * size):
        x, y, z = (rng.choice(names) for _ in range(3))
        triples.add(rng.choice([(x, y, x), (x, x, y), (x, y, z)]))
    return q.Structure(MIXED, names, {"P": {(x,) for x in names if rng.random() < 0.6},
                                      "E": edges, "T": triples})


def test_byte_reads_match_bit_reads(monkeypatch):
    # Wide masks are read a byte at a time (``_byte_reach``); the reference
    # builder and search read every mask a bit at a time, through
    # ``lifo_propagate``.  Root domains, witnesses and node counts agree on
    # targets of 9-300 elements, none a multiple of 8, with domains on both
    # sides of the switch.
    reads = collections.Counter()
    real_reach, real_tables = homomorphism._byte_reach, homomorphism._byte_tables

    def byte_reach(values, table):
        reads["bytes"] += 1
        return real_reach(values, table)

    def byte_tables(table):
        reads["tables"] += 1
        return real_tables(table)

    monkeypatch.setattr(homomorphism, "_byte_reach", byte_reach)
    monkeypatch.setattr(homomorphism, "_byte_tables", byte_tables)
    rng = random.Random(2008)
    outcomes = collections.Counter()
    for trial, size in enumerate([9, 13, 23, 30, 45, 61, 67, 100, 131, 203, 251, 300] * 4):
        b = _wide_target(rng, size)
        if trial % 2:
            density = rng.choice([0.05, 0.1, 0.2])
            a = random_structure(rng, MIXED, rng.randint(3, 6), density=density)
        else:  # a clique or a directed cycle, which sparse targets refute after some search
            k = rng.randint(4, 6)
            pairs = (itertools.permutations(range(k), 2) if trial % 4
                     else ((i, (i + 1) % k) for i in range(k)))
            a = q.Structure(MIXED, tuple(f"a{i}" for i in range(k)),
                            {"E": {(f"a{i}", f"a{j}") for i, j in pairs}})
        fixed = {rng.choice(a.universe): rng.choice(b.universe)} if trial % 5 == 0 else None
        unions = _random_unions(rng, a) if trial % 3 == 0 else ()
        ref = per_tuple_constraints(a, unions, b, fixed)
        new = homomorphism._constraints(a, unions, b, fixed, None)
        assert (new and new[0]) == (ref and ref[0])
        stats, ref_stats = q.SearchStats(), q.SearchStats()
        found = q.find_homomorphism(a, b, fixed=fixed, unions=unions, stats=stats)
        expected = per_tuple_search(a, unions, b, fixed, stats=ref_stats)
        assert (found and found.mapping) == expected
        assert stats.nodes == ref_stats.nodes
        outcomes["wiped" if ref is None else "found" if expected else "refuted"] += 1
        outcomes["searched"] += stats.nodes > 0
    assert len(outcomes) == 4 and min(outcomes.values()) >= 3, outcomes
    assert reads["bytes"] >= 100 and reads["tables"] >= 20, (reads, outcomes)


def test_byte_tables_die_with_their_target():
    # The byte tables are kept in the target's partner lists, on its
    # ``_PreparedTarget``, and nowhere else: a dropped target takes its
    # tables along, so fresh targets do not pile up.
    source = cycle_digraph(3)

    def searched(seed):
        # only 61 of the 101 vertices have out-edges, so the root
        # propagates the 40 values its column masks drop: a wide read
        rng = random.Random(seed)
        names = [f"b{i}" for i in range(101)]
        target = digraph(names, {(u, v) for u in names[:61] for v in rng.sample(names, 3)})
        q.find_homomorphism(source, target)
        return target

    target = searched(0)
    prepared = homomorphism._prepared(target)
    tables = [entry[2][-1] for entry in prepared.keys.values()]  # fwd's tables, per key
    assert any(tables)  # a wide read built some
    refs = [weakref.ref(target), weakref.ref(prepared)]
    del target, prepared, tables
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    tracemalloc.start()
    try:
        for seed in range(1, 201):
            searched(seed)
            if seed == 20:
                gc.collect()
                settled = tracemalloc.get_traced_memory()[0]
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - settled
    finally:
        tracemalloc.stop()
    # kept alive, the byte tables of 180 targets take about 6 MB
    assert growth < 2**18, growth


EPQ = q.Signature([q.RelationSymbol("E", 2), q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])


def _with_shared_body(rng):
    # a random EP sentence whose outer variables also carry 2-4 atoms that
    # every flattened disjunct holds
    phi = random_ep_formula(rng, EPQ, max_vars=4, max_depth=5)
    outer = []
    while type(phi) is q.Exists:
        outer.append(phi.var)
        phi = phi.child
    body = [q.Atom(sym.name, tuple(rng.choice(outer) for _ in range(sym.arity)))
            for sym in (rng.choice(EPQ.symbols) for _ in range(rng.randint(2, 4)))]
    phi = q.conj(body + [phi])
    for v in reversed(outer):
        phi = q.Exists(v, phi)
    return phi


def test_linked_constraints_match_unlinked():
    # Starting the shared variables at the shared part's root fixpoint in
    # the target leaves the same verdict.  Into a target linked to the same
    # part that root was probed, so the root domains lie inside the plain
    # ones and keep every value of every homomorphism, and the witness is
    # one of those homomorphisms; it is the plain witness, after as many
    # nodes, where the roots are equal, as they are into any other target.
    rng, pick = random.Random(97), random.Random(5)
    linked_pairs = probed_pairs = 0
    for _ in range(40):
        disjuncts = q.to_pp_disjunction(_with_shared_body(rng))
        linked = [_structure_and_unions(d, EPQ)[0] for d in disjuncts]
        plain = [_structure_and_unions(d, EPQ)[0] for d in disjuncts]
        homomorphism._link_shared(linked)
        for i, j in itertools.product(range(len(disjuncts)), repeat=2):
            probed = "_shared" in linked[i].__dict__
            homs = list(_homomorphisms(plain[j], plain[i])) if probed else None
            # also with each source element pinned, which may narrow a shared variable
            pins = [{x: pick.choice(plain[i].universe)} for x in plain[j].universe]
            for fixed in [None] + pins:
                got = homomorphism._constraints(linked[j], (), linked[i], fixed,
                                                homomorphism._Budget(None, MAX_NODES))
                want = homomorphism._constraints(plain[j], (), plain[i], fixed, None)
                if probed:
                    _check_probed(got and got[0], plain[j], plain[i], fixed, homs)
                else:
                    assert (got and got[0]) == (want and want[0])
                if fixed is None:
                    same_root = (got and got[0]) == (want and want[0])
            stats, reference = q.SearchStats(), q.SearchStats()
            found = q.find_homomorphism(linked[j], linked[i], stats=stats)
            expected = q.find_homomorphism(plain[j], plain[i], stats=reference)
            assert (found is None) == (expected is None)
            if probed and found is not None:
                assert found.mapping in homs
            if same_root:
                assert (found and found.mapping) == (expected and expected.mapping)
                assert stats.nodes == reference.nodes
            linked_pairs += homomorphism._skeleton(linked[j]).link is not None
            probed_pairs += probed
    assert linked_pairs > 500 and probed_pairs > 500


def test_shared_roots_do_not_outlive_their_sources(monkeypatch):
    # The target keeps a shared part's root fixpoint only while the linked
    # sources are alive: the roots live on the shared part, which dies with
    # them.  The three disjuncts are linked to E(x,y), and the
    # E(x,y) & E(y,x) member is searched from its root in b.
    built = []
    real = homomorphism._shared_root

    def recorded(shared, target, budget):
        built.append((target, weakref.ref(shared.__dict__["_roots"])))
        return real(shared, target, budget)

    monkeypatch.setattr(homomorphism, "_shared_root", recorded)
    phi = q.parse_formula("exists x . exists y . (E(x,y) & (P(x) | Q(y) | E(y,x)))")
    b = q.Structure(EPQ, ("a", "b", "c"), {"E": {("a", "b"), ("b", "c")}})
    assert not q.eval_via_pp_turing(phi, b)
    assert any(target is b for target, _ in built)
    assert all(roots() is None for _, roots in built)


def test_a_shared_root_that_wipes_out_refutes_every_linked_source(monkeypatch):
    # The three disjuncts share the path x -> y -> z -> w, which has no image
    # in b, though every column mask of it is non-empty there: the root in b
    # wipes out, once, and each member is refuted before any search node.
    # Normalizing probes the family root once: the union of the disjuncts
    # holds the 4-cycle x -> y -> z -> w -> x, so each of the path's four
    # variables keeps all four values, and each of the 16 probes survives.
    roots = []
    real = homomorphism._shared_root

    def recorded(shared, target, budget):
        roots.append((target, real(shared, target, budget)))
        return roots[-1][1]

    monkeypatch.setattr(homomorphism, "_shared_root", recorded)
    phi = q.parse_formula("exists x . exists y . exists z . exists w . "
                          "(E(x,y) & E(y,z) & E(z,w) & (P(x) | Q(y) | E(w,x)))")
    b = q.Structure(EPQ, tuple("abcde"), {"E": {("a", "b"), ("b", "c"), ("d", "e")},
                                          "P": {("a",)}, "Q": {("b",)}})
    stats = q.SearchStats()
    assert q.eval_via_pp_turing(phi, b, stats=stats) is False
    assert stats.nodes == 16
    assert [root for target, root in roots if target is b] == [None] * 3
    assert q.eval_naive(phi, b) is False


def _homomorphisms(a, b):
    # every map from a to b that preserves every tuple
    for values in itertools.product(b.universe, repeat=len(a.universe)):
        h = dict(zip(a.universe, values))
        if all(tuple(h[x] for x in t) in b.relations[name]
               for name, tuples in a.relations.items() for t in tuples):
            yield h


def _check_probed(probed, source, target, fixed=None, homs=None):
    # The probed root lies inside the plain arc-consistent root of ``source``
    # into ``target`` and keeps every value some homomorphism uses; True
    # when it dropped a value.  ``fixed`` pins as in ``_constraints``, and
    # ``homs`` may give every homomorphism, pinned or not, when known.
    fixed = fixed or {}
    plain = homomorphism._constraints(q.Structure(source.signature, source.universe,
                                                  source.relations), (), target, fixed, None)
    homs = [h for h in (_homomorphisms(source, target) if homs is None else homs)
            if all(h[x] == v for x, v in fixed.items())]
    if probed is None:
        assert not homs
        return plain is not None
    tindex = {e: i for i, e in enumerate(target.universe)}
    assert plain is not None and all(p & ~r == 0 for p, r in zip(probed, plain[0]))
    for h in homs:
        assert all(probed[v] >> tindex[h[x]] & 1 for v, x in enumerate(source.universe))
    return probed != plain[0]


# the triangle is shared; its vertices have supports in the 2-cycle of the
# first disjunct, but probing them there wipes out
TRIANGLE_OR_TWO_CYCLE = q.parse_formula(
    "exists x . exists y . exists z . (E(x,y) & E(y,x) & E(y,z) & E(z,y) & E(x,z) & E(z,x)"
    " & ((exists u . exists v . (E(u,v) & E(v,u))) | P(x) | Q(x)))"
)


def test_shared_root_probes_drop_only_values_no_homomorphism_uses():
    # Every map of the shared part into each linked disjunct is enumerated.
    rng = random.Random(41)
    pruned = families = 0
    for phi in [TRIANGLE_OR_TWO_CYCLE] + [_with_shared_body(rng) for _ in range(60)]:
        disjuncts = q.to_pp_disjunction(phi)
        linked = [_structure_and_unions(d, EPQ)[0] for d in disjuncts]
        plain = [_structure_and_unions(d, EPQ)[0] for d in disjuncts]
        homomorphism._link_shared(linked)
        shared = linked[0].__dict__.get("_shared")
        if shared is None:
            continue
        families += 1
        for i, j in itertools.product(range(len(disjuncts)), repeat=2):
            found = q.find_homomorphism(linked[j], linked[i])
            assert (found is None) == (q.find_homomorphism(plain[j], plain[i]) is None)
        for i, target in enumerate(linked):
            # probed on its first use, at the latest by the search from linked[i] itself
            root = shared.__dict__["_roots"][homomorphism._prepared(target)]
            pruned += _check_probed(root, shared, plain[i])
    assert families > 20 and pruned > 0


def test_core_probes_drop_only_values_no_homomorphism_uses(monkeypatch):
    # After each of core's probes, its a -> a root keeps every value of
    # every endomorphism; core's result is that of fresh searches.
    real = homomorphism._probe
    current = {}
    pruned = 0

    def checked(domains, arcs, scans, x, values, tick):
        nonlocal pruned
        kept = real(domains, arcs, scans, x, values, tick)
        pruned += _check_probed(domains, current["a"], current["a"])
        return kept

    monkeypatch.setattr(homomorphism, "_probe", checked)
    rng = random.Random(43)
    # the 2-cycle first, so that probing a triangle vertex tries it first
    instances = [digraph(["u", "v", "x", "y", "z"], {("u", "v"), ("v", "u"), ("x", "y"), ("y", "x"),
                                                     ("y", "z"), ("z", "y"), ("x", "z"), ("z", "x")})]
    for _ in range(60):
        sig = rng.choice([E2, MIXED])
        density = rng.choice([0.05, 0.1, 0.2]) if sig is MIXED else rng.choice([0.1, 0.2, 0.3])
        instances.append(random_structure(rng, sig, 5, density=density))
    for a in instances:
        current["a"] = a
        assert q.core(a) == per_element_core(a)
    assert pruned > 0


def _counting_probes(monkeypatch):
    # the variables of every singleton probe made from now on
    probes = []
    real = homomorphism._probe

    def counted(*args):
        probes.append(args[3])
        return real(*args)

    monkeypatch.setattr(homomorphism, "_probe", counted)
    return probes


def test_family_root_is_probed_once_per_family(monkeypatch):
    # The family root, the shared part's root in the union of the linked
    # structures, is probed once, on its first use: once for the 27
    # disjuncts of H_3, the targets of m_normalize's searches.  A search
    # into any other target starts at the plain root, however often it runs.
    calls = []
    real = homomorphism._probe_all

    def counted(domains, arcs, scans, tick):
        calls.append(len(domains))
        return real(domains, arcs, scans, tick)

    monkeypatch.setattr(homomorphism, "_probe_all", counted)
    assert len(q.m_normalize(q.hamiltonian_sentence(3))) == 27
    assert calls == [36]
    calls.clear()
    disjuncts = q.to_pp_disjunction(TRIANGLE_OR_TWO_CYCLE)
    linked = [_structure_and_unions(d, EPQ)[0] for d in disjuncts]
    homomorphism._link_shared(linked)
    unlinked = _structure_and_unions(disjuncts[1], EPQ)[0]
    for _ in range(3):
        stats = q.SearchStats()
        assert q.find_homomorphism(linked[0], unlinked, stats=stats) is not None
        assert stats.nodes > 0
    shared = linked[0].__dict__["_shared"]
    roots = shared.__dict__["_roots"]
    assert list(roots) == [homomorphism._prepared(unlinked)]
    root = roots[homomorphism._prepared(unlinked)]
    assert calls == [] and root == homomorphism._constraints(shared, (), unlinked, None, None)[0]
    for target in linked[1:]:
        assert q.find_homomorphism(linked[0], target) is not None
    assert calls == [len(shared.universe)]


def test_three_disjuncts_on_a_large_shared_body_make_no_probe(monkeypatch):
    # The three disjuncts are linked, so each is a target whose shared root
    # would be probed on its first use.  Each search between two of them
    # refutes on the empty column mask of its own atom (P, Q or the loop),
    # before that root is asked for, so no root is built or probed.
    probes = _counting_probes(monkeypatch)
    names = [f"x{i}" for i in range(8)]
    body = " & ".join(f"E({x},{y})" for x in names for y in names if x != y)
    phi = q.parse_formula(" . ".join(f"exists {x}" for x in names)
                          + f" . ({body} & (P(x1) | Q(x1) | E(x1,x1)))")
    stats = q.SearchStats()
    assert len(q.m_normalize(phi, stats=stats)) == 3
    assert probes == [] and stats.nodes == 0
    linked = [_structure_and_unions(d, EPQ)[0] for d in q.to_pp_disjunction(phi)]
    homomorphism._link_shared(linked)
    assert all("_shared" in s.__dict__ for s in linked)
    for source, target in itertools.permutations(linked, 2):
        assert q.find_homomorphism(source, target) is None
    assert probes == [] and len(linked[0].__dict__["_shared"].__dict__["_roots"]) == 0


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
domains, (arcs, scans, _, degree) = homomorphism._constraints(source, (), target, None, None)
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
    # No element of a member of m_normalize(H_3) can go.  Searches into the
    # freshly built substructures take 12,312 nodes.  Probing each element's
    # own variable in the shared a -> a root settles every masked test: 67
    # probes, which count as nodes, and no search node.
    phi = q.hamiltonian_sentence(3)
    signature = q.formula_signature(phi)
    members = q.m_normalize(phi)
    assert len(members) == 27
    masked, rebuilt = q.SearchStats(), q.SearchStats()
    for member in members:
        a = q.structure_of_pp(member, signature)
        assert q.core(a, max_universe=len(a.universe), stats=masked) is a
        assert per_element_core(a, stats=rebuilt) is a
    assert (masked.nodes, rebuilt.nodes) == (67, 12_312)


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
