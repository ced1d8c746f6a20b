import hashlib
import itertools
import random

import pytest

import epquery as q
from epquery.treewidth import minor_min_width
from helpers import (
    E2,
    FALLBACK,
    all_structures,
    clique_digraph,
    cycle_digraph,
    dfs_validate_decomposition,
    digraph,
    exhaustive_treewidth,
    path_digraph,
    random_structure,
    rescan_treewidth_upper,
    table_treewidth_exact,
    triangulated_grid,
)

PET = q.Signature(
    [q.RelationSymbol("P", 1), q.RelationSymbol("E", 2), q.RelationSymbol("T", 3)]
)


def _td(nodes, edges, bags):
    return q.TreeDecomposition(tuple(nodes), tuple(edges), {k: frozenset(v) for k, v in bags.items()})


def test_validate_decomposition_path():
    p = path_digraph(3, "")  # elements 0,1,2
    d = _td(["n0", "n1"], [("n0", "n1")], {"n0": {"0", "1"}, "n1": {"1", "2"}})
    assert q.validate_decomposition(p, d)


def test_validate_decomposition_coverage_failure():
    p = digraph(["0", "1", "2"], {("0", "1"), ("1", "2"), ("0", "2")})
    d = _td(["n0", "n1"], [("n0", "n1")], {"n0": {"0", "1"}, "n1": {"1", "2"}})
    assert not q.validate_decomposition(p, d)


def test_validate_decomposition_connectivity_failure():
    s = digraph(["a", "b"], set())
    d = _td(
        ["n0", "n1", "n2"],
        [("n0", "n1"), ("n1", "n2")],
        {"n0": {"a"}, "n1": {"b"}, "n2": {"a"}},
    )
    assert not q.validate_decomposition(s, d)


def test_validate_decomposition_rejects_non_trees():
    s = digraph(["a"], set())
    loopy = _td(["n0", "n1"], [("n0", "n1"), ("n1", "n0")], {"n0": {"a"}, "n1": {"a"}})
    assert not q.validate_decomposition(s, loopy)
    disconnected = _td(["n0", "n1"], [], {"n0": {"a"}, "n1": {"a"}})
    assert not q.validate_decomposition(s, disconnected)


def test_treewidth_exact_known_values():
    cases = [
        (path_digraph(4), 1),
        (clique_digraph(4), 3),
        (cycle_digraph(5), 2),
    ]
    for structure, expected in cases:
        assert exhaustive_treewidth(structure) == expected
        width, witness = q.treewidth_exact(structure)
        assert width == expected
        assert q.validate_decomposition(structure, witness)
        assert witness.width() == expected


def test_treewidth_exact_matches_elimination_oracle_random():
    rng = random.Random(59)
    structures = [random_structure(rng, E2, 5) for _ in range(40)]
    # seeded graphs on six and seven elements, widths 1 to 4, against all
    # 720 or 5,040 elimination orders
    rng = random.Random(61)
    for size in (6, 7):
        for density in (0.2, 0.4, 0.6, 0.8):
            universe = tuple(f"v{i}" for i in range(size))
            edges = {(x, y) for x in universe for y in universe if x < y and rng.random() < density}
            structures.append(digraph(universe, edges))
    for s in structures:
        width, witness = q.treewidth_exact(s)
        assert width == exhaustive_treewidth(s)
        assert witness.width() == width
        assert q.validate_decomposition(s, witness)


def test_treewidth_exact_limit():
    # the guard covers only the exponential search: 21 elements whose bounds
    # disagree raise, and bounds that meet answer at any size
    big = q.Structure(E2, FALLBACK.universe + tuple(f"w{i}" for i in range(14)), FALLBACK.relations)
    assert (minor_min_width(big), q.treewidth_upper(big)[0]) == (3, 4)
    with pytest.raises(q.LimitExceeded):
        q.treewidth_exact(big)
    assert q.treewidth_exact(digraph([f"v{i}" for i in range(21)], set()))[0] == 0
    width, witness = q.treewidth_exact(path_digraph(40))
    assert width == 1 and q.validate_decomposition(path_digraph(40), witness)


def _seeded_graphs():
    # At these densities minor-min-width and min-fill disagree on about one
    # graph in twelve, so the decision search runs as well as the bounds.
    rng = random.Random(89)
    for _ in range(200):
        universe = tuple(f"v{i}" for i in range(rng.randint(4, 11)))
        density = rng.choice((0.4, 0.55, 0.7))
        yield digraph(
            universe, {(x, y) for x in universe for y in universe if x < y and rng.random() < density}
        )


SEEDED_GRAPHS = list(_seeded_graphs())


def test_treewidth_exact_matches_table_reference():
    fallbacks = improved = 0
    for s in SEEDED_GRAPHS:
        width, witness = q.treewidth_exact(s)
        assert width == table_treewidth_exact(s)[0]
        assert witness.width() == width
        assert q.validate_decomposition(s, witness)
        upper = q.treewidth_upper(s)[0]
        fallbacks += minor_min_width(s) != upper
        improved += width < upper
    assert fallbacks >= 10
    assert improved >= 1  # the decision search finds widths min-fill misses


def test_treewidth_bounds_bracket_exact():
    for s in SEEDED_GRAPHS:
        assert minor_min_width(s) <= q.treewidth_exact(s)[0] <= q.treewidth_upper(s)[0]


def test_treewidth_exact_triangulated_grid_from_bounds():
    # 20 elements: the subset table over 2**20 sets took about 37 s here
    grid = triangulated_grid(4, 5)
    assert minor_min_width(grid) == 4
    width, witness = q.treewidth_exact(grid)
    assert width == witness.width() == 4
    assert q.validate_decomposition(grid, witness)


def test_treewidth_upper_examples():
    width, witness = q.treewidth_upper(path_digraph(6))
    assert width == 1
    assert q.validate_decomposition(path_digraph(6), witness)

    width, witness = q.treewidth_upper(clique_digraph(4))
    assert width == 3
    assert q.validate_decomposition(clique_digraph(4), witness)


def test_treewidth_upper_matches_rescanning_reference():
    rng = random.Random(67)
    for i in range(400):
        a = random_structure(rng, (E2, PET)[i % 2], 9, density=(0.1, 0.25, 0.5)[i % 3])
        assert q.treewidth_upper(a) == rescan_treewidth_upper(a)
    # stars, the hub anywhere in the universe and some leaves joined up:
    # eliminating a leaf adds no fill edge, so only the neighbours' fill drops
    for leaves in (1, 2, 5, 12, 30):
        for hub in {0, leaves // 2, leaves}:
            names = [f"l{i}" for i in range(leaves)]
            names.insert(hub, "h")
            edges = {("h", x) for x in names if x != "h"}
            star = digraph(names, edges)
            assert q.treewidth_upper(star) == rescan_treewidth_upper(star)
            extra = {(f"l{i}", f"l{i + 1}") for i in range(0, leaves - 1, 3)}
            linked = digraph(names, edges | extra)
            assert q.treewidth_upper(linked) == rescan_treewidth_upper(linked)
    # min-fill eliminates a path from its first end, one element at a time
    path = path_digraph(1500)
    assert q.treewidth_upper(path) == (1, q.decomposition_from_order(path, path.universe))
    # and a star's leaves in universe order, then the hub, which comes first
    star = digraph(["h"] + [f"l{i:03}" for i in range(800)], {("h", f"l{i:03}") for i in range(800)})
    order = list(star.universe[1:-1]) + ["h", star.universe[-1]]
    assert q.treewidth_upper(star) == (1, q.decomposition_from_order(star, order))


def test_treewidth_upper_bounds_exact():
    rng = random.Random(61)
    for _ in range(40):
        s = random_structure(rng, E2, 6)
        upper, witness = q.treewidth_upper(s)
        assert q.validate_decomposition(s, witness)
        exact, _ = q.treewidth_exact(s)
        assert exact <= upper


def test_treewidth_monotone_under_substructures():
    rng = random.Random(67)
    for _ in range(25):
        s = random_structure(rng, E2, 5)
        whole, _ = q.treewidth_exact(s)
        size = rng.randint(1, len(s.universe))
        part = q.induced_substructure(s, set(rng.sample(s.universe, size)))
        sub, _ = q.treewidth_exact(part)
        assert sub <= whole


def test_pp_from_decomposition_path_two_variables():
    p = digraph(["a", "b", "c"], {("a", "b"), ("b", "c")})
    d = _td(["n0", "n1"], [("n0", "n1")], {"n0": {"a", "b"}, "n1": {"b", "c"}})
    sentence = q.pp_from_decomposition(p, d, 2)
    info = q.classify(sentence)
    assert info.fragment == "PP"
    assert info.variables <= 2
    reference = q.canonical_query(p)
    for b in all_structures(E2, ("x", "y", "z")):
        assert q.eval_naive(sentence, b) == q.eval_naive(reference, b)


def test_pp_from_decomposition_single_loop():
    loop = digraph(["a"], {("a", "a")})
    d = _td(["n0"], [], {"n0": {"a"}})
    sentence = q.pp_from_decomposition(loop, d, 1)
    assert sentence == q.Exists("x1", q.Atom("E", ("x1", "x1")))


def test_pp_from_decomposition_rejects_wide_input():
    k4 = clique_digraph(4)
    _, witness = q.treewidth_exact(k4)
    with pytest.raises(q.EpqError):
        q.pp_from_decomposition(k4, witness, 3)


def test_pp_from_decomposition_equivalence_random():
    rng = random.Random(71)
    worlds = list(all_structures(E2, ("x", "y"))) + [
        s for s in itertools.islice(all_structures(E2, ("x", "y", "z")), 0, 512, 7)
    ]
    for _ in range(25):
        s = random_structure(rng, E2, 5)
        width, witness = q.treewidth_exact(s)
        k = width + 1
        sentence = q.pp_from_decomposition(s, witness, k)
        assert q.classify(sentence).variables <= k
        reference = q.canonical_query(s)
        for b in rng.sample(worlds, 30):
            assert q.eval_naive(sentence, b) == q.eval_naive(reference, b)


def test_pp_from_decomposition_output_is_pinned():
    # sha1 of the rendered forms, recorded while each tuple's home bag was
    # found by scanning every bag: the bag index must pick the same homes
    rng = random.Random(71)
    digest = hashlib.sha1()
    for i in range(60):
        a = random_structure(rng, (E2, PET)[i % 2], 8, density=(0.15, 0.3, 0.5)[i % 3])
        width, d = q.treewidth_upper(a)
        digest.update(q.render(q.pp_from_decomposition(a, d, width + 1)).encode())
    assert digest.hexdigest() == "8f7a4d3a52786975b88dcbcc1a472a21d452161a"
    path = path_digraph(1500)
    form = q.pp_from_decomposition(path, q.decomposition_from_order(path, path.universe), 2)
    assert hashlib.sha1(q.render(form).encode()).hexdigest() == (
        "c0112a82a66be0bf0e915fa5452893dd90fdf58a"
    )


def test_validate_decomposition_coverage_matches_bag_scan():
    # A decomposition of one structure is a tree with connected element
    # sets, so on another structure over the same universe only tuple
    # coverage can fail.
    rng = random.Random(73)
    verdicts = set()
    for _ in range(200):
        a = random_structure(rng, E2, 7, density=0.3)
        _, d = q.treewidth_upper(a)
        edges = {t for t in itertools.product(a.universe, repeat=2) if rng.random() < 0.15}
        other = digraph(a.universe, edges)
        covered = all(any(set(t) <= bag for bag in d.bags.values()) for t in edges)
        assert q.validate_decomposition(other, d) == covered
        verdicts.add(covered)
    assert verdicts == {True, False}


def _perturbed(rng, a, d):
    # One change to a valid decomposition: a rewired, added or dropped edge
    # breaks tree-ness, an element added to a bag can break its connectivity,
    # and an element dropped from a bag can break connectivity or coverage.
    edges, bags = list(d.edges), dict(d.bags)
    kind = rng.choice(("rewire", "add_edge", "drop_edge", "add_elem", "drop_elem"))
    if kind == "rewire":
        edges[rng.randrange(len(edges))] = (rng.choice(d.nodes), rng.choice(d.nodes))
    elif kind == "add_edge":
        edges.append((rng.choice(d.nodes), rng.choice(d.nodes)))
    elif kind == "drop_edge":
        del edges[rng.randrange(len(edges))]
    else:
        node = rng.choice(d.nodes)
        if kind == "add_elem":
            bags[node] = bags[node] | {rng.choice(a.universe)}
        else:
            bags[node] = bags[node] - {rng.choice(sorted(bags[node]))}
    return kind, q.TreeDecomposition(d.nodes, tuple(edges), bags)


def test_validate_decomposition_matches_dfs_reference():
    rng = random.Random(79)
    verdicts = {}
    for i in range(600):
        a = random_structure(rng, (E2, PET)[i % 2], 8, density=(0.1, 0.2, 0.35)[i % 3])
        _, d = q.treewidth_upper(a)
        if len(d.nodes) < 2:
            continue
        kind, changed = _perturbed(rng, a, d)
        verdict = dfs_validate_decomposition(a, changed)
        assert q.validate_decomposition(a, changed) == verdict
        verdicts.setdefault(kind, set()).add(verdict)
    both = {True, False}
    assert verdicts == {"rewire": both, "add_edge": {False}, "drop_edge": {False},
                        "add_elem": both, "drop_elem": both}


def test_decide_ppk_examples():
    k3 = clique_digraph(3)
    query = q.canonical_query(k3)
    assert q.decide_ppk(query, 3)
    assert not q.decide_ppk(query, 2)

    two_cycle = cycle_digraph(2)
    assert q.decide_ppk(q.canonical_query(two_cycle), 2)

    collapse = q.parse_formula("exists x . exists y . (x = y & E(x,y))")
    assert q.decide_ppk(collapse, 1)


def test_decide_ppk_matches_exact_width():
    # Canonical queries of graphs with one label per element: each is its
    # own core, so the width of its graph decides it.
    rng = random.Random(97)
    for _ in range(40):
        n = rng.randint(5, 10)
        density = rng.choice((0.4, 0.5, 0.6, 0.7))
        universe = tuple(f"v{i}" for i in range(n))
        relations = {"E": {(x, y) for x in universe for y in universe
                           if x < y and rng.random() < density}}
        relations.update({f"L{i + 1}": {(universe[i],)} for i in range(n)})
        psi = q.canonical_query(q.Structure(q.labelled_signature(n), universe, relations))
        width, _ = table_treewidth_exact(q.core(q.structure_of_pp(psi)))
        assert [q.decide_ppk(psi, k) for k in range(1, 6)] == [width < k for k in range(1, 6)]


def test_treewidth_rejects_an_empty_universe():
    empty = q.Structure(E2, (), {})
    for decompose in (q.treewidth_upper, q.treewidth_exact, q.outdeg1_decomposition):
        with pytest.raises(q.EpqError):
            decompose(empty)


def test_decomposition_text_round_trip():
    d = _td(
        ["n0", "n1"],
        [("n0", "n1")],
        {"n0": {"a", "b"}, "n1": {"b", "c"}},
    )
    text = q.format_decomposition(d)
    again = q.parse_decomposition(text)
    assert set(again.nodes) == set(d.nodes)
    assert again.bags == d.bags
    assert q.format_decomposition(again) == text
    with pytest.raises(q.ParseError):
        q.parse_decomposition("edge n0 n1")
    # an edge to an unknown node is reported at its own line
    with pytest.raises(q.ParseError) as caught:
        q.parse_decomposition("node n0 a b\nnode n1 b c\n\nedge n0 n1\nedge n1 n9\n")
    assert caught.value.line == 5
