#!/usr/bin/env python3
"""Tree decompositions and compiling queries into few variables.

A tree decomposition with small bags lets the canonical query of a
structure be rewritten with a fixed pool of variable names: names are
re-quantified as elements leave scope while walking the tree.  Whether a
primitive positive sentence fits in k variables at all is decided by the
treewidth of the core of its induced structure.
"""

import epquery as q

sig = q.digraph_signature()


def digraph(universe, edges):
    return q.Structure(sig, tuple(universe), {"E": set(edges)})


# Exact treewidth: min-fill and minor-min-width bounds first, and a search
# over elimination orders only when the two bounds disagree.
path4 = digraph("abcd", {("a", "b"), ("b", "c"), ("c", "d")})
k4 = digraph("wxyz", {(x, y) for x in "wxyz" for y in "wxyz" if x != y})
cycle5 = digraph("01234", {(str(i), str((i + 1) % 5)) for i in range(5)})
for name, s in (("path on 4", path4), ("complete on 4", k4), ("5-cycle", cycle5)):
    width, witness = q.treewidth_exact(s)
    assert q.validate_decomposition(s, witness)
    print(f"treewidth of {name}: {width}")

# The min-fill heuristic gives a valid decomposition quickly; its width can
# only overshoot.
upper, _ = q.treewidth_upper(cycle5)
print("min-fill width of the 5-cycle:", upper)

# Compiling a path query into two variable names: the inner quantifier
# re-uses a name the moment its element leaves scope.
path3 = digraph("abc", {("a", "b"), ("b", "c")})
width, witness = q.treewidth_exact(path3)
sentence = q.pp_from_decomposition(path3, witness, 2)
print("\ntwo-variable form of the 3-path query:", q.render(sentence))
print("variables used:", q.classify(sentence).variables)

# It means exactly the same as the canonical query.
reference = q.canonical_query(path3)
probe = digraph("uv", {("u", "v"), ("v", "u")})
print("agree on a 2-cycle:",
      q.eval_naive(sentence, probe) == q.eval_naive(reference, probe))

# decide_ppk: can this sentence be written with k variables?
clique_query = q.canonical_query(k4)
print("\n4-clique query fits in 4 variables:", q.decide_ppk(clique_query, 4))
print("4-clique query fits in 3 variables:", q.decide_ppk(clique_query, 3))

# Equalities can collapse the structure first: this one is just a loop.
collapsed = q.parse_formula("exists x . exists y . (x = y & E(x,y))")
print("equality-collapsed sentence fits in 1 variable:", q.decide_ppk(collapsed, 1))
