"""Shared builders and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's search code paths:
homomorphism existence is decided by enumerating every map, treewidth by
enumerating every elimination order, satisfiability by enumerating every
assignment.  The reference versions at the end (``restart_core``,
``per_element_core``, ``two_phase_m_normalize``, ``rescan_treewidth_upper``,
``table_treewidth_exact``, ``flat_eval_dnf_hom``,
``renaming_structure_and_unions``, ``dfs_validate_decomposition``,
``per_tuple_constraints``, ``lifo_propagate``, ``per_tuple_search``,
``memo_every_node_eval_naive``, ``padded_or_eval_kvar``,
``compound_first_eval_kvar`` and ``reference_parse_formula``) do use the
library: they are the earlier, plainer control flow of ``core`` (two),
``m_normalize``, ``treewidth_upper``, ``treewidth_exact``,
``eval_dnf_hom``, ``formulas._structure_and_unions``,
``validate_decomposition``, ``homomorphism._constraints``,
``homomorphism._propagate``, ``find_homomorphism``, ``eval_naive``,
``eval_kvar`` (two) and ``parse_formula``, kept to pin their outputs.
"""

import importlib
import itertools
import random
import re

import epquery as q
from epquery import homomorphism
from epquery.errors import MAX_NODES
from epquery.formulas import _checked, _free_sets, walk
from epquery.structures import project_rows, repetition_pattern
from epquery.treewidth import _bits, _elimination_cost

E2 = q.digraph_signature()
# the module: the package exports the function ``evaluate`` under its name
evaluate = importlib.import_module("epquery.evaluate")


def digraph(universe, edges):
    return q.Structure(E2, tuple(universe), {"E": set(edges)})


def cycle_digraph(n, prefix="c"):
    names = [f"{prefix}{i}" for i in range(n)]
    edges = {(names[i], names[(i + 1) % n]) for i in range(n)}
    return digraph(names, edges)


def clique_digraph(n, prefix="k"):
    names = [f"{prefix}{i}" for i in range(n)]
    edges = {(x, y) for x in names for y in names if x != y}
    return digraph(names, edges)


def path_digraph(n, prefix="p"):
    names = [f"{prefix}{i}" for i in range(n)]
    edges = {(names[i], names[i + 1]) for i in range(n - 1)}
    return digraph(names, edges)


def triangulated_grid(rows, columns):
    """Digraph on a rows x columns grid with right, down and diagonal edges."""
    names = [f"g{r}_{c}" for r in range(rows) for c in range(columns)]
    edges = set()
    for r in range(rows):
        for c in range(columns):
            if c + 1 < columns:
                edges.add((f"g{r}_{c}", f"g{r}_{c + 1}"))
            if r + 1 < rows:
                edges.add((f"g{r}_{c}", f"g{r + 1}_{c}"))
                if c + 1 < columns:
                    edges.add((f"g{r}_{c}", f"g{r + 1}_{c + 1}"))
    return digraph(names, edges)


# minor-min-width 3, min-fill 4: treewidth_exact runs the decision search too
FALLBACK = digraph([f"v{i}" for i in range(7)], {
    ("v0", "v1"), ("v0", "v2"), ("v0", "v4"), ("v0", "v5"), ("v1", "v3"), ("v1", "v6"),
    ("v2", "v4"), ("v2", "v5"), ("v2", "v6"), ("v3", "v4"), ("v3", "v5"), ("v4", "v6"),
})


def sparse_digraph(seed, n, image):
    """Three random out-neighbours per vertex, plus i -> i+1 and i -> i+2 on
    the first ``image`` vertices, which holds an image of a 3-row grid."""
    rng = random.Random(seed)
    names = [f"b{i}" for i in range(n)]
    edges = {(u, v) for u in names for v in rng.sample([w for w in names if w != u], 3)}
    edges |= {(names[i], names[i + d]) for d in (1, 2) for i in range(image - d)}
    return digraph(names, edges)


def brute_hom_exists(a, b, fixed=None):
    """Oracle: enumerate all |B| ** |A| maps and test preservation directly;
    ``fixed`` keeps only the maps that send each of its keys to its value."""
    fixed = fixed or {}
    for values in itertools.product(b.universe, repeat=len(a.universe)):
        mapping = dict(zip(a.universe, values))
        if all(mapping[x] == v for x, v in fixed.items()) and all(
            tuple(mapping[x] for x in t) in b.relations[sym.name]
            for sym in a.signature
            for t in a.relations[sym.name]
        ):
            return True
    return False


def brute_iso_exists(a, b):
    """Oracle: enumerate all bijections and check preservation both ways."""
    if len(a.universe) != len(b.universe):
        return False
    for values in itertools.permutations(b.universe):
        mapping = dict(zip(a.universe, values))
        inverse = {v: k for k, v in mapping.items()}
        forward = all(
            tuple(mapping[x] for x in t) in b.relations[sym.name]
            for sym in a.signature
            for t in a.relations[sym.name]
        )
        backward = all(
            tuple(inverse[x] for x in t) in a.relations[sym.name]
            for sym in a.signature
            for t in b.relations[sym.name]
        )
        if forward and backward:
            return True
    return False


def all_structures(signature, universe):
    """Every structure over the signature on a fixed, named universe."""
    universe = tuple(universe)
    names = []
    choice_lists = []
    for sym in signature:
        tuples = list(itertools.product(universe, repeat=sym.arity))
        subsets = [
            {tuples[i] for i in range(len(tuples)) if mask >> i & 1}
            for mask in range(1 << len(tuples))
        ]
        names.append(sym.name)
        choice_lists.append(subsets)
    for combo in itertools.product(*choice_lists):
        yield q.Structure(signature, universe, dict(zip(names, combo)))


def random_structure(rng, signature, max_size, density=0.5, prefix="e"):
    n = rng.randint(1, max_size)
    universe = tuple(f"{prefix}{i}" for i in range(n))
    relations = {}
    for sym in signature:
        relations[sym.name] = {
            t
            for t in itertools.product(universe, repeat=sym.arity)
            if rng.random() < density
        }
    return q.Structure(signature, universe, relations)


def random_ep_formula(rng, signature, max_vars=4, max_depth=4):
    """A closed existential positive sentence; atoms only use in-scope variables."""
    pool = [f"w{i}" for i in range(1, max_vars + 1)]
    symbols = list(signature)

    def atom(scope):
        sym = rng.choice(symbols)
        return q.Atom(sym.name, tuple(rng.choice(scope) for _ in range(sym.arity)))

    def gen(depth, scope):
        if depth <= 0:
            if scope:
                return atom(scope)
            v = rng.choice(pool)
            return q.Exists(v, atom([v]))
        roll = rng.random()
        if not scope or roll < 0.35:
            v = rng.choice(pool)
            return q.Exists(v, gen(depth - 1, sorted(set(scope) | {v})))
        if roll < 0.6:
            return q.conj([gen(depth - 1, scope) for _ in range(2)])
        if roll < 0.85:
            return q.disj([gen(depth - 1, scope) for _ in range(2)])
        return atom(scope)

    sentence = gen(max_depth, [])
    for v in sorted(q.free_variables(sentence)):
        sentence = q.Exists(v, sentence)
    return sentence


UNION_SIG = q.Signature(
    [q.RelationSymbol("P", 1), q.RelationSymbol("E", 2), q.RelationSymbol("T", 3)]
)


def random_union_sentence(rng, max_vars=4, max_depth=3):
    """A closed EP sentence over P/1, E/2 and T/3 rich in ``Or``s of atoms.

    Atoms repeat arguments freely; some ``Or``s put each branch on its own
    variable; and ``Or``s of atoms also sit inside ``Or``s whose children
    are compound.  Atoms only use in-scope variables, and quantifiers reuse
    names, so inner ones shadow outer ones.
    """
    pool = [f"w{i}" for i in range(1, max_vars + 1)]
    symbols = list(UNION_SIG)

    def atom(scope):
        sym = rng.choice(symbols)
        return q.Atom(sym.name, tuple(rng.choice(scope) for _ in range(sym.arity)))

    def union(scope):
        if len(scope) > 1 and rng.random() < 0.3:  # one branch per variable
            return q.Or(tuple(atom([v]) for v in scope))
        return q.Or(tuple(atom(scope) for _ in range(rng.randint(2, 3))))

    def gen(depth, scope):
        if not scope:
            v = rng.choice(pool)
            return q.Exists(v, gen(depth - 1, [v]))
        roll = rng.random()
        if depth <= 0:
            return atom(scope) if roll < 0.4 else union(scope)
        if roll < 0.3:
            v = rng.choice(pool)
            return q.Exists(v, gen(depth - 1, sorted(set(scope) | {v})))
        if roll < 0.55:
            return q.And((gen(depth - 1, scope), gen(depth - 1, scope)))
        if roll < 0.8:  # an Or with compound children
            return q.Or((gen(depth - 1, scope), q.And((union(scope), gen(depth - 1, scope)))))
        return union(scope)

    return gen(max_depth, [])


FO_SIG = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("E", 2)])


def random_fo_sentence(rng, max_vars=3, max_depth=4):
    """A closed first-order sentence over P/1 and E/2 with ``Not``,
    ``Forall`` and equalities.

    Quantifiers reuse names, so inner ones shadow outer ones.  A conjunction
    puts a compound child first, often an ``Or`` over all of its variables,
    and then ``Or``s over some of them, often one branch per variable, so
    the bounded-variable evaluator filters some ``Or``s through an earlier
    part of the conjunction and pads others; ``Or``s also sit directly
    under quantifiers.
    """
    pool = [f"w{i}" for i in range(1, max_vars + 1)]

    def leaf(scope):
        roll = rng.random()
        if roll < 0.15:
            return q.Equality(rng.choice(scope), rng.choice(scope))
        if roll < 0.5:
            return q.Atom("P", (rng.choice(scope),))
        return q.Atom("E", (rng.choice(scope), rng.choice(scope)))

    def union(scope):
        some = rng.sample(scope, rng.randint(1, len(scope)))
        if rng.random() < 0.4:  # one branch per variable
            return q.Or((*(q.Atom("P", (v,)) for v in some), leaf(some)))
        return q.Or(tuple(leaf(some) for _ in range(rng.randint(2, 3))))

    def wide(scope):  # an Or in which every variable of the scope occurs
        ring = zip(scope, scope[1:] + scope[:1])
        return q.Or((*(q.Atom("E", pair) for pair in ring), leaf(scope)))

    def gen(depth, scope):
        if not scope or (depth > 0 and rng.random() < 0.3):
            v = rng.choice(pool)
            kind = q.Exists if rng.random() < 0.6 else q.Forall
            return kind(v, gen(depth - 1, sorted(set(scope) | {v})))
        if depth <= 0:
            return leaf(scope) if rng.random() < 0.5 else union(scope)
        roll = rng.random()
        if roll < 0.15:
            return q.Not(gen(depth - 1, scope))
        if roll < 0.6:
            first = gen(depth - 1, scope) if rng.random() < 0.5 else wide(scope)
            ors = [union(scope) for _ in range(rng.randint(1, 2))]
            return q.And((first, *ors, leaf(scope)))
        if roll < 0.8:
            return q.Or((gen(depth - 1, scope), gen(depth - 1, scope)))
        return union(scope)

    sentence = gen(max_depth, sorted(rng.sample(pool, rng.randint(1, max_vars))))
    for v in sorted(q.free_variables(sentence)):
        sentence = (q.Exists if rng.random() < 0.6 else q.Forall)(v, sentence)
    return sentence


FOLD_SIG = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1),
                        q.RelationSymbol("E", 2), q.RelationSymbol("F", 2)])


def random_foldable_structure(rng):
    """A structure over FOLD_SIG whose relations are often empty, full, or
    one tuple short of full; some universes have one element."""
    universe = tuple(f"e{i}" for i in range(rng.choice((1, 2, 2, 3, 3))))
    relations = {}
    for sym in FOLD_SIG:
        every = list(itertools.product(universe, repeat=sym.arity))
        roll = rng.random()
        if roll < 0.12:
            rows = []
        elif roll < 0.24:
            rows = every
        elif roll < 0.5:
            rows = rng.sample(every, len(every) - 1)
        else:
            rows = [t for t in every if rng.random() < 0.5]
        relations[sym.name] = set(rows)
    return q.Structure(FOLD_SIG, universe, relations)


def random_foldable_sentence(rng, max_vars=3, max_depth=3):
    """A closed first-order sentence over FOLD_SIG with ``Not``, ``Forall``
    and equalities, ``x = x`` among them.

    Conjunctions and disjunctions join parts over different subsets of the
    variables in scope, so a quantifier above them has parts that do not
    mention its variable.  Quantifiers reuse names, so inner ones shadow
    outer ones, and some bind a variable their body does not use.  Some
    parts occur twice in their parent as one node.
    """
    pool = [f"w{i}" for i in range(1, max_vars + 1)]

    def leaf(scope):
        x = rng.choice(scope)
        roll = rng.random()
        if roll < 0.1:
            return q.Equality(x, x if rng.random() < 0.4 else rng.choice(scope))
        if roll < 0.45:
            return q.Atom(rng.choice("PQ"), (x,))
        return q.Atom(rng.choice("EF"), (x, rng.choice(scope)))

    def gen(depth, scope):
        roll = rng.random()
        if not scope or (depth > 0 and roll < 0.3):
            v = rng.choice(pool)
            kind = q.Exists if rng.random() < 0.6 else q.Forall
            others = [x for x in scope if x != v]
            inner = others if others and rng.random() < 0.2 else sorted(set(scope) | {v})
            return kind(v, gen(depth - 1, inner))
        if depth <= 0:
            return leaf(scope)
        kind = q.And if roll < 0.6 else q.Or
        parts = [gen(depth - 1, rng.sample(scope, rng.randint(1, len(scope))))
                 for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.25:
            parts.append(q.Not(parts.pop()))
        if rng.random() < 0.2:  # one node, two occurrences
            parts.append(parts[0])
        return kind(tuple(parts))

    sentence = gen(max_depth, sorted(rng.sample(pool, rng.randint(1, max_vars))))
    for v in sorted(q.free_variables(sentence)):
        sentence = (q.Exists if rng.random() < 0.6 else q.Forall)(v, sentence)
    return sentence


def random_pp_formula(rng, signature, max_vars=3, max_depth=3):
    """A closed primitive positive sentence, occasionally with equality atoms."""
    pool = [f"w{i}" for i in range(1, max_vars + 1)]
    symbols = list(signature)

    def atom(scope):
        if symbols and rng.random() < 0.8:
            sym = rng.choice(symbols)
            return q.Atom(sym.name, tuple(rng.choice(scope) for _ in range(sym.arity)))
        return q.Equality(rng.choice(scope), rng.choice(scope))

    def gen(depth, scope):
        if depth <= 0:
            if scope:
                return atom(scope)
            v = rng.choice(pool)
            return q.Exists(v, atom([v]))
        roll = rng.random()
        if not scope or roll < 0.4:
            v = rng.choice(pool)
            return q.Exists(v, gen(depth - 1, sorted(set(scope) | {v})))
        if roll < 0.75:
            return q.conj([gen(depth - 1, scope) for _ in range(2)])
        return atom(scope)

    sentence = gen(max_depth, [])
    for v in sorted(q.free_variables(sentence)):
        sentence = q.Exists(v, sentence)
    return sentence


def random_labelled_digraph(rng, labels, max_size, prefix="b"):
    sig = q.labelled_signature(labels)
    n = rng.randint(1, max_size)
    universe = tuple(f"{prefix}{i}" for i in range(n))
    relations = {
        "E": {t for t in itertools.product(universe, repeat=2) if rng.random() < 0.5}
    }
    for i in range(1, labels + 1):
        relations[f"L{i}"] = {(v,) for v in universe if rng.random() < 0.5}
    return q.Structure(sig, universe, relations)


def elimination_width(a, order):
    """Width of the decomposition induced by one elimination order."""
    adj = {e: set(ns) for e, ns in q.gaifman_adjacency(a).items()}
    width = 0
    for v in order:
        neigh = adj[v]
        width = max(width, len(neigh))
        for u in neigh:
            adj[u].update(neigh - {u})
            adj[u].discard(v)
        del adj[v]
    return width


def exhaustive_treewidth(a):
    """Oracle: minimum elimination width over every vertex ordering."""
    return min(elimination_width(a, order) for order in itertools.permutations(a.universe))


def cnf_satisfiable(cnf):
    """Oracle: enumerate every assignment."""
    for bits in itertools.product((False, True), repeat=cnf.variables):
        def lit_true(lit):
            value = bits[abs(lit) - 1]
            return value if lit > 0 else not value

        if all(any(lit_true(lit) for lit in clause) for clause in cnf.clauses):
            return True
    return False


def random_cnf(rng, max_vars=3, max_clauses=3):
    n = rng.randint(1, max_vars)
    literals = [v for i in range(1, n + 1) for v in (i, -i)]
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        size = rng.randint(1, min(3, len(literals)))
        clauses.append(frozenset(rng.sample(literals, size)))
    return q.CnfFormula(n, tuple(clauses))


def all_two_vertex_digraphs():
    names = ("a", "b")
    pairs = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    for mask in range(16):
        yield digraph(names, {pairs[i] for i in range(4) if mask >> i & 1})


def restart_core(a):
    """Reference ``core``: after each removal, rescan from the first element."""
    current = a
    while len(current.universe) > 1:
        for elem in current.universe:
            candidate = q.induced_substructure(current, [e for e in current.universe if e != elem])
            if q.find_homomorphism(current, candidate) is not None:
                current = candidate
                break
        else:
            break
    return current


def per_element_core(a, *, max_nodes=MAX_NODES, stats=None):
    """Reference ``core``: one pass in universe order that builds each
    candidate substructure and searches a fresh ``current -> candidate``."""
    current = a
    for elem in a.universe:
        if len(current.universe) == 1:
            break
        candidate = q.induced_substructure(current, [e for e in current.universe if e != elem])
        if q.find_homomorphism(current, candidate, max_nodes=max_nodes, stats=stats) is not None:
            current = candidate
    return current


def two_phase_m_normalize(phi):
    """Reference ``m_normalize``: group by ``hom_equivalent``, then filter the
    class representatives with a separate entailment table."""
    disjuncts = q.to_pp_disjunction(phi)
    signature = q.formula_signature(phi)
    structs = [q.structure_of_pp(d, signature) for d in disjuncts]
    reps = []
    for i, struct in enumerate(structs):
        if not any(q.hom_equivalent(struct, structs[rep]) for rep in reps):
            reps.append(i)

    def entails(i, j):
        return q.find_homomorphism(structs[j], structs[i]) is not None

    return [disjuncts[rep] for rep in reps
            if all(other == rep or not entails(rep, other) for other in reps)]


def rescan_treewidth_upper(a):
    """Min-fill elimination that recounts every element's fill at each step."""
    adj = q.gaifman_adjacency(a)
    position = {elem: i for i, elem in enumerate(a.universe)}
    order = []
    while adj:
        elem = min(adj, key=lambda e: (
            sum(w not in adj[u] for u, w in itertools.combinations(adj[e], 2)), position[e]))
        neigh = adj.pop(elem)
        for u in neigh:
            adj[u] |= neigh - {u}
            adj[u].discard(elem)
        order.append(elem)
    witness = q.decomposition_from_order(a, order)
    return witness.width(), witness


def table_treewidth_exact(a):
    """Reference ``treewidth_exact``: a bottom-up table over all 2**n subsets.

    States are sets of already-eliminated elements; the cost of eliminating v
    after a set is its forward degree through that set.  The table is filled
    one bitmask after another, and the order is read back from it.
    """
    n = len(a.universe)
    index = {elem: i for i, elem in enumerate(a.universe)}
    adj_masks = [0] * n
    for elem, neigh in q.gaifman_adjacency(a).items():
        for u in neigh:
            adj_masks[index[elem]] |= 1 << index[u]

    def cost(mask, v):
        # width of eliminating v last among mask, the rest of mask optimally before it
        rest = mask & ~(1 << v)
        return max(best[rest], _elimination_cost(adj_masks, rest, v))

    # best[mask] is the least width of eliminating exactly the elements of
    # mask first; each subset of mask is a smaller index, so it is filled already.
    full = (1 << n) - 1
    best = [-1] * (full + 1)
    for mask in range(1, full + 1):
        best[mask] = min(cost(mask, v) for v in _bits(mask))

    order_rev = []
    mask = full
    while mask:
        pick = min(_bits(mask), key=lambda v: cost(mask, v))  # first minimum wins
        order_rev.append(pick)
        mask &= ~(1 << pick)
    order = [a.universe[v] for v in reversed(order_rev)]
    return best[full], q.decomposition_from_order(a, order)


def flat_eval_dnf_hom(phi, b, *, stats=None):
    """Reference ``eval_dnf_hom``: flatten every ``Or``, then run one
    ``find_homomorphism`` per primitive positive disjunct."""
    for psi in q.to_pp_disjunction(phi):
        struct = q.structure_of_pp(psi, b.signature)
        if q.find_homomorphism(struct, b, stats=stats) is not None:
            return True
    return False


def _alpha_rename(g, env, taken, bound_seen):
    """Give every quantifier occurrence its own variable name, scope-aware."""
    kind = type(g)
    if kind is q.Atom:
        return q.Atom(g.symbol, tuple(env[x] for x in g.args))
    if kind is q.Equality:
        return q.Equality(env[g.left], env[g.right])
    if kind is q.Exists or kind is q.Forall:
        if g.var in bound_seen:
            i = 2
            while f"{g.var}_{i}" in taken:
                i += 1
            new = f"{g.var}_{i}"
            taken.add(new)
        else:
            new = g.var
        bound_seen.add(new)
        child = yield _alpha_rename(g.child, {**env, g.var: new}, taken, bound_seen)
        return kind(new, child)
    kids = []
    for c in q.children(g):
        kids.append((yield _alpha_rename(c, env, taken, bound_seen)))
    return q.rebuild(g, kids)


def renaming_structure_and_unions(psi, signature=None):
    """Reference ``formulas._structure_and_unions``: rename bound variables
    apart in one walk that builds a renamed copy of the sentence, then
    collect quantifiers, atoms, equalities and ``Or``s in a second walk."""
    renamed = walk(_alpha_rename(psi, {}, set(q.variable_names(psi)), set()))
    quantified = []
    atoms = []
    equalities = []
    ors = []
    stack = [renamed]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is q.Exists:
            quantified.append(g.var)
        elif kind is q.Atom:
            atoms.append(g)
        elif kind is q.Equality:
            equalities.append((g.left, g.right))
        elif kind is q.Or:
            ors.append(g.children)
            continue
        stack.extend(reversed(q.children(g)))

    parent = {v: v for v in quantified}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for x, y in equalities:
        rx, ry = find(x), find(y)
        root = min(rx, ry)
        parent[rx] = root
        parent[ry] = root

    universe = []
    for v in quantified:
        if find(v) not in universe:
            universe.append(find(v))
    if signature is None:
        signature = q.formula_signature(psi)

    def merged(atom):
        if atom.symbol not in signature:
            raise q.EpqError(f"symbol {atom.symbol!r} is not in the supplied signature")
        if signature.arity(atom.symbol) != len(atom.args):
            raise q.EpqError(f"arity mismatch for symbol {atom.symbol!r}")
        return atom.symbol, tuple(find(x) for x in atom.args)

    relations = {}
    for atom in atoms:
        name, args = merged(atom)
        relations.setdefault(name, set()).add(args)
    unions = [[merged(atom) for atom in branches] for branches in ors]
    return q.Structure(signature, tuple(universe), relations), unions


def dfs_validate_decomposition(a, d):
    """Reference ``validate_decomposition``: a search for tree-ness, one
    search per element for connectivity, and an element-to-nodes index that
    intersects each tuple's node sets for coverage."""
    if len(set(d.nodes)) != len(d.nodes) or set(d.bags) != set(d.nodes):
        return False
    if not d.nodes or len(d.edges) != len(d.nodes) - 1:
        return False
    neighbours = {n: set() for n in d.nodes}
    for x, y in d.edges:
        if x not in neighbours or y not in neighbours or x == y:
            return False
        neighbours[x].add(y)
        neighbours[y].add(x)
    seen = {d.nodes[0]}
    stack = [d.nodes[0]]
    while stack:
        for nxt in neighbours[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(d.nodes):
        return False
    if any(not bag or not set(bag) <= set(a.universe) for bag in d.bags.values()):
        return False

    occurrences = {}
    for node in d.nodes:
        for elem in d.bags[node]:
            occurrences.setdefault(elem, set()).add(node)
    for nodes in occurrences.values():
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            for nxt in neighbours[stack.pop()]:
                if nxt in nodes and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != nodes:
            return False
    return all(
        set.intersection(*(occurrences.get(elem, set()) for elem in t))
        for sym in a.signature
        for t in a.relations[sym.name]
    )


def per_tuple_constraints(source, unions, target, fixed):
    """Reference ``homomorphism._constraints``: the source side is redone per
    call, one source tuple at a time in relation-set order, and the root
    fixpoint is reached by ``lifo_propagate``."""
    if source.signature != target.signature:
        raise q.SignatureMismatch("homomorphism search needs similar structures")
    if not source.universe or not target.universe:
        raise q.EpqError("homomorphism search needs non-empty universes")
    prepared = homomorphism._prepared(target)
    tindex = prepared.tindex
    sindex = {e: i for i, e in enumerate(source.universe)}
    n = len(source.universe)
    full = (1 << prepared.size) - 1
    domains = [full] * n
    if fixed:
        for elem, val in fixed.items():
            if elem not in sindex:
                raise q.EpqError(f"fixed element {elem!r} is not in the source universe")
            if val not in tindex:
                raise q.EpqError(f"fixed value {val!r} is not in the target universe")
            domains[sindex[elem]] &= 1 << tindex[val]
    arcs = [{} for _ in range(n)]
    scans = [[] for _ in range(n)]
    union_of = {}
    degree = [0] * n
    for sym in source.signature:
        for t in source.relations[sym.name]:
            distinct, pattern = repetition_pattern(t)
            entry = prepared.entry(sym.name, pattern)
            _, cols, fwd, rev = entry
            vars = [sindex[x] for x in distinct]
            for v, col in zip(vars, cols):
                domains[v] &= col
            if len(vars) == 2:
                for (x, y), out, back in ((vars, fwd, rev), (vars[::-1], rev, fwd)):
                    arcs[x].setdefault(id(out), (out, back, []))[2].append(y)
            elif len(vars) > 2:
                for v in vars:
                    scans[v].append((vars, entry))
            if len(vars) > 1:
                for v in vars:
                    degree[v] += 1
    arcs = [list(groups.values()) for groups in arcs]
    queue = {v: full ^ dom for v, dom in enumerate(domains) if dom != full}
    for union in unions:
        branches = []
        for name, args in union:
            distinct, pattern = repetition_pattern(args)
            branches.append(([sindex[x] for x in distinct], prepared.entry(name, pattern)))
        scope = sorted({v for vars, _ in branches for v in vars})
        for v in scope:
            union_of.setdefault(v, {})[id(branches)] = branches
            if len(scope) > 1:
                degree[v] += 1
        queue.setdefault(scope[0], 0)
    if not all(domains) or not lifo_propagate(domains, arcs, scans, union_of, queue, []):
        return None
    return domains, (arcs, scans, union_of, degree)


def lifo_propagate(domains, arcs, scans, unions, queue, trail):
    """Reference ``homomorphism._propagate``: the newest queued variable is
    processed first."""
    remove, supported = homomorphism._remove, homomorphism._supported
    pending = {}
    while queue or pending:
        if not queue:
            kept = homomorphism._union_kept(pending.popitem()[1], domains)
            if kept is None:
                return False
            for v, values in kept.items():
                removed = domains[v] & ~values
                if removed:
                    remove(domains, v, removed, queue, trail)
            continue
        x, lost = queue.popitem()
        for vars, entry in scans[x]:
            for v, kept in zip(vars, supported(vars, entry, domains)):
                removed = domains[v] & ~kept
                if removed and not remove(domains, v, removed, queue, trail):
                    return False
        if x in unions:
            pending.update(unions[x])
        dom_x = domains[x]
        from_lost = lost.bit_count() < dom_x.bit_count()
        for out, back, ys in arcs[x]:
            reached = 0
            rest = lost if from_lost else dom_x
            while rest:
                bit = rest & -rest
                rest ^= bit
                reached |= out[bit.bit_length() - 1]
            for y in ys:
                dom_y = domains[y]
                if from_lost:
                    removed = 0
                    rest = reached & dom_y
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        if not back[bit.bit_length() - 1] & dom_x:
                            removed |= bit
                else:
                    removed = dom_y & ~reached
                if removed:
                    if removed == dom_y:
                        return False
                    trail.append((y, dom_y))
                    domains[y] = dom_y ^ removed
                    queue[y] = queue.get(y, 0) | removed
    return True


def per_tuple_search(source, unions, target, fixed, *, stats=None):
    """Reference ``find_homomorphism`` with ``unions``:
    ``per_tuple_constraints``, then ``homomorphism._solve`` with
    ``lifo_propagate`` in place of the module's propagation.  The witness
    mapping, or None."""
    built = per_tuple_constraints(source, unions, target, fixed)
    if built is None:
        return None
    real = homomorphism._propagate
    homomorphism._propagate = lifo_propagate
    try:
        found = homomorphism._solve(built[1], built[0], {}, homomorphism._Budget(stats, MAX_NODES))
    finally:
        homomorphism._propagate = real
    if not found:
        return None
    return {x: target.universe[dom.bit_length() - 1] for x, dom in zip(source.universe, built[0])}


def memo_every_node_eval_naive(phi, b, *, max_work=10_000_000):
    """Reference ``eval_naive``: every node, atoms and equalities included,
    is its own walker frame, and every compound node caches its verdict per
    assignment of its free variables."""
    free_of = {key: tuple(sorted(names))
               for key, names in _free_sets(q.subformulas(phi)).items()}
    if free_of[id(phi)]:
        raise q.FragmentError("a closed sentence is required")
    _checked(phi, "FO", b.signature)
    if not b.universe:
        raise q.EpqError("evaluation needs a non-empty universe")
    if len(b.universe) ** max(map(len, free_of.values())) > max_work:
        raise q.LimitExceeded("naive evaluation work estimate", max_work)
    missing = object()

    def truth(f, env, memo):
        kind = type(f)
        if kind is q.Atom:
            return tuple(env[x] for x in f.args) in b.relations[f.symbol]
        if kind is q.Equality:
            return env[f.left] == env[f.right]
        key = (id(f), tuple(env[v] for v in free_of[id(f)]))
        verdict = memo.get(key)
        if verdict is not None:
            return verdict
        if kind is q.Not:
            verdict = not (yield truth(f.child, env, memo))
        elif kind is q.Exists or kind is q.Forall:
            previous = env.get(f.var, missing)
            want_any = kind is q.Exists
            verdict = not want_any
            for value in b.universe:
                env[f.var] = value
                if (yield truth(f.child, env, memo)) == want_any:
                    verdict = want_any
                    break
            if previous is missing:
                del env[f.var]
            else:
                env[f.var] = previous
        else:
            want_any = kind is q.Or
            verdict = not want_any
            for c in f.children:
                if (yield truth(c, env, memo)) == want_any:
                    verdict = want_any
                    break
        memo[key] = verdict
        return verdict

    return walk(truth(phi, {}, {}))


def padded_or_eval_kvar(phi, b, k, *, stats=None, max_rows=10_000_000):
    """Reference ``eval_kvar``: every ``Or`` pads each disjunct's relation to
    the ``Or``'s variables and unions them, and a conjunction joins that
    relation like any other part."""
    return _bottom_up_eval_kvar(phi, b, k, stats, max_rows, filter_or=False)


def compound_first_eval_kvar(phi, b, k, *, stats=None, max_rows=10_000_000):
    """Reference ``eval_kvar`` with no context: a conjunction evaluates its
    compound children first, each on its own, then its atoms and equalities;
    an ``Or`` child whose variables lie within a pending part filters the
    smallest such part instead of being padded."""
    return _bottom_up_eval_kvar(phi, b, k, stats, max_rows, filter_or=True)


def _bottom_up_eval_kvar(phi, b, k, stats, max_rows, filter_or):
    info = q.classify(phi)
    if info.variables > k:
        raise q.FragmentError(f"sentence uses {info.variables} variables, more than k={k}")
    if not info.closed:
        raise q.FragmentError("a closed sentence is required")
    _checked(phi, "FO", b.signature)
    run = evaluate._KvarRun(b, max_rows, _free_sets(q.subformulas(phi)))
    expand, complement = evaluate._expand, evaluate._complement

    def join(va, ra, vb, rb):
        # Natural join over the sorted union of the variables, through a
        # fresh index of rb on the shared variables; when one side's
        # variables lie within the other's, it only filters.
        run.joins += 1
        if set(va) < set(vb):
            va, ra, vb, rb = vb, rb, va, ra
        shared = [v for v in va if v in vb]
        if len(shared) == len(vb):
            return run.built(va, {row for row in ra
                                  if tuple(row[va.index(v)] for v in vb) in rb})
        index = {}
        for row in rb:
            index.setdefault(tuple(row[vb.index(v)] for v in shared), []).append(row)
        out_vars = tuple(sorted(set(va) | set(vb)))
        out = set()
        for row in ra:
            for match in index.get(tuple(row[va.index(v)] for v in shared), ()):
                value = dict(zip(va, row))
                value.update(zip(vb, match))
                out.add(tuple(value[v] for v in out_vars))
                if len(out) > max_rows:
                    raise q.LimitExceeded("bounded-variable relation size", max_rows)
        return run.built(out_vars, out)

    def greedy_join(parts):
        # From the smallest part, join in the part sharing the most variables
        # with the result, the smaller on ties, until the result is empty.
        parts = sorted(parts, key=lambda p: len(p[1]))
        va, ra = parts.pop(0)
        while parts and ra:
            best = max(range(len(parts)), key=lambda i: len(set(va).intersection(parts[i][0])))
            va, ra = join(va, ra, *parts.pop(best))
        return va, ra

    def filtered(f, part):
        vb, rest = part
        run.joins += 1
        kept = set()
        for c in f.children:
            vc, rc = yield relation(c)
            key = evaluate._columns([vb.index(v) for v in vc])
            hit = {row for row in rest if key(row) in rc}
            kept |= hit
            rest = rest - hit
            if not rest:
                break
        return run.built(vb, kept)

    def relation(f):
        kind = type(f)
        if kind is q.Atom:
            distinct, pattern = repetition_pattern(f.args)
            va = tuple(sorted(distinct))
            order = tuple(distinct.index(v) for v in va)
            key = (f.symbol, pattern, order)
            ra = run.atoms.get(key)
            if ra is None:
                rows = project_rows(b.relations[f.symbol], pattern)
                ra = run.atoms[key] = set(map(evaluate._columns(order), rows))
        elif kind is q.Equality:
            va = tuple(sorted({f.left, f.right}))
            ra = {(u,) * len(va) for u in b.universe}
        elif kind is q.And:
            pending = []
            for c in sorted(f.children, key=lambda c: isinstance(c, (q.Atom, q.Equality))):
                covering = [p for p in pending if run.free[id(c)] <= set(p[0])]
                part = min(covering, key=lambda p: len(p[1]), default=None)
                if filter_or and type(c) is q.Or and part is not None:
                    pending = [p for p in pending if p is not part]
                    va, ra = yield filtered(c, part)
                else:
                    va, ra = yield relation(c)
                unmerged = []
                for vb, rb in pending:
                    if ra and (set(va) <= set(vb) or set(vb) <= set(va)):
                        va, ra = join(va, ra, vb, rb)
                    else:
                        unmerged.append((vb, rb))
                if not ra:
                    break
                pending = unmerged + [(va, ra)]
            else:
                va, ra = greedy_join(pending)
            if not ra:
                va = tuple(sorted(run.free[id(f)]))
        elif kind is q.Or:
            parts = []
            for c in f.children:
                parts.append((yield relation(c)))
            va = tuple(sorted(set().union(*(set(v) for v, _ in parts))))
            ra = set()
            for vc, rc in parts:
                ra |= expand(vc, rc, va, run)[1]
        else:
            va, ra = yield relation(f.child)
            if kind is q.Not:
                va, ra = complement(va, ra, run)
            elif f.var in va:
                if kind is q.Forall:
                    va, ra = complement(va, ra, run)
                idx = va.index(f.var)
                va = va[:idx] + va[idx + 1:]
                ra = {row[:idx] + row[idx + 1:] for row in ra}
                if kind is q.Forall:
                    va, ra = complement(va, ra, run)
        run.widest = max(run.widest, len(va))
        return run.built(va, ra)

    vars_final, rows = walk(relation(phi))
    if stats is not None:
        stats.update(max_arity=run.widest, joins=run.joins, rows_max=run.rows_max)
    assert vars_final == ()
    return bool(rows)


_IDENT_RE = re.compile(r"[A-Za-z0-9_^@']+")
_KEYWORDS = frozenset({"exists", "forall", "not"})


def reference_parse_formula(text, signature=None):
    """Reference ``parse_formula``: a line-by-line tokenizer that records
    each token's line and column, and a parser with one walker frame per
    unit, atoms and equalities included."""
    parser = _ReferenceParser(_reference_tokenize(text), signature)
    formula = walk(parser.formula())
    trailing = parser.peek()
    if trailing[0] != "end":
        raise q.ParseError(f"unexpected trailing input {trailing[1]!r}", trailing[2], trailing[3])
    return formula


def _reference_tokenize(text):
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            m = _IDENT_RE.match(line, col)
            if m:
                tokens.append(("ident", m.group(), lineno, col + 1))
                col = m.end()
                continue
            if ch in "(),.=&|":
                tokens.append((ch, ch, lineno, col + 1))
                col += 1
                continue
            raise q.ParseError(f"unexpected character {ch!r}", lineno, col + 1)
    # the end is just after the last token, or at the start of a text with none
    last = tokens[-1] if tokens else ("", "", 1, 1)
    tokens.append(("end", "", last[2], last[3] + len(last[1])))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens, signature):
        self.tokens = tokens
        self.pos = 0
        self.signature = signature

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise q.ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def identifier(self, role):
        tok = self.take()
        if tok[0] != "ident":
            raise q.ParseError(f"expected a {role} name, found {tok[1]!r}", tok[2], tok[3])
        if tok[1] in _KEYWORDS:
            raise q.ParseError(f"keyword {tok[1]!r} cannot be used as a {role} name", tok[2], tok[3])
        return tok[1]

    def formula(self):
        kind, value, _, _ = self.peek()
        if kind == "ident" and value in ("exists", "forall"):
            self.take()
            var = self.identifier("variable")
            self.expect(".")
            body = yield self.formula()
            return q.Exists(var, body) if value == "exists" else q.Forall(var, body)
        if kind == "ident" and value == "not":
            self.take()
            return q.Not((yield self.formula()))
        disjuncts = [[(yield self.unit())]]
        while self.peek()[0] in ("&", "|"):
            if self.take()[0] == "|":
                disjuncts.append([])
            disjuncts[-1].append((yield self.unit()))
        return q.disj([q.conj(units) for units in disjuncts])

    def unit(self):
        kind, value, line, col = self.peek()
        if kind == "(":
            self.take()
            inner = yield self.formula()
            self.expect(")")
            return inner
        name = self.identifier("predicate or variable")
        kind = self.peek()[0]
        if kind == "(":
            self.take()
            args = [self.identifier("variable")]
            while self.peek()[0] == ",":
                self.take()
                args.append(self.identifier("variable"))
            self.expect(")")
            if self.signature is not None:
                if name not in self.signature:
                    raise q.ParseError(f"unknown relation symbol {name!r}", line, col)
                if self.signature.arity(name) != len(args):
                    raise q.ParseError(
                        f"symbol {name!r} has arity {self.signature.arity(name)}, got {len(args)} arguments",
                        line,
                        col,
                    )
            return q.Atom(name, tuple(args))
        if kind == "=":
            self.take()
            right = self.identifier("variable")
            return q.Equality(name, right)
        tok = self.peek()
        raise q.ParseError(f"expected '(' or '=' after {name!r}", tok[2], tok[3])
