"""Tree decompositions, treewidth, and bounded-variable query compilation.

Width is computed on the Gaifman graph (elements adjacent when they share a
tuple); a tuple's elements form a clique there, so every valid graph
decomposition covers every tuple and the two width notions coincide.
Checking a decomposition and compiling it into a bounded-variable sentence
share one rooted pass, which also gives each tuple its home bag.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .errors import MAX_EXACT_TW, MAX_NODES, EpqError, LimitExceeded, ParseError
from .formulas import Atom, Equality, Exists, conj, structure_of_pp, walk
from .homomorphism import core

@dataclass(frozen=True)
class TreeDecomposition:
    """A tree over named nodes plus one non-empty bag of elements per node."""

    nodes: tuple
    edges: tuple
    bags: dict

    def width(self):
        return max(len(bag) for bag in self.bags.values()) - 1

    __hash__ = None


def gaifman_adjacency(a):
    """Adjacency sets of the Gaifman graph of a structure."""
    adj = {elem: set() for elem in a.universe}
    for sym in a.signature:
        for t in a.relations[sym.name]:
            distinct = set(t)
            for x in distinct:
                adj[x].update(distinct - {x})
    return adj


def _placement(a, d):
    """Each node's children and the tuples of ``a`` placed at it, or None
    when ``d`` is not a valid decomposition of ``a``.

    One walk roots the tree at its least node, preorder, children ascending.
    An element's *tops* are the nodes holding it whose parent's bag lacks
    it; its nodes are connected exactly when it has one.  A tuple's covering
    nodes then form a subtree whose top is the last of its elements' tops in
    preorder, so the tuple is covered iff that bag holds it, and that bag,
    the shallowest covering one, is its home.
    """
    if len(set(d.nodes)) != len(d.nodes) or set(d.bags) != set(d.nodes):
        return None
    members = set(a.universe)
    if not all(bag and set(bag) <= members for bag in d.bags.values()):
        return None
    if len(d.edges) != len(d.nodes) - 1:
        return None
    neighbours = {n: set() for n in d.nodes}
    for x, y in d.edges:
        if x not in neighbours or y not in neighbours:
            return None
        neighbours[x].add(y)
        neighbours[y].add(x)

    root = min(d.nodes)
    parent = {root: None}
    children = {}  # filled in preorder, so its size is the next node's position
    tops = {}  # element -> (preorder position, node) of its top
    stack = [root]
    while stack:
        node = stack.pop()
        up = parent[node]
        for elem in d.bags[node]:
            if up is None or elem not in d.bags[up]:
                if elem in tops:
                    return None
                tops[elem] = (len(children), node)
        children[node] = sorted(n for n in neighbours[node] if n not in parent)
        for n in children[node]:
            parent[n] = node
        stack.extend(reversed(children[node]))
    if len(children) != len(d.nodes):  # n - 1 edges that reach every node form a tree
        return None

    placed = {node: [] for node in d.nodes}
    for sym in a.signature:
        for t in a.relations[sym.name]:
            if not all(elem in tops for elem in t):
                return None
            _, home = max(tops[elem] for elem in t)
            if not all(elem in d.bags[home] for elem in t):
                return None
            placed[home].append((sym.name, t))
    return children, placed


def validate_decomposition(a, d):
    """True iff tree-ness, per-element connectivity, and tuple coverage all hold.

    Elements appearing in no bag are tolerated as long as they occur in no
    tuple; bags must be non-empty subsets of the universe.
    """
    return _placement(a, d) is not None


def _bits(mask):
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _elimination_cost(adj_masks, through, v):
    # Vertices outside ``through``+{v} reachable from v via already-eliminated
    # vertices: the degree v would have when eliminated after ``through``.
    reach = 1 << v
    ext = adj_masks[v]
    frontier = adj_masks[v] & through
    while frontier:
        reach |= frontier
        step = 0
        for u in _bits(frontier):
            step |= adj_masks[u]
        ext |= step
        frontier = step & through & ~reach
    return (ext & ~(through | (1 << v))).bit_count()


def _eliminate(adj, elem):
    """Remove ``elem`` from the graph, make its neighbours a clique, return them."""
    neigh = adj.pop(elem)
    for u in neigh:
        adj[u].update(neigh - {u})
        adj[u].discard(elem)
    return neigh


def decomposition_from_order(a, order):
    """Tree decomposition induced by an elimination order over the universe."""
    adj = gaifman_adjacency(a)
    position = {elem: i for i, elem in enumerate(order)}
    bags = [(elem, frozenset({elem} | _eliminate(adj, elem))) for elem in order]

    node_ids = [f"t{i}" for i in range(len(order))]
    edges = []
    loose = []  # the last node of each connected piece of the graph
    for i, (elem, bag) in enumerate(bags):
        rest = bag - {elem}
        if rest:
            edges.append((node_ids[i], node_ids[min(position[u] for u in rest)]))
        else:
            loose.append(node_ids[i])
    edges += zip(loose, loose[1:])  # chain the pieces
    return TreeDecomposition(
        tuple(node_ids), tuple(edges), {node_ids[i]: bags[i][1] for i in range(len(bags))}
    )


def treewidth_exact(a, *, max_universe=MAX_EXACT_TW):
    """Optimal width plus a witnessing decomposition, from bounds first.

    When the minor-min-width lower bound meets the min-fill upper bound,
    min-fill's decomposition is optimal, at any universe size; otherwise
    each width from the lower bound up is tried with ``_width_at_most``,
    which is exponential in the universe size, so ``max_universe`` guards
    that step only.
    """
    upper, witness = treewidth_upper(a)
    lower = minor_min_width(a)
    if lower < upper and len(a.universe) > max_universe:
        raise LimitExceeded("exact treewidth universe size", max_universe)
    index = {elem: i for i, elem in enumerate(a.universe)}
    masks = [sum(1 << index[u] for u in neigh) for neigh in gaifman_adjacency(a).values()]
    for k in range(lower, upper):
        order = _width_at_most(masks, k)
        if order is not None:
            return k, decomposition_from_order(a, [a.universe[v] for v in order])
    return upper, witness


def _width_at_most(masks, k):
    """An elimination order (element indices) of width at most k, or None.

    Explores sets of eliminated elements, each reached by a step whose
    elimination cost is at most k, depth first on an explicit stack.  Each
    set keeps the element its step eliminated, which points back to its
    parent set.  Once at most k + 1 elements remain, they go last in any
    order: none can then have more than k later neighbours.
    """
    n = len(masks)
    full = (1 << n) - 1
    last = {0: None}  # reached set -> the element its step eliminated
    stack = [0]
    while stack:
        done = stack.pop()
        if n - done.bit_count() <= k + 1:
            order = list(_bits(full & ~done))
            while done:
                order.append(last[done])
                done ^= 1 << last[done]
            return order[::-1]
        for v in _bits(full & ~done):
            step = done | 1 << v
            if step not in last and _elimination_cost(masks, done, v) <= k:
                last[step] = v
                stack.append(step)
    return None


def minor_min_width(a):
    """Minor-min-width lower bound on treewidth (Gogate & Dechter 2004).

    Repeatedly takes an element of least degree, records that degree, and
    contracts it into its least-degree neighbour, or deletes it if it has
    none; ties go to the earliest in the universe.  Each graph reached is a
    minor, whose treewidth is at most the original's and at least its least
    degree.
    """
    adj = gaifman_adjacency(a)
    position = {elem: i for i, elem in enumerate(a.universe)}
    bound = 0
    while adj:
        elem = min(adj, key=lambda e: (len(adj[e]), position[e]))
        neigh = adj.pop(elem)
        bound = max(bound, len(neigh))
        for u in neigh:
            adj[u].discard(elem)
        if neigh:
            into = min(neigh, key=lambda e: (len(adj[e]), position[e]))
            for u in neigh - {into}:
                adj[u].add(into)
                adj[into].add(u)
    return bound


def _fill(adj, elem):
    # Edges that eliminating elem would add between its neighbours.
    return sum(w not in adj[u] for u, w in itertools.combinations(adj[elem], 2))


def treewidth_upper(a):
    """Width and decomposition from the min-fill elimination heuristic.

    Each step eliminates the element with the fewest fill edges, the
    earliest in the universe on ties.  Only the eliminated element's
    neighbours and the common neighbours of the ends of each new fill edge
    see their fill change, so only theirs is recounted, and a step that adds
    no edge only lowers its neighbours' fill; a heap of
    (fill, universe position) entries, stale ones skipped, picks the next.
    """
    if not a.universe:
        raise EpqError("treewidth needs a non-empty universe")
    adj = gaifman_adjacency(a)
    position = {elem: i for i, elem in enumerate(a.universe)}
    fill = {elem: _fill(adj, elem) for elem in adj}
    heap = [(count, position[elem], elem) for elem, count in fill.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        count, _, elem = heapq.heappop(heap)
        if elem not in adj or fill[elem] != count:
            continue
        added = [(u, w) for u, w in itertools.combinations(adj[elem], 2) if w not in adj[u]]
        neigh = _eliminate(adj, elem)
        changed = set(neigh)
        for u, w in added:
            changed |= adj[u] & adj[w]
        for u in changed:
            # with no fill edge added, u loses only its pairs with elem
            fill[u] = _fill(adj, u) if added else fill[u] - len(adj[u] - neigh)
            heapq.heappush(heap, (fill[u], position[u], u))
        order.append(elem)
    witness = decomposition_from_order(a, order)
    return witness.width(), witness


def _variable_pool(k):
    pad = len(str(k))
    return [f"x{str(i).zfill(pad)}" for i in range(1, k + 1)]


def pp_from_decomposition(a, d, k):
    """Primitive positive sentence over at most k variable names equivalent to
    the canonical query of ``a``.

    The decomposition is rooted at its least node and walked depth first; one
    variable name stays live per bag element, names freed when an element
    leaves scope are re-quantified (lexicographically first free name wins),
    and each tuple's atom is emitted at the shallowest bag covering it.
    """
    walked = _placement(a, d)
    if walked is None:
        raise EpqError("decomposition is not valid for the structure")
    if d.width() >= k:
        raise EpqError(f"decomposition width {d.width()} is not below {k}")
    children, placed = walked
    pool = _variable_pool(k)
    rank = {elem: i for i, elem in enumerate(a.universe)}

    return walk(_pp_subtree(min(d.nodes), {}, d, children, placed, pool, rank))


def _pp_subtree(node, inherited, d, children, placed, pool, rank):
    # Sentence for the subtree at node, given the variable names that the
    # parent bag passes down for the elements it shares with this bag.
    bag = d.bags[node]
    var_of = dict(inherited)
    new_elems = sorted((e for e in bag if e not in var_of), key=rank.__getitem__)
    free = [name for name in pool if name not in set(var_of.values())]
    new_vars = []
    for elem, name in zip(new_elems, free):
        var_of[elem] = name
        new_vars.append(name)
    parts = [Atom(sym, tuple(var_of[e] for e in t)) for sym, t in sorted(placed[node])]
    for child in children[node]:
        passed = {e: var_of[e] for e in bag & d.bags[child]}
        parts.append((yield _pp_subtree(child, passed, d, children, placed, pool, rank)))
    if parts:
        out = conj(parts)
    else:
        anchor = next(iter(sorted(var_of.values())))
        out = Equality(anchor, anchor)
    for name in reversed(new_vars):
        out = Exists(name, out)
    return out


def decide_ppk(psi, k, *, signature=None, max_nodes=MAX_NODES):
    """Whether a primitive positive sentence can be written with k variables.

    Equivalent to the core of the sentence's induced structure having
    treewidth below k.  ``core`` and ``treewidth_exact`` keep their default
    universe guards.
    """
    struct = structure_of_pp(psi, signature)
    small = core(struct, max_nodes=max_nodes)
    width, _ = treewidth_exact(small)
    return width < k


def parse_decomposition(text):
    """Parse the 'node ID e1 e2 ...' / 'edge ID ID' format."""
    nodes = []
    bags = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "node":
            if len(parts) < 3:
                raise ParseError("node line needs an id and at least one element", lineno)
            node = parts[1]
            if node in bags:
                raise ParseError(f"duplicate node id {node!r}", lineno)
            nodes.append(node)
            bags[node] = frozenset(parts[2:])
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ParseError("edge line needs exactly two node ids", lineno)
            edges.append((parts[1], parts[2], lineno))
        else:
            raise ParseError(f"unexpected line starting with {parts[0]!r}", lineno)
    if not nodes:
        raise ParseError("decomposition text has no node lines", 1)
    for x, y, lineno in edges:
        if x not in bags or y not in bags:
            raise ParseError(f"edge references unknown node: {x} {y}", lineno)
    return TreeDecomposition(tuple(nodes), tuple((x, y) for x, y, _ in edges), bags)


def format_decomposition(d):
    lines = [
        "node " + node + " " + " ".join(sorted(d.bags[node])) for node in sorted(d.nodes)
    ]
    lines += ["edge " + x + " " + y for x, y in sorted(tuple(sorted(e)) for e in d.edges)]
    return "\n".join(lines) + "\n"
