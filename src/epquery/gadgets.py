"""Hardness-reduction constructions over labelled digraphs and CNF formulas.

The central device turns a labelled digraph into a plain digraph through a
per-element gadget in a way that preserves homomorphism existence in both
directions.  On top of it sit the Hamiltonian-circuit reduction (a sentence
family plus a product structure), its bounded-variable compilation through
low-width tree decompositions (min-fill's, of width at most 2, on the
outdegree-1 companion digraphs, lifted to width 5 over the gadgets), and
three satisfiability reductions that pin truth values with tiny relations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EpqError, LimitExceeded, ParseError
from .evaluate import Instance
from .formulas import (
    Atom,
    Equality,
    Exists,
    canonical_query,
    conj,
    disj,
    query_variable,
    replace_atoms,
)
from .structures import (
    RelationSymbol,
    Signature,
    Structure,
    digraph_signature,
    labelled_rank,
    labelled_signature,
    product,
)
from .treewidth import TreeDecomposition, pp_from_decomposition, treewidth_upper, validate_decomposition

_MAX_EP6_N = 4  # hamiltonian_sentence_ep6 enumerates n**n successor maps
_MAX_BRUTE_VERTICES = 8  # brute_force_hamiltonian tries (n - 1)! orderings


def _tag(base, suffix):
    return f"{base}^{suffix}"


def gadget_star(b):
    """Digraph encoding of a labelled digraph, one gadget per element.

    Each element contributes a rigid three-vertex cluster, a directed spine
    with one (source, sink) pair per possible label, and a two-vertex hook on
    the pairs whose label the element actually carries; edges of the input
    reappear as sink-to-source edges between gadgets.  Homomorphisms between
    encodings correspond exactly to homomorphisms between the inputs.
    """
    n = labelled_rank(b.signature)
    universe = []
    edges = set()
    for elem in b.universe:
        s, c, d, t = (_tag(elem, x) for x in ("s", "c", "d", "t"))
        spine = [(_tag(elem, f"s{i}"), _tag(elem, f"t{i}")) for i in range(1, n + 1)]
        universe.extend([s, c, d])
        for si, ti in spine:
            universe.extend([si, ti])
        universe.append(t)
        edges.update({(c, s), (c, d), (s, d)})
        if n == 0:
            edges.add((d, t))
        else:
            edges.add((d, spine[0][0]))
            for i, (si, ti) in enumerate(spine):
                edges.add((si, ti))
                if i + 1 < n:
                    edges.add((ti, spine[i + 1][0]))
            edges.add((spine[-1][1], t))
        for i in range(1, n + 1):
            if (elem,) in b.relations[f"L{i}"]:
                ui, vi = _tag(elem, f"u{i}"), _tag(elem, f"v{i}")
                universe.extend([ui, vi])
                si, ti = spine[i - 1]
                edges.update({(ui, si), (vi, ti), (vi, ui)})
    for x, y in b.relations["E"]:
        edges.add((_tag(x, "t"), _tag(y, "s")))
    return Structure(digraph_signature(), tuple(universe), {"E": edges})


def gadget_plus(b):
    """Two-vertex companion digraph used to measure the encoding's treewidth."""
    labelled_rank(b.signature)
    universe = []
    edges = set()
    for elem in b.universe:
        s, t = _tag(elem, "s"), _tag(elem, "t")
        universe.extend([s, t])
        edges.add((s, t))
    for x, y in b.relations["E"]:
        edges.add((_tag(x, "t"), _tag(y, "s")))
    return Structure(digraph_signature(), tuple(universe), {"E": edges})


def cycle_all_labels(n):
    """Directed n-cycle over the n-label signature where every vertex has every label."""
    if n < 2:
        raise EpqError("cycle needs at least 2 vertices")
    universe = tuple(str(i) for i in range(n))
    relations = {"E": {(str(i), str((i + 1) % n)) for i in range(n)}}
    for i in range(1, n + 1):
        relations[f"L{i}"] = {(v,) for v in universe}
    return Structure(labelled_signature(n), universe, relations)


def unique_label_digraph(g):
    """Lift a plain digraph on n vertices to n labels, one per vertex."""
    if labelled_rank(g.signature) != 0:
        raise EpqError("input must be a plain digraph")
    n = len(g.universe)
    if n < 2:
        raise EpqError("need at least 2 vertices")
    relations = {"E": set(g.relations["E"])}
    for i, elem in enumerate(g.universe, start=1):
        relations[f"L{i}"] = {(elem,)}
    return Structure(labelled_signature(n), g.universe, relations)


def _label_template(n):
    """Labelled digraph on v1..vn with empty edges and one private label each."""
    universe = tuple(f"v{i}" for i in range(1, n + 1))
    relations = {"E": set()}
    for i, elem in enumerate(universe, start=1):
        relations[f"L{i}"] = {(elem,)}
    return Structure(labelled_signature(n), universe, relations)


def hamiltonian_sentence(n):
    """Existential positive sentence whose models over gadget encodings pick a
    successor for every template vertex; true on the encoding of a product
    with the all-labels cycle exactly when the underlying digraph has a
    directed Hamiltonian circuit."""
    if n < 2:
        raise EpqError("need n >= 2")
    star = gadget_star(_label_template(n))
    prefix = []
    node = canonical_query(star)
    while isinstance(node, Exists):
        prefix.append(node.var)
        node = node.child
    successor_picks = [
        disj(
            [
                Atom("E", (query_variable(_tag(f"v{i}", "t")), query_variable(_tag(f"v{j}", "s"))))
                for j in range(1, n + 1)
            ]
        )
        for i in range(1, n + 1)
    ]
    body = conj([node] + successor_picks)
    out = body
    for var in reversed(prefix):
        out = Exists(var, out)
    return out


def successor_pattern(n, f):
    """Labelled digraph on v1..vn whose edges follow one successor map f."""
    base = _label_template(n)
    edges = {(f"v{i}", f"v{f[i - 1]}") for i in range(1, n + 1)}
    relations = dict(base.relations)
    relations["E"] = edges
    return Structure(base.signature, base.universe, relations)


def hamiltonian_sentence_ep6(n):
    """Six-variable form of :func:`hamiltonian_sentence`.

    One disjunct per successor map: the gadget encoding of the map's pattern
    graph is compiled through a width-5 decomposition, so every
    disjunct uses at most six variable names.  There are n**n maps, hence the
    guard on n.
    """
    if n < 2:
        raise EpqError("need n >= 2")
    if n > _MAX_EP6_N:
        raise LimitExceeded("successor-map enumeration bound", _MAX_EP6_N)
    disjuncts = []
    for f in itertools.product(range(1, n + 1), repeat=n):
        pattern = successor_pattern(n, f)
        narrow = outdeg1_decomposition(gadget_plus(pattern))
        wide = star_decomposition(pattern, narrow)
        disjuncts.append(pp_from_decomposition(gadget_star(pattern), wide, 6))
    return disj(disjuncts)


def outdeg1_decomposition(g):
    """Width <= 2 decomposition of a digraph whose vertices all have outdegree 1.

    It is min-fill's (:func:`treewidth_upper`).  Each vertex adds at most
    one Gaifman edge, inside its own component, so every component has at
    most one cycle.  A vertex of degree d >= 3 has fill <= 1 only when
    C(d, 2) - 1 >= 2 edges join its neighbours, closing two cycles, while one
    of degree <= 2 always has fill <= 1.  So min-fill eliminates only
    vertices of degree <= 2, each a deletion or a contraction, which keeps
    at most one cycle per component and at most three vertices per bag.
    """
    if labelled_rank(g.signature) != 0:
        raise EpqError("input must be a plain digraph")
    succ = {}
    for x, y in g.relations["E"]:
        if x in succ:
            raise EpqError(f"vertex {x!r} has outdegree above 1")
        succ[x] = y
    missing = [v for v in g.universe if v not in succ]
    if missing:
        raise EpqError(f"vertices without outgoing edges: {missing}")
    return treewidth_upper(g)[1]


def star_decomposition(b, d):
    """Lift a decomposition of the two-vertex companion to the full encoding.

    Per element, a path of gadget bags (the element's source and sink added
    to each) hangs off a node of ``d`` whose bag holds that pair; gadget bags
    have at most six elements, so the result's width is at most max(width(d), 5).
    """
    plus = gadget_plus(b)
    if not validate_decomposition(plus, d):
        raise EpqError("decomposition is not valid for the companion digraph")
    n = labelled_rank(b.signature)
    nodes = list(d.nodes)
    edges = list(d.edges)
    bags = dict(d.bags)
    taken = set(nodes)
    counter = 0

    def fresh():
        nonlocal counter
        while f"g{counter}" in taken:
            counter += 1
        nid = f"g{counter}"
        taken.add(nid)
        counter += 1
        return nid

    for elem in b.universe:
        s, t = _tag(elem, "s"), _tag(elem, "t")
        anchor = min(nid for nid in d.nodes if {s, t} <= d.bags[nid])
        path_bags = [{_tag(elem, "c"), _tag(elem, "d")}]
        if n >= 1:
            path_bags.append({_tag(elem, "d"), _tag(elem, "s1")})
            for i in range(1, n + 1):
                middle = {_tag(elem, f"s{i}"), _tag(elem, f"t{i}")}
                if (elem,) in b.relations[f"L{i}"]:
                    middle |= {_tag(elem, f"u{i}"), _tag(elem, f"v{i}")}
                path_bags.append(middle)
                if i < n:
                    path_bags.append({_tag(elem, f"t{i}"), _tag(elem, f"s{i+1}")})
        previous = anchor
        for bag in path_bags:
            nid = fresh()
            nodes.append(nid)
            bags[nid] = frozenset(bag | {s, t})
            edges.append((previous, nid))
            previous = nid
    return TreeDecomposition(tuple(nodes), tuple(edges), bags)


def brute_force_hamiltonian(g):
    """Directed Hamiltonian circuit by trying every vertex ordering."""
    if labelled_rank(g.signature) != 0:
        raise EpqError("input must be a plain digraph")
    n = len(g.universe)
    if n < 2:
        raise EpqError("need at least 2 vertices")
    if n > _MAX_BRUTE_VERTICES:
        raise LimitExceeded("vertex orderings", _MAX_BRUTE_VERTICES)
    edges = g.relations["E"]
    first = g.universe[0]
    for perm in itertools.permutations(g.universe[1:]):
        cycle = (first,) + perm
        if all((cycle[i], cycle[(i + 1) % n]) in edges for i in range(n)):
            return True
    return False


def reduce_hamiltonian(g, lift_arity=None):
    """Instance whose truth equals Hamiltonicity of the input digraph.

    The structure is the gadget encoding of (uniquely labelled input) x
    (all-labels cycle); the sentence is :func:`hamiltonian_sentence`.  With
    ``lift_arity`` above 2, every binary atom E(x, y) becomes F(x, y, ..., y)
    and the structure's relation is padded the same way.
    """
    n = len(g.universe)
    if n < 2:
        raise EpqError("need at least 2 vertices")
    labelled = unique_label_digraph(g)
    structure = gadget_star(product(labelled, cycle_all_labels(n)))
    sentence = hamiltonian_sentence(n)
    if lift_arity is not None:
        if lift_arity < 2:
            raise EpqError("lift arity must be at least 2")
        if lift_arity > 2:
            m = lift_arity
            sentence = replace_atoms(
                sentence, lambda a: Atom("F", (a.args[0],) + (a.args[1],) * (m - 1))
            )
            lifted = {(t[0],) + (t[1],) * (m - 1) for t in structure.relations["E"]}
            structure = Structure(
                Signature([RelationSymbol("F", m)]), structure.universe, {"F": lifted}
            )
    return Instance(sentence, structure)


@dataclass(frozen=True)
class CnfFormula:
    """A CNF instance: variable count plus a sequence of non-empty literal sets.

    Literals are signed 1-based variable indices.
    """

    variables: int
    clauses: tuple

    def __post_init__(self):
        if self.variables < 1:
            raise EpqError("need at least one variable")
        normalized = []
        for clause in self.clauses:
            literals = frozenset(clause)
            if not literals:
                raise EpqError("clauses must be non-empty")
            for lit in literals:
                if lit == 0 or abs(lit) > self.variables:
                    raise EpqError(f"literal {lit} is out of range")
            normalized.append(literals)
        object.__setattr__(self, "clauses", tuple(normalized))

    __hash__ = None


def parse_dimacs(text):
    """Parse DIMACS CNF ('c' comments, 'p cnf N M' header, 0-terminated clauses)."""
    variables = None
    expected_clauses = None
    clauses = []
    current = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed problem line; expected 'p cnf N M'", lineno)
            try:
                variables, expected_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("malformed problem line", lineno) from None
            continue
        if variables is None:
            raise ParseError("clause before the problem line", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"bad literal {token!r}", lineno) from None
            if lit == 0:
                if current:
                    clauses.append(frozenset(current))
                    current = []
            else:
                current.append(lit)
    if variables is None:
        raise ParseError("missing problem line", 1)
    if current:
        clauses.append(frozenset(current))
    if expected_clauses is not None and len(clauses) != expected_clauses:
        raise ParseError(
            f"problem line promises {expected_clauses} clauses, found {len(clauses)}", 1
        )
    return CnfFormula(variables, tuple(clauses))


def _sorted_literals(clause):
    return sorted(clause, key=lambda lit: (abs(lit), lit < 0))


def reduce_sat(cnf, mode="two-symbols", arity=2):
    """Model-checking instance whose truth equals satisfiability of the CNF.

    two-symbols: a pair of relations pins 1s and 0s and each clause becomes a
    disjunction of atoms over its variables.  single-symbol: one relation of
    arity >= 2 holding the single tuple (0, 1, ..., 1); literal polarity is
    read off through an extra quantified position.  unary: one fresh unary
    symbol per (variable, clause) slot, holding the satisfying truth value.
    """
    n = cnf.variables

    def var(j):
        return f"v{j}"

    if mode == "two-symbols":
        if arity < 1:
            raise EpqError("arity must be at least 1")
        signature = Signature([RelationSymbol("T", arity), RelationSymbol("F", arity)])
        relations = {"T": {("1",) * arity}, "F": {("0",) * arity}}

        def literal_formula(lit):
            name = "T" if lit > 0 else "F"
            return Atom(name, (var(abs(lit)),) * arity)

    elif mode == "single-symbol":
        if arity < 2:
            raise EpqError("single-symbol mode needs arity >= 2")
        signature = Signature([RelationSymbol("S", arity)])
        relations = {"S": {("0",) + ("1",) * (arity - 1)}}

        def literal_formula(lit):
            v = var(abs(lit))
            if lit > 0:
                return Exists("x", Atom("S", ("x",) + (v,) * (arity - 1)))
            return Exists("x", Atom("S", (v,) + ("x",) * (arity - 1)))

    elif mode == "unary":
        symbols = []
        relations = {}
        clause_formulas = []
        for i, clause in enumerate(cnf.clauses, start=1):
            slots = []
            for j in range(1, n + 1):
                name = f"R{j}^{i}"
                symbols.append(RelationSymbol(name, 1))
                relations[name] = {(value,) for value, lit in (("1", j), ("0", -j)) if lit in clause}
                slots.append(Atom(name, (var(j),)))
            clause_formulas.append(disj(slots))
        signature = Signature(symbols)
    else:
        raise EpqError(f"unknown mode {mode!r}")

    if mode != "unary":
        clause_formulas = [
            disj([literal_formula(lit) for lit in _sorted_literals(clause)])
            for clause in cnf.clauses
        ]
    body = conj(clause_formulas) if clause_formulas else Equality(var(1), var(1))
    sentence = body
    for j in range(n, 0, -1):
        sentence = Exists(var(j), sentence)
    return Instance(sentence, Structure(signature, ("0", "1"), relations))
