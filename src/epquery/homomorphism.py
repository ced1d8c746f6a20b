"""Homomorphism search between similar finite structures, and cores.

The search is constraint propagation plus backtracking: one variable per
source element whose domain is the target universe (kept as a bitmask), one
constraint per source tuple whose supports are the target tuples matching
the source tuple's repetition pattern.

- The target side is prepared once per target structure and kept on it: per
  (symbol, repetition pattern), the supports, a mask per column of the values
  that have a support, and for binary patterns the per-value partner masks.
  Every search into that target reuses them.
- The source side is a skeleton built once per source structure and kept on
  it: per (symbol, repetition pattern), the variables in each column, the
  partner lists of the binary tuples and the variable tuples of the wider
  ones, each sorted by variable index, plus the degree of each variable.
  A search binds it to the target's tables with one lookup per key, so the
  constraints come out in one order whatever the hash seed.
- Domains start at the column masks, and propagation is driven by what
  changed: each queued variable carries the values it lost, and a binary
  revision walks those or the values still left, whichever are fewer.
  The queue is first in, first out (AC-3's order), which revises far fewer
  arcs than taking the newest first.  Constraints of arity three or more
  rescan their rows.  Generalized arc consistency runs after every
  assignment.
- A search may also carry union constraints, each a disjunction of atoms
  over source elements, passed as ``find_homomorphism``'s ``unions``
  (``eval_dnf_hom`` makes one from each ``Or`` of atoms).  One is revised
  by constructive disjunction once the other constraints are settled: a
  branch is alive while its atom has a support inside the domains, no live
  branch is a wipe-out, and a variable in every live branch keeps only the
  values some live branch supports.  Without unions the search is the
  plain one, node for node.
- Every narrowing is logged on a trail as (variable, old mask), and the
  search keeps its own stack of (variable, values left, trail length), so
  backtracking undoes the trail instead of copying the domains at each
  level, and depth is not bound by the interpreter's recursion limit.

One builder, ``_constraints``, binds a source skeleton to a target and
propagates to the root fixpoint; one solver, ``_solve``, propagates from
given domains and backtracks.  ``core`` builds the constraints of
``a -> a`` once and tests each removal by masking one value out of the root
domains.  ``isomorphic`` is one search between copies that also relate
every two distinct elements.

Variables are picked by fewest remaining candidates with a degree
tie-break, values in target universe order, so both the verdict and the
returned witness are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MAX_CORE, MAX_ISOMORPHIC, MAX_NODES, EpqError, LimitExceeded, SignatureMismatch
from .structures import (
    RelationSymbol,
    Signature,
    Structure,
    induced_substructure,
    project_rows,
    repetition_pattern,
)


@dataclass
class SearchStats:
    """Mutable counters a caller may pass in to observe search effort."""

    nodes: int = 0


@dataclass(frozen=True)
class Homomorphism:
    """A total map between universes, intended to preserve every relation."""

    source: Structure
    target: Structure
    mapping: dict


def verify_homomorphism(h):
    """Check totality and tuple preservation; never raises."""
    src, dst = h.source, h.target
    if src.signature != dst.signature:
        return False
    targets = set(dst.universe)
    for elem in src.universe:
        if h.mapping.get(elem) not in targets:
            return False
    for sym in src.signature:
        dst_rel = dst.relations[sym.name]
        for t in src.relations[sym.name]:
            if tuple(h.mapping[x] for x in t) not in dst_rel:
                return False
    return True


class _PreparedTarget:
    """The target-side tables of the search, built once per target structure.

    Per (symbol, repetition pattern) key: the projected supports as index
    tuples, one mask per column of the values that have a support there, and
    for binary keys the partner masks ``fwd[a]`` (second values seen with
    ``a``) and ``rev[b]`` (first values seen with ``b``).  Keys are filled in
    on first use and shared by every source tuple with that key.
    """

    def __init__(self, target):
        self.tindex = {e: i for i, e in enumerate(target.universe)}
        self.size = len(target.universe)
        self.relations = target.relations
        self.keys = {}

    def entry(self, name, pattern):
        key = (name, pattern)
        found = self.keys.get(key)
        if found is None:
            tindex = self.tindex
            supports = [tuple(tindex[x] for x in row)
                        for row in project_rows(self.relations[name], pattern)]
            cols = [0] * (max(pattern) + 1)
            for row in supports:
                for i, val in enumerate(row):
                    cols[i] |= 1 << val
            fwd = rev = None
            if len(cols) == 2:
                fwd = [0] * self.size
                rev = [0] * self.size
                for a, b in supports:
                    fwd[a] |= 1 << b
                    rev[b] |= 1 << a
            found = self.keys[key] = (supports, cols, fwd, rev)
        return found


def _prepared(target):
    # Kept in the instance ``__dict__``, outside the dataclass fields, so
    # equality and serialization never see it; structures are immutable.
    table = target.__dict__.get("_prepared")
    if table is None:
        table = target.__dict__["_prepared"] = _PreparedTarget(target)
    return table


class _Skeleton:
    """The source-side half of the constraints, built once per source structure.

    ``sindex`` numbers the source elements, and ``degree`` counts, per
    element, the source tuples with two or more distinct elements that hold
    it.  ``keys`` has one item per (symbol, repetition pattern) of the source
    tuples, in signature order and then pattern order: (name, pattern, per
    column the distinct variables in it, the forward and the backward
    partner lists of the binary tuples as (variable, partners), the variable
    tuples of arity three or more), each sorted by variable index.  So the
    constraints come out in one order, whatever the order of the relation
    sets.
    """

    __slots__ = ("sindex", "degree", "keys")

    def __init__(self, source):
        self.sindex = sindex = {e: i for i, e in enumerate(source.universe)}
        degree = [0] * len(sindex)
        keys = []
        for sym in source.signature:
            by_pattern = {}
            for t in source.relations[sym.name]:
                distinct, pattern = repetition_pattern(t)
                vars = tuple(sindex[x] for x in distinct)
                by_pattern.setdefault(pattern, []).append(vars)
                if len(vars) > 1:
                    for v in vars:
                        degree[v] += 1
            for pattern in sorted(by_pattern):
                tuples = sorted(by_pattern[pattern])
                cols = tuple(tuple(sorted(set(column))) for column in zip(*tuples))
                pairs = tuples if len(tuples[0]) == 2 else ()
                keys.append((sym.name, pattern, cols, _partners(pairs),
                             _partners(sorted((y, x) for x, y in pairs)),
                             tuple(tuples) if len(tuples[0]) > 2 else ()))
        self.degree = tuple(degree)
        self.keys = tuple(keys)


def _partners(pairs):
    # sorted (x, y) pairs grouped as (x, (y, ...)) in order of x
    groups = {}
    for x, y in pairs:
        groups.setdefault(x, []).append(y)
    return tuple((x, tuple(ys)) for x, ys in groups.items())


def _skeleton(source):
    # Kept on the source as ``_prepared`` keeps the target tables.
    skeleton = source.__dict__.get("_skeleton")
    if skeleton is None:
        skeleton = source.__dict__["_skeleton"] = _Skeleton(source)
    return skeleton


def _reach(values, table):
    # the union of table[v] over the values v in the mask
    out = 0
    while values:
        bit = values & -values
        values ^= bit
        out |= table[bit.bit_length() - 1]
    return out


def _supported(vars, entry, domains):
    """Per variable of one atom, the values it takes in a support that lies
    inside the current domains: all zero exactly when the atom has none."""
    supports, cols, fwd, rev = entry
    if len(vars) == 1:
        return [domains[vars[0]] & cols[0]]
    if len(vars) == 2:
        x, y = vars
        kept_x = domains[x] & _reach(domains[y], rev)
        return [kept_x, domains[y] & _reach(kept_x, fwd)]
    doms = [domains[v] for v in vars]
    seen = [0] * len(vars)
    for row in supports:
        for i, val in enumerate(row):
            if not doms[i] >> val & 1:
                break
        else:
            for i, val in enumerate(row):
                seen[i] |= 1 << val
    return seen


def _union_kept(branches, domains):
    """Constructive disjunction over the atoms of one union constraint.

    A branch is alive while its atom has a support inside the domains.  Each
    variable that occurs in every live branch keeps the values some live
    branch supports; other variables are not narrowed.  None when no branch
    is alive.
    """
    live = []
    for vars, entry in branches:
        seen = _supported(vars, entry, domains)
        if seen[0]:
            live.append((vars, seen))
    if not live:
        return None
    kept = dict.fromkeys(set(live[0][0]).intersection(*(vars for vars, _ in live[1:])), 0)
    for vars, seen in live:
        for v, values in zip(vars, seen):
            if v in kept:
                kept[v] |= values
    return kept


def _remove(domains, v, removed, queue, trail):
    # Take ``removed`` out of v's domain, logging the old mask; False if none is left.
    dom = domains[v]
    if removed == dom:
        return False
    trail.append((v, dom))
    domains[v] = dom ^ removed
    queue[v] = queue.get(v, 0) | removed
    return True


def _propagate(domains, arcs, scans, unions, queue, trail):
    """Narrow ``domains`` to a fixpoint of the constraints; False on a wipe-out.

    ``queue`` maps each variable to the values it lost since it was last
    processed, and every narrowing is logged on ``trail`` as (variable, old
    mask).  Variables are processed first in, first out; one that loses
    more values while queued keeps its place.  Processing ``x`` rescans the
    rows of its constraints of arity three or more, then revises its binary
    arcs ``x -> y`` from whichever is smaller: the values ``x`` still has,
    or the values it lost.  Its union constraints wait until the queue is
    empty, so that each is revised against settled domains.  Each revision
    only drops values without support, so the result is the unique largest
    fixpoint, whatever the order; the order only sets the work.
    """
    pending = {}  # union constraints to revise once the queue is empty
    while queue or pending:
        if not queue:
            kept = _union_kept(pending.popitem()[1], domains)
            if kept is None:
                return False
            for v, values in kept.items():
                removed = domains[v] & ~values
                if removed:  # values is never empty: its live branches support it
                    _remove(domains, v, removed, queue, trail)
            continue
        x = next(iter(queue))  # the oldest, so each variable waits its turn
        lost = queue.pop(x)
        for vars, entry in scans[x]:
            for v, kept in zip(vars, _supported(vars, entry, domains)):
                removed = domains[v] & ~kept
                if removed and not _remove(domains, v, removed, queue, trail):
                    return False
        if x in unions:
            pending.update(unions[x])
        dom_x = domains[x]
        from_lost = lost.bit_count() < dom_x.bit_count()
        for out, back, ys in arcs[x]:
            # the values reached through ``out`` from the lost or the kept ones
            reached = 0
            rest = lost if from_lost else dom_x
            while rest:
                bit = rest & -rest
                rest ^= bit
                reached |= out[bit.bit_length() - 1]
            for y in ys:
                dom_y = domains[y]
                if from_lost:
                    # only a value that lost a partner can lose its last support
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


def find_homomorphism(source, target, *, fixed=None, unions=(), max_nodes=MAX_NODES, stats=None):
    """Return a deterministic witness homomorphism, or None if there is none.

    ``fixed`` pins source elements to target elements before the search.
    Each of ``unions`` is a sequence of (symbol, arguments over source
    elements), and the map must send one of them to a target tuple.
    ``max_nodes`` bounds the nodes this call searches, whether or not a
    ``stats`` record shared with other calls adds them to its running total;
    the budget surfaces as :class:`LimitExceeded` rather than a wrong answer.
    """
    built = _constraints(source, unions, target, fixed)
    if built is None or not _solve(built[1], built[0], {}, max_nodes, stats):
        return None
    # every domain is a singleton, and the fixpoint makes the map a homomorphism
    mapping = {x: target.universe[dom.bit_length() - 1] for x, dom in zip(source.universe, built[0])}
    return Homomorphism(source, target, mapping)


def _constraints(source, unions, target, fixed):
    """The root fixpoint domains of a search and its constraints (arcs,
    scans, unions, degree), or None when that fixpoint wipes out.

    The source's skeleton is bound to the target with one table entry per
    (symbol, repetition pattern) key.  Each variable starts at the values
    with a support in every column it fills, which is what a first revision
    against full domains would leave.
    """
    if source.signature != target.signature:
        raise SignatureMismatch("homomorphism search needs similar structures")
    if not source.universe or not target.universe:
        raise EpqError("homomorphism search needs non-empty universes")
    skeleton = _skeleton(source)
    prepared = _prepared(target)
    tindex = prepared.tindex
    sindex = skeleton.sindex
    n = len(source.universe)
    full = (1 << prepared.size) - 1
    domains = [full] * n
    if fixed:
        for elem, val in fixed.items():
            if elem not in sindex:
                raise EpqError(f"fixed element {elem!r} is not in the source universe")
            if val not in tindex:
                raise EpqError(f"fixed value {val!r} is not in the target universe")
            domains[sindex[elem]] &= 1 << tindex[val]

    arcs = [[] for _ in range(n)]  # (partner masks, reverse masks, others)
    scans = [[] for _ in range(n)]  # (variables, table entry) of arity three or more
    for name, pattern, cols, forward, backward, wide in skeleton.keys:
        entry = prepared.entry(name, pattern)
        _, masks, fwd, rev = entry
        for mask, vars in zip(masks, cols):
            for v in vars:
                domains[v] &= mask
        for x, ys in forward:
            arcs[x].append((fwd, rev, ys))
        for y, xs in backward:
            arcs[y].append((rev, fwd, xs))
        for vars in wide:
            for v in vars:
                scans[v].append((vars, entry))
    queue = {v: full ^ dom for v, dom in enumerate(domains) if dom != full}
    union_of = {}  # variable -> {id(branches): branches} of the unions over it
    degree = list(skeleton.degree) if unions else skeleton.degree
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
        queue.setdefault(scope[0], 0)  # so that the union is revised before the search
    if not all(domains) or not _propagate(domains, arcs, scans, union_of, queue, []):
        return None
    return domains, (arcs, scans, union_of, degree)


def _solve(constraints, domains, queue, max_nodes, stats):
    """From domains that are a fixpoint but for the values ``queue`` lists as
    lost, propagate and backtrack; True when they end as a solution's singletons."""
    arcs, scans, union_of, degree = constraints
    trail = []
    if not _propagate(domains, arcs, scans, union_of, queue, trail):
        return False
    counters = stats if stats is not None else SearchStats()
    budget = counters.nodes + max_nodes

    def choose():
        # fewest values, then highest degree, then lowest index; None when all are fixed
        best = min(((dom.bit_count(), -degree[v], v) for v, dom in enumerate(domains)
                    if dom & (dom - 1)), default=None)
        return None if best is None else best[2]

    # Depth-first over (variable, values left to try, trail length on entry);
    # returning to a frame undoes the trail down to its length, which restores
    # the domains it was entered with.  Values go in target universe order,
    # so the witness is deterministic.
    stack = []
    while (var := choose()) is not None:
        stack.append([var, domains[var], len(trail)])
        while True:
            if not stack:
                return False
            frame = stack[-1]
            var, rest, mark = frame
            while len(trail) > mark:
                v, dom = trail.pop()
                domains[v] = dom
            if not rest:
                stack.pop()
                continue
            bit = rest & -rest
            frame[1] = rest ^ bit
            counters.nodes += 1
            if counters.nodes > budget:
                raise LimitExceeded("homomorphism search nodes", max_nodes)
            entered = domains[var]
            trail.append((var, entered))
            domains[var] = bit
            if _propagate(domains, arcs, scans, union_of, {var: entered ^ bit}, trail):
                break
    return True


def hom_equivalent(a, b, *, max_nodes=MAX_NODES, stats=None):
    """True iff homomorphisms exist in both directions."""
    return (find_homomorphism(a, b, max_nodes=max_nodes, stats=stats) is not None
            and find_homomorphism(b, a, max_nodes=max_nodes, stats=stats) is not None)


def isomorphic(a, b, *, max_universe=MAX_ISOMORPHIC):
    """Decide isomorphism as one injective homomorphism search.

    Both structures get one fresh binary symbol holding every pair of
    distinct elements, so a map between the extended structures is
    injective; with equal universe sizes it is a bijection.  Relation
    cardinalities are compared per symbol first, so such a bijection maps
    each relation onto the other and is an isomorphism.
    """
    if a.signature != b.signature:
        raise SignatureMismatch("isomorphism test needs similar structures")
    if len(a.universe) != len(b.universe):
        return False
    if len(a.universe) > max_universe:
        raise LimitExceeded("isomorphism universe size", max_universe)
    for sym in a.signature:
        if len(a.relations[sym.name]) != len(b.relations[sym.name]):
            return False
    if not a.universe:
        return True  # the empty map; the search needs non-empty universes
    # longer than every symbol name, so it names none of them
    distinct = RelationSymbol("".join(a.signature.names) + "~", 2)
    signature = Signature(a.signature.symbols + (distinct,))

    def extended(s):
        pairs = [(x, y) for x in s.universe for y in s.universe if x != y]
        return Structure(signature, s.universe, {**s.relations, distinct.name: pairs})

    return find_homomorphism(extended(a), extended(b)) is not None


def find_retraction(a, subset, *, max_nodes=MAX_NODES, stats=None):
    """Homomorphism from ``a`` onto the induced substructure fixing ``subset``."""
    wanted = set(subset)
    if not wanted or not wanted <= set(a.universe):
        raise EpqError("retraction subset must be a non-empty part of the universe")
    target = induced_substructure(a, wanted)
    fixed = {e: e for e in target.universe}
    return find_homomorphism(a, target, fixed=fixed, max_nodes=max_nodes, stats=stats)


def core(a, *, max_universe=MAX_CORE, max_nodes=MAX_NODES, stats=None):
    """Smallest substructure that is homomorphically equivalent to ``a``.

    Greedy element removal, one pass in universe order.  Any homomorphism
    into the complement of ``e`` justifies removing it, not only a
    retraction: a disjoint 2-cycle plus 6-cycle has no single-element
    retraction, yet its core is the 2-cycle.  One pass is enough: if C has
    no homomorphism into C - {e}, no later C' within C has one into
    C' - {e}, or C -> C' -> C' - {e} would map C into C - {e}.

    The constraints of ``a -> a`` are built once.  With C = a[keep] the part
    left so far, the test for ``e`` masks the root domains to keep - {e},
    propagates the values masked out and solves: a map a -> C - {e} exists
    exactly when C -> C - {e} does, since ``a`` maps onto C and C lies in
    ``a``.  A masked-out value never supports another, so this is the search
    into a freshly built C - {e}, node for node until the first removal.
    The last element is never removed, as every domain would be empty.
    Each test may search ``max_nodes`` nodes.
    """
    if len(a.universe) > max_universe:
        raise LimitExceeded("core universe size", max_universe)
    if not a.universe:
        return a
    root, constraints = _constraints(a, (), a, None)  # never None: the identity map
    full = keep = (1 << len(a.universe)) - 1
    for i in range(len(a.universe)):
        mask = keep ^ (1 << i)
        domains = [dom & mask for dom in root]
        queue = {v: lost for v, dom in enumerate(root) if (lost := dom & ~mask)}
        if all(domains) and _solve(constraints, domains, queue, max_nodes, stats):
            keep = mask
    if keep == full:
        return a
    return induced_substructure(a, [e for i, e in enumerate(a.universe) if keep >> i & 1])
