"""Homomorphism search between similar finite structures, and cores.

The search is constraint propagation plus backtracking: one variable per
source element whose domain is the target universe (kept as a bitmask), one
constraint per source tuple whose supports are the target tuples matching
the source tuple's repetition pattern.

- The target side is prepared once per target structure and kept on it: per
  (symbol, repetition pattern), the supports, a mask per column of the values
  that have a support, and for binary patterns the per-value partner masks,
  which one pass over the relation builds with the column masks.  Every
  search into that target reuses them.
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
- A wide mask is read through the partner masks a byte at a time, as
  Lecoutre and Vion read bitset domains a machine word at a time
  ("Enforcing arc consistency using bitwise operations", Constraint
  Programming Letters 2, 2008).  A partner list's first wide read builds its
  byte tables, two 16-entry tables per byte of the universe: the unions of
  its masks over each subset of the byte's low half-byte and of its high
  one.  They are kept in the partner list, so they live and die with the
  target's tables.  A mask is wide when it holds more values than the
  universe has bytes, by more than one byte's worth; a narrower one is read
  a bit at a time.  This serves the forward reach of a revision, the check
  of which values lost their last support (those that the byte reach of
  the kept values no longer covers) and the supports of union branches.
- Sources that ``_link_shared`` linked (``m_normalize`` links the flattened
  disjuncts of a sentence when there are three or more) share the
  substructure of the tuples they all hold.  It keeps its root fixpoint
  in each target, computed once, and a wipe-out there refutes every
  linked source.  A linked search starts its shared variables at that
  fixpoint and queues only the variables of its other tuples, and those
  that ``fixed`` narrowed, so the shared part is not propagated again per
  source.
- Between two linked structures, a search is first tested against the
  loose-atom keys: one per tuple outside the shared part, its symbol, its
  arguments with every non-shared element blanked and its repetition
  pattern.  A source with a key that no target tuple supports is refuted
  before its skeleton is bound or built (``_keyed_out``); on the
  disjuncts of H_n every entailment test ends there.
- Two roots are also probed, as in singleton arc consistency (Debruyne and
  Bessiere, IJCAI 1997): a probe gives one variable one value and
  propagates, and a value whose probe wipes out leaves the root for good,
  which is then propagated back to a fixpoint.  This is sound.
  Propagation drops only values that no homomorphism uses, so after a
  wipe-out no homomorphism sends that variable to that value.  Every
  search started from the root works inside it, as ``fixed`` and
  ``core``'s masks only narrow it.  So verdicts are those of the plain
  search, and only node counts move; each probe counts as a node of the
  call that makes it.  In ``core``, before each removal test, the
  element's own variable in ``a -> a``.  And once per family of linked
  structures, the shared part's root in U, the union of the family, on
  its first use.  Each linked structure lies in U, so every map of the
  shared part into one of them is a map into U and keeps to the values
  this family root keeps: one probed root serves every target of the
  family, as the keys' supports and as a bound on each linked target's
  shared root.  In ``core`` the target holds the probed structure, so the
  identity is one of its maps.  Where it is nearly the only one, as for a
  core with few automorphisms (Hell and Nesetril, "The core of a graph",
  1992), probing leaves little else, and the searches refute at their
  root.
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
given domains and backtracks; ``_probe`` runs the singleton tests.
``core`` builds the constraints of ``a -> a`` once and tests each removal
by masking one value out of the root domains.  ``isomorphic`` is one
search between copies that also relate every two distinct elements.

Variables are picked by fewest remaining candidates with a degree
tie-break, values in target universe order, so both the verdict and the
returned witness are deterministic.
"""

from __future__ import annotations

import weakref
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
    tuples (kept for arity three and up only, which ``_supported`` rescans),
    one mask per column of the values that have a support there, and for
    binary keys the partner masks ``fwd[a]`` (second values seen with ``a``)
    and ``rev[b]`` (first values seen with ``b``).  Keys are filled in on
    first use and shared by every source tuple with that key.

    Each partner list holds one more item after its ``size`` masks: its
    byte tables (see ``_byte_tables``), None until a wide read first needs
    them.  So they live and die with the target's tables.
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
            found = self.keys[key] = (self._binary(name, pattern) if max(pattern) == 1
                                      else self._projected(name, pattern))
        return found

    def _projected(self, name, pattern):
        tindex = self.tindex
        supports = [tuple(tindex[x] for x in row)
                    for row in project_rows(self.relations[name], pattern)]
        cols = [0] * (max(pattern) + 1)
        for row in supports:
            for i, val in enumerate(row):
                cols[i] |= 1 << val
        return supports if len(cols) > 2 else None, cols, None, None

    def _binary(self, name, pattern):
        # one pass over the rows, which tie at least where the pattern does:
        # a loop row (c, c) supports (0, 1) as (c, c)
        tindex = self.tindex
        second = pattern.index(1)
        ties = [(i, pattern.index(p)) for i, p in enumerate(pattern) if pattern.index(p) != i]
        fwd = [0] * self.size + [None]
        rev = [0] * self.size + [None]
        firsts = seconds = 0
        for row in self.relations[name]:
            if ties and any(row[i] != row[j] for i, j in ties):
                continue
            a, b = tindex[row[0]], tindex[row[second]]
            fwd[a] |= 1 << b
            rev[b] |= 1 << a
            firsts |= 1 << a
            seconds |= 1 << b
        return None, [firsts, seconds], fwd, rev


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

    ``link`` is None, or for a source that ``_link_shared`` linked to a
    substructure: (that substructure, per shared variable its index here,
    the variables here of the tuples outside the substructure).
    """

    __slots__ = ("sindex", "degree", "keys", "link")

    def __init__(self, source):
        self.sindex = sindex = {e: i for i, e in enumerate(source.universe)}
        shared = source.__dict__.get("_shared")
        loose = set()
        degree = [0] * len(sindex)
        keys = []
        for sym in source.signature:
            by_pattern = {}
            held = shared.relations[sym.name] if shared is not None else ()
            for t in source.relations[sym.name]:
                distinct, pattern = repetition_pattern(t)
                vars = tuple(sindex[x] for x in distinct)
                by_pattern.setdefault(pattern, []).append(vars)
                if len(vars) > 1:
                    for v in vars:
                        degree[v] += 1
                if shared is not None and t not in held:
                    loose.update(vars)
            for pattern in sorted(by_pattern):
                tuples = sorted(by_pattern[pattern])
                cols = tuple(tuple(sorted(set(column))) for column in zip(*tuples))
                pairs = tuples if len(tuples[0]) == 2 else ()
                keys.append((sym.name, pattern, cols, _partners(pairs),
                             _partners(sorted((y, x) for x, y in pairs)),
                             tuple(tuples) if len(tuples[0]) > 2 else ()))
        self.degree = tuple(degree)
        self.keys = tuple(keys)
        self.link = None
        if shared is not None:
            base = _skeleton(shared)
            self.link = (shared, tuple(sindex[e] for e in base.sindex), frozenset(loose))


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


def _link_shared(structures):
    """Link the structures to the substructure of the tuples all of them hold.

    Each structure's skeleton links to it when it is built.  Each structure
    also gets its ``_Loose`` record: the masks of its loose-atom keys and of
    its loose tuples, those outside the substructure.  A key is (symbol,
    the arguments with every element outside the substructure blanked to
    None, the repetition pattern).  Keys and tuples are numbered in
    structure order, and within a structure in signature order and then
    universe order, so no mask depends on the hash seed.  The substructure
    keeps the family's ``_Family`` tables and its ``_roots`` (see
    ``_shared_root``), which die with the structures.  No link is made for
    fewer than three structures, where each target's root would serve a
    single search, or when they share no tuple.
    """
    if len(structures) < 3:
        return
    first, rest = structures[0], structures[1:]
    relations = {sym.name: first.relations[sym.name].intersection(
        *(s.relations[sym.name] for s in rest)) for sym in first.signature}
    elements = {x for tuples in relations.values() for t in tuples for x in t}
    if not elements:
        return
    shared = Structure(first.signature, [e for e in first.universe if e in elements], relations)
    keys, rows, universe = {}, {}, {}
    for s in structures:
        universe.update(dict.fromkeys(s.universe))
        order = {e: i for i, e in enumerate(s.universe)}
        key_mask = row_mask = 0
        for sym in s.signature:
            held = relations[sym.name]
            for t in sorted((t for t in s.relations[sym.name] if t not in held),
                            key=lambda t: [order[x] for x in t]):
                key = (sym.name, tuple(x if x in elements else None for x in t),
                       repetition_pattern(t)[1])
                key_mask |= 1 << keys.setdefault(key, len(keys))
                row_mask |= 1 << rows.setdefault((sym.name, t), len(rows))
        s.__dict__["_shared"] = shared
        s.__dict__["_loose"] = _Loose(key_mask, row_mask)
    shared.__dict__["_roots"] = weakref.WeakKeyDictionary()
    shared.__dict__["_family"] = _Family(tuple(universe), tuple(keys), tuple(rows))


class _Loose:
    """One linked structure's part outside the shared substructure.

    ``keys`` and ``rows`` are the masks of its loose-atom keys and of its
    loose tuples.  As a target, ``tied`` and ``supported`` are the masks of
    the family's keys that some tuple of it ties or supports (see
    ``_Family``), each worked out on first use.
    """

    __slots__ = ("keys", "rows", "tied", "supported")

    def __init__(self, keys, rows):
        self.keys, self.rows = keys, rows
        self.tied = self.supported = None


class _Family:
    """The tables shared by the structures of one ``_link_shared`` call.

    ``keys`` lists the loose-atom keys and ``rows`` the loose tuples, as
    (symbol, tuple), each in bit order.  U, the union of the linked
    structures, has ``universe`` and holds the shared tuples and ``rows``;
    every linked structure is contained in U.  ``root`` is the family root:
    per shared element, the elements of U that its variable keeps once the
    shared part's root in U is probed to singleton arc consistency.

    A tuple *ties* a key when it has the key's symbol and repeats a value
    wherever the key's pattern repeats an index.  It may repeat more, as
    (x, y) maps onto (c, c).  It *supports* the key when it also gives each
    shared argument a value that the family root keeps for it.  ``tied``
    and ``supported`` give the keys that the shared tuples tie or support,
    all together, and the keys that each row does; each is built on first
    use.
    """

    __slots__ = ("universe", "keys", "rows", "root", "tied", "supported")

    def __init__(self, universe, keys, rows):
        self.universe, self.keys, self.rows = universe, keys, rows
        self.root = self.tied = self.supported = None

    def probed(self, shared, budget):
        # the family root, computed on first use; each probe counts on ``budget``
        if self.root is None:
            union = Structure(shared.signature, self.universe, {
                sym.name: shared.relations[sym.name].union(
                    t for name, t in self.rows if name == sym.name) for sym in shared.signature})
            # neither is None: the identity is a map of the shared part into U
            domains, constraints = _constraints(shared, (), union, None, None)
            domains = _probe_all(domains, *constraints[:2], budget.tick)
            self.root = {x: frozenset(e for i, e in enumerate(union.universe) if dom >> i & 1)
                         for x, dom in zip(shared.universe, domains)}
        return self.root

    def table(self, shared, root):
        # the keys that the shared tuples fit, all together, and per row the
        # keys it fits: those it ties, or with the family root, supports
        by_symbol = {}
        for bit, key in enumerate(self.keys):
            by_symbol.setdefault(key[0], []).append((1 << bit, key))

        def fitted(name, t):
            return sum(bit for bit, key in by_symbol.get(name, ()) if _fits(t, key, root))

        common = 0
        for name, tuples in shared.relations.items():
            for t in tuples:
                common |= fitted(name, t)
        return common, [fitted(name, t) for name, t in self.rows]


def _fits(t, key, root):
    # t ties the key, and with a root, also supports it (see ``_Family``)
    _, args, pattern = key
    return all(t[i] == t[pattern.index(p)] and (root is None or x is None or t[i] in root[x])
               for i, (x, p) in enumerate(zip(args, pattern)))


def _keyed_out(source, target, budget):
    """True when the linked source has a loose-atom key that the target,
    linked to the same substructure, does not support.

    A map of the source into the target sends each loose tuple to a target
    tuple that ties its key, and restricts to a map of the shared part into
    the target, so into U; that map uses only values the family root
    keeps.  So a key that no target tuple supports leaves no map.  A key
    whose symbol and pattern no target tuple ties refutes first, with no
    root; only then is the family root asked for, its probes counting on
    ``budget``.  The target's masks are the shared tuples' masks and those
    of its own loose tuples, worked out once per target.
    """
    shared = target.__dict__["_shared"]
    family = shared.__dict__["_family"]
    keys, loose = source.__dict__["_loose"].keys, target.__dict__["_loose"]
    if loose.tied is None:
        family.tied = family.tied or family.table(shared, None)
        loose.tied = family.tied[0] | _reach(loose.rows, family.tied[1])
    if keys & ~loose.tied:
        return True
    if loose.supported is None:
        family.supported = family.supported or family.table(shared, family.probed(shared, budget))
        loose.supported = family.supported[0] | _reach(loose.rows, family.supported[1])
    return keys & ~loose.supported != 0


def _shared_root(shared, target, budget):
    """The root fixpoint of a linked substructure in a target, None on a
    wipe-out; computed on first use and kept in the substructure's
    ``_roots``, weakly keyed by the target's tables (structures are unhashable).

    In a target that is itself linked to ``shared``, the plain root is
    narrowed to the family root (``_Family.probed``) and propagated back to
    a fixpoint.  The target lies in U, so every homomorphism of the shared
    part into it is one into U and uses only values the family root keeps;
    each linked source contains the shared part, so no homomorphism of a
    linked source uses a dropped value either, and every search from this
    root decides as it would from the plain one.  ``budget`` counts the
    family root's probes when this is its first use.  Any other target
    keeps the plain root.
    """
    roots, prepared = shared.__dict__["_roots"], _prepared(target)
    if prepared in roots:
        return roots[prepared]
    built = _constraints(shared, (), target, None, None)
    root = None if built is None else built[0]
    if root is not None and target.__dict__.get("_shared") is shared:
        kept, tindex = shared.__dict__["_family"].probed(shared, budget), prepared.tindex
        queue = {}
        for v, x in enumerate(shared.universe):
            removed = root[v] & ~sum(1 << tindex[e] for e in kept[x] if e in tindex)
            if removed:
                root[v] ^= removed
                queue[v] = removed
        if not all(root) or not _propagate(root, *built[1][:3], queue, []):
            root = None
    roots[prepared] = root
    return root


def _reach(values, table):
    # the union of table[v] over the values v in the mask, a bit at a time
    out = 0
    while values:
        bit = values & -values
        values ^= bit
        out |= table[bit.bit_length() - 1]
    return out


def _partner_reach(values, table):
    # ``_reach`` through one of a target's partner lists, by bytes when the mask is wide
    if values.bit_count() > _byte_limit(table):
        return _byte_reach(values, table)
    return _reach(values, table)


def _byte_limit(table):
    """The most values a mask may hold and still be read a bit at a time
    through the partner list ``table``: one per byte of the universe, and
    one byte's worth more, as a byte read has a fixed cost of about eight
    bit steps."""
    return (len(table) + 70) >> 3


def _byte_reach(values, table):
    # ``_reach`` through a partner list, one byte of the mask at a time
    size = len(table) - 1
    out = 0
    for byte, (low, high) in zip(values.to_bytes((size + 7) >> 3, "little"),
                                 table[size] or _byte_tables(table)):
        if byte:
            out |= low[byte & 15] | high[byte >> 4]
    return out


def _byte_tables(table):
    """The byte tables of a partner list, built on its first wide read and
    kept in its last item: per byte of the universe, two 16-entry tables,
    the unions of the partner masks over each subset of the byte's low
    half-byte and of its high one.  The last byte is padded with empty
    masks, past the end of the universe."""
    size = len(table) - 1
    masks = table[:size] + [0] * (-size % 8)
    pairs = []
    for base in range(0, size, 8):
        halves = []
        for start in (base, base + 4):
            union = [0] * 16
            for subset in range(1, 16):
                low = subset & -subset
                union[subset] = union[subset ^ low] | masks[start + low.bit_length() - 1]
            halves.append(union)
        pairs.append(halves)
    table[size] = pairs
    return pairs


def _supported(vars, entry, domains):
    """Per variable of one atom, the values it takes in a support that lies
    inside the current domains: all zero exactly when the atom has none."""
    supports, cols, fwd, rev = entry
    if len(vars) == 1:
        return [domains[vars[0]] & cols[0]]
    if len(vars) == 2:
        x, y = vars
        kept_x = domains[x] & _partner_reach(domains[y], rev)
        return [kept_x, domains[y] & _partner_reach(kept_x, fwd)]
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
    is alive.  A binary branch's second variable waits until it is known to
    be in every live branch before its supported values are worked out.
    """
    live = []
    for vars, entry in branches:
        if len(vars) == 2:  # the first side only, through ``rev``
            seen = [domains[vars[0]] & _partner_reach(domains[vars[1]], entry[3])]
        else:
            seen = _supported(vars, entry, domains)
        if seen[0]:
            live.append((vars, entry, seen))
    if not live:
        return None
    kept = dict.fromkeys(set(live[0][0]).intersection(*(vars for vars, _, _ in live[1:])), 0)
    for vars, entry, seen in live:
        if len(seen) < len(vars) and vars[1] in kept:  # the second side, through ``fwd``
            seen.append(domains[vars[1]] & _partner_reach(seen[0], entry[2]))
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
        count = lost.bit_count()
        from_lost = count < dom_x.bit_count()
        if from_lost:
            values = lost
        else:
            values, count = dom_x, dom_x.bit_count()
        for out, back, ys in arcs[x]:
            # the values reached through ``out`` from the lost or the kept ones
            limit = _byte_limit(out)
            if count > limit:
                reached = _byte_reach(values, out)
            else:
                reached = 0
                rest = values
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    reached |= out[bit.bit_length() - 1]
            covered = None  # the values with a partner in dom_x, read by bytes when first needed
            for y in ys:
                dom_y = domains[y]
                if from_lost:
                    # only a value that lost a partner can lose its last support
                    rest = reached & dom_y
                    if covered is None and rest.bit_count() > limit:
                        covered = _byte_reach(dom_x, out)
                    if covered is not None:
                        removed = rest & ~covered
                    else:
                        removed = 0
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


def _probe(domains, arcs, scans, x, values, tick):
    """Singleton tests of ``values`` for ``x`` at a root fixpoint.

    Returns the first of ``values``, in target order, that survives: giving
    ``x`` that one value and propagating leaves no domain empty.  A value
    that wipes out is used by no homomorphism, so it leaves ``domains`` for
    good and they are propagated back to a fixpoint.  0 when no value
    survives, None when that propagation wipes out.  ``tick`` counts each
    test; a value that is all ``x`` has left survives untested.
    """
    while values:
        bit = values & -values
        values ^= bit
        dom = domains[x]
        if not dom & bit:
            continue  # dropped by an earlier test
        if dom == bit:
            return bit
        tick()
        trail = [(x, dom)]
        domains[x] = bit
        alive = _propagate(domains, arcs, scans, {}, {x: dom ^ bit}, trail)
        for v, old in reversed(trail):
            domains[v] = old
        if alive:
            return bit
        domains[x] = dom ^ bit
        if not _propagate(domains, arcs, scans, {}, {x: bit}, []):
            return None
    return 0


def _probe_all(domains, arcs, scans, tick):
    """Probe every value of every variable of a root fixpoint, in passes
    until a pass drops nothing (Debruyne and Bessiere's singleton arc
    consistency); None on a wipe-out."""
    while True:
        before = domains.copy()
        for x in range(len(domains)):
            rest = domains[x]
            while rest:
                kept = _probe(domains, arcs, scans, x, rest, tick)
                if kept is None:
                    return None
                rest &= ~(kept | (kept - 1))  # the values after the survivor
        if domains == before:
            return domains


class _Budget:
    """The nodes of one call, search nodes and probes alike, counted on a
    ``SearchStats`` record; more than ``max_nodes`` of them raise
    :class:`LimitExceeded`."""

    __slots__ = ("counters", "start", "max_nodes")

    def __init__(self, stats, max_nodes):
        self.counters = stats if stats is not None else SearchStats()
        self.start = self.counters.nodes
        self.max_nodes = max_nodes

    def tick(self):
        self.counters.nodes += 1
        if self.counters.nodes - self.start > self.max_nodes:
            raise LimitExceeded("homomorphism search nodes", self.max_nodes)


def find_homomorphism(source, target, *, fixed=None, unions=(), max_nodes=MAX_NODES, stats=None):
    """Return a deterministic witness homomorphism, or None if there is none.

    ``fixed`` pins source elements to target elements before the search.
    Each of ``unions`` is a sequence of (symbol, arguments over source
    elements), and the map must send one of them to a target tuple.
    ``max_nodes`` bounds the nodes this call counts, search nodes and
    probes together, whether or not a ``stats`` record shared with other
    calls adds them to its running total; the budget surfaces as
    :class:`LimitExceeded` rather than a wrong answer.
    """
    budget = _Budget(stats, max_nodes)
    built = _constraints(source, unions, target, fixed, budget)
    if built is None or not _solve(built[1], built[0], {}, budget):
        return None
    # every domain is a singleton, and the fixpoint makes the map a homomorphism
    mapping = {x: target.universe[dom.bit_length() - 1] for x, dom in zip(source.universe, built[0])}
    return Homomorphism(source, target, mapping)


def _constraints(source, unions, target, fixed, budget):
    """The root fixpoint domains of a search and its constraints (arcs,
    scans, unions, degree), or None when that fixpoint wipes out.

    Between two structures linked to one substructure, the source's
    loose-atom keys are tested first (``_keyed_out``), before the skeleton
    is built or bound.  The source's skeleton is bound to the target with
    one table entry per (symbol, repetition pattern) key.  Each variable
    starts at the values with a support in every column it fills, which is
    what a first revision against full domains would leave; an empty one
    refutes at once.  A linked source then starts its shared variables at
    the shared part's root in the target (``_shared_root``), so only the
    variables of its other tuples, and those that the column masks or
    ``fixed`` narrowed further, are queued.  The largest fixpoint below
    that start is the plain root, or, when the target is linked to the
    same part and so its shared root was narrowed to the family root, lies
    inside the plain root and keeps every value that some homomorphism
    uses.  ``budget``, the call's, counts the family root's probes when
    this call is its first use; it may be None for an unlinked source.
    """
    if source.signature != target.signature:
        raise SignatureMismatch("homomorphism search needs similar structures")
    if not source.universe or not target.universe:
        raise EpqError("homomorphism search needs non-empty universes")
    for elem, val in (fixed or {}).items():
        if elem not in _skeleton(source).sindex:
            raise EpqError(f"fixed element {elem!r} is not in the source universe")
        if val not in _prepared(target).tindex:
            raise EpqError(f"fixed value {val!r} is not in the target universe")
    link = source.__dict__.get("_shared")
    if link is not None and target.__dict__.get("_shared") is link and _keyed_out(source, target, budget):
        return None
    skeleton = _skeleton(source)
    prepared = _prepared(target)
    tindex = prepared.tindex
    sindex = skeleton.sindex
    n = len(source.universe)
    full = (1 << prepared.size) - 1
    domains = [full] * n
    arcs = [[] for _ in domains]  # (partner masks, reverse masks, others)
    scans = [[] for _ in domains]  # (variables, table entry) of arity three or more
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
    if not all(domains):
        return None
    start = [full] * n
    loose = ()
    if skeleton.link is not None:
        shared, positions, loose = skeleton.link
        root = _shared_root(shared, target, budget)
        if root is None:
            return None
        for v, dom in zip(positions, root):
            start[v] = dom
            domains[v] &= dom
    for elem, val in (fixed or {}).items():
        domains[sindex[elem]] &= 1 << tindex[val]

    # unlinked, every start is full and no variable is loose
    queue = {v: full ^ dom for v, dom in enumerate(domains)
             if dom != start[v] or (dom != full and v in loose)}
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


def _solve(constraints, domains, queue, budget):
    """From domains that are a fixpoint but for the values ``queue`` lists as
    lost, propagate and backtrack; True when they end as a solution's
    singletons.  Each node counts on ``budget``."""
    arcs, scans, union_of, degree = constraints
    trail = []
    if not _propagate(domains, arcs, scans, union_of, queue, trail):
        return False
    tick = budget.tick

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
            tick()
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

    The constraints of ``a -> a`` are built once, on a private twin of
    ``a`` so that its tables die with the call.  With C = a[keep] the part
    left so far, the test for ``e`` masks the root domains to keep - {e},
    propagates the values masked out and solves: a map a -> C - {e} exists
    exactly when C -> C - {e} does, since ``a`` maps onto C and C lies in
    ``a``.  A masked-out value never supports another, so unprobed, this is
    the search into a freshly built C - {e}.  The last element is never
    removed, as every domain would be empty.

    Before the test, ``e``'s own variable is probed in the root with each
    value of keep - {e} in turn, up to the first that survives (see
    ``_probe``).  A value whose probe wipes out is used by no map a -> a,
    so by no map a -> C - {e} either, and it leaves the root for good.  If
    no value survives, every map a -> C - {e} would send ``e`` to a dropped
    value, so there is none: ``e`` stays and nothing is searched.  A probe
    counts as a node.  Each test's search may count ``max_nodes`` nodes,
    as a search into a freshly built C - {e} may, and its probes as many:
    a probe that survives is not a step of the search, which starts again
    from the masked root.
    """
    if len(a.universe) > max_universe:
        raise LimitExceeded("core universe size", max_universe)
    if not a.universe:
        return a
    twin = Structure(a.signature, a.universe, a.relations)
    root, constraints = _constraints(twin, (), twin, None, None)  # never None: the identity map
    arcs, scans = constraints[:2]
    full = keep = (1 << len(a.universe)) - 1
    for i in range(len(a.universe)):
        mask = keep ^ (1 << i)
        if not _probe(root, arcs, scans, i, root[i] & mask, _Budget(stats, max_nodes).tick):
            continue  # no map a -> a sends e to another kept element: e stays
        domains = [dom & mask for dom in root]
        queue = {v: lost for v, dom in enumerate(root) if (lost := dom & ~mask)}
        if all(domains) and _solve(constraints, domains, queue, _Budget(stats, max_nodes)):
            keep = mask
    if keep == full:
        return a
    return induced_substructure(a, [e for i, e in enumerate(a.universe) if keep >> i & 1])
