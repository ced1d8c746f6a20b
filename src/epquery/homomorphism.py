"""Homomorphism search between similar finite structures, and cores.

The search is constraint propagation plus backtracking: one variable per
source element whose domain is the target universe (kept as a bitmask), one
constraint per source tuple whose supports are the target tuples matching
the source tuple's repetition pattern.  Generalized arc consistency runs
after every assignment; variables are picked by fewest remaining candidates
with a degree tie-break, values in target universe order, so both the
verdict and the returned witness are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MAX_CORE, MAX_NODES, EpqError, LimitExceeded, SignatureMismatch
from .structures import Structure, induced_substructure, project_rows, repetition_pattern


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


class _Constraint:
    __slots__ = ("vars", "supports", "fwd", "rev", "queued")

    def __init__(self, vars, supports, target_size):
        self.vars = vars  # distinct variable indices, first-occurrence order
        self.supports = supports  # value-index tuples aligned with ``vars``
        self.queued = False
        if len(vars) == 2:
            # per-value partner masks make binary revision a bit operation
            fwd = [0] * target_size
            rev = [0] * target_size
            for a, b in supports:
                fwd[a] |= 1 << b
                rev[b] |= 1 << a
            self.fwd = fwd
            self.rev = rev
        else:
            self.fwd = None
            self.rev = None


def _build_constraints(source, target, sindex, tindex):
    """One constraint per source tuple; single-variable ones become domain masks."""
    constraints = []
    unary_masks = {}
    cache = {}
    target_size = len(target.universe)
    for sym in source.signature:
        target_rows = sorted(target.relations[sym.name])
        for t in sorted(source.relations[sym.name]):
            distinct, pattern = repetition_pattern(t)
            key = (sym.name, pattern)
            if key not in cache:
                rows = project_rows(target_rows, pattern)
                cache[key] = [tuple(tindex[x] for x in row) for row in rows]
            supports = cache[key]
            if len(distinct) == 1:
                allowed = 0
                for (val,) in supports:
                    allowed |= 1 << val
                var = sindex[distinct[0]]
                unary_masks[var] = unary_masks.get(var, -1) & allowed
            else:
                vars = tuple(sindex[x] for x in distinct)
                constraints.append(_Constraint(vars, supports, target_size))
    return constraints, unary_masks


def find_homomorphism(source, target, *, fixed=None, max_nodes=MAX_NODES, stats=None):
    """Return a deterministic witness homomorphism, or None if there is none.

    ``fixed`` pins source elements to target elements before the search; the
    node budget surfaces as :class:`LimitExceeded` rather than a wrong answer.
    """
    if source.signature != target.signature:
        raise SignatureMismatch("homomorphism search needs similar structures")
    if not source.universe or not target.universe:
        raise EpqError("homomorphism search needs non-empty universes")
    sindex = {e: i for i, e in enumerate(source.universe)}
    tindex = {e: i for i, e in enumerate(target.universe)}
    n = len(source.universe)
    full = (1 << len(target.universe)) - 1
    domains = [full] * n
    if fixed:
        for elem, val in fixed.items():
            if elem not in sindex:
                raise EpqError(f"fixed element {elem!r} is not in the source universe")
            if val not in tindex:
                raise EpqError(f"fixed value {val!r} is not in the target universe")
            domains[sindex[elem]] &= 1 << tindex[val]

    constraints, unary_masks = _build_constraints(source, target, sindex, tindex)
    for var, mask in unary_masks.items():
        domains[var] &= mask
    if any(d == 0 for d in domains):
        return None

    by_var = [[] for _ in range(n)]
    for c in constraints:
        for v in set(c.vars):
            by_var[v].append(c)
    degree = [len(by_var[v]) for v in range(n)]
    counters = stats if stats is not None else SearchStats()

    def propagate(queue):
        pending = []
        for c in queue:
            if not c.queued:
                c.queued = True
                pending.append(c)
        ok = True
        while pending:
            c = pending.pop()
            c.queued = False
            if c.fwd is not None:
                u, v = c.vars
                dom_u, dom_v = domains[u], domains[v]
                new_u = 0
                new_v = 0
                # walk the smaller side; masks give the other side for free
                if dom_u.bit_count() <= dom_v.bit_count():
                    masks = c.fwd
                    rest = dom_u
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        hit = masks[bit.bit_length() - 1] & dom_v
                        if hit:
                            new_u |= bit
                            new_v |= hit
                else:
                    masks = c.rev
                    rest = dom_v
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        hit = masks[bit.bit_length() - 1] & dom_u
                        if hit:
                            new_v |= bit
                            new_u |= hit
                if not new_u:
                    ok = False
                    break
                changed = []
                if new_u != dom_u:
                    domains[u] = new_u
                    changed.append(u)
                if new_v != dom_v:
                    domains[v] = new_v
                    changed.append(v)
            else:
                doms = [domains[v] for v in c.vars]
                unions = [0] * len(c.vars)
                alive = False
                for row in c.supports:
                    for i, val in enumerate(row):
                        if not (doms[i] >> val) & 1:
                            break
                    else:
                        alive = True
                        for i, val in enumerate(row):
                            unions[i] |= 1 << val
                if not alive:
                    ok = False
                    break
                changed = []
                for i, v in enumerate(c.vars):
                    narrowed = domains[v] & unions[i]
                    if narrowed != domains[v]:
                        if narrowed == 0:
                            ok = False
                            break
                        domains[v] = narrowed
                        changed.append(v)
                if not ok:
                    break
            for v in changed:
                for other in by_var[v]:
                    if other is not c and not other.queued:
                        other.queued = True
                        pending.append(other)
        if not ok:
            for c in pending:
                c.queued = False
        return ok

    if not propagate(constraints):
        return None

    def choose():
        best = None
        best_key = None
        for v in range(n):
            size = domains[v].bit_count()
            if size > 1:
                key = (size, -degree[v], v)
                if best is None or key < best_key:
                    best, best_key = v, key
        return best

    def search():
        v = choose()
        if v is None:
            # all singletons; consistency is guaranteed by arc consistency
            return [domains[i].bit_length() - 1 for i in range(n)]
        rest = domains[v]
        while rest:
            bit = rest & -rest
            rest ^= bit
            counters.nodes += 1
            if counters.nodes > max_nodes:
                raise LimitExceeded("homomorphism search nodes", max_nodes)
            saved = domains[:]
            domains[v] = bit
            if propagate(by_var[v]):
                found = search()
                if found is not None:
                    return found
            domains[:] = saved
        return None

    try:
        solution = search()
    finally:
        # ``search`` refers to itself; dropping it frees the search state now
        # instead of at the next full garbage collection
        del search
    if solution is None:
        return None
    mapping = {source.universe[i]: target.universe[solution[i]] for i in range(n)}
    return Homomorphism(source, target, mapping)


def hom_equivalent(a, b, *, max_nodes=MAX_NODES, stats=None):
    """True iff homomorphisms exist in both directions."""
    forward = find_homomorphism(a, b, max_nodes=max_nodes, stats=stats)
    if forward is None:
        return False
    return find_homomorphism(b, a, max_nodes=max_nodes, stats=stats) is not None


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

    Greedy element removal in universe order.  A removal is justified by any
    homomorphism into the complement, not only by a retraction fixing the
    complement pointwise: a structure can admit no single-element retraction
    yet still have a proper retract (disjoint 2-cycle plus 6-cycle), while a
    homomorphic collapse always exposes some removable element.  The final
    structure admits no homomorphism into any proper induced substructure,
    hence is a core, and the composition of the removal steps retracts ``a``
    onto it.
    """
    if len(a.universe) > max_universe:
        raise LimitExceeded("core universe size", max_universe)
    current = a
    while len(current.universe) > 1:
        for elem in current.universe:
            rest = [e for e in current.universe if e != elem]
            candidate = induced_substructure(current, rest)
            if find_homomorphism(current, candidate, max_nodes=max_nodes, stats=stats) is not None:
                current = candidate
                break
        else:
            break
    return current
