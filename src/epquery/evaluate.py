"""Model-checking strategies for first-order and existential positive sentences.

Four routes to the same verdict: a walk over all assignments and the
bounded-variable bottom-up evaluator, both on ``formulas.walk``'s stack;
one homomorphism search per disjunct, where each ``Or`` of atoms stays
whole as a union constraint of the search; and the product-based round trip
through the normalized disjunct set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    MAX_DISJUNCTS,
    MAX_NODES,
    MAX_ROWS,
    MAX_WORK,
    EpqError,
    FragmentError,
    LimitExceeded,
    SignatureMismatch,
)
from .formulas import (
    And,
    Atom,
    Equality,
    Exists,
    Forall,
    Not,
    Or,
    _free_sets,
    _structure_and_unions,
    children,
    classify,
    structure_of_pp,
    subformulas,
    walk,
)
from .homomorphism import SearchStats, find_homomorphism, hom_equivalent
from .normalize import _disjuncts, _members
from .structures import Structure, product, project_rows, repetition_pattern


@dataclass(frozen=True)
class Instance:
    """A model-checking instance: one sentence, one structure."""

    sentence: object
    structure: Structure


def _check_symbols(phi, b):
    for f in subformulas(phi):
        if isinstance(f, Atom):
            if f.symbol not in b.signature:
                raise SignatureMismatch(f"symbol {f.symbol!r} is not in the structure signature")
            if b.signature.arity(f.symbol) != len(f.args):
                raise SignatureMismatch(
                    f"symbol {f.symbol!r} has arity {b.signature.arity(f.symbol)}, "
                    f"used with {len(f.args)} arguments"
                )


def eval_naive(phi, b, *, max_work=MAX_WORK):
    """Truth of a closed formula by a walk over all variable assignments.

    The work estimate |B| ** (max free variables over subformulas) is checked
    against ``max_work`` before evaluation starts.  Each subformula's verdict
    depends only on its free variables, so it is cached per assignment of
    those where a lookup can hit: at a node that occurs twice or has fewer
    free variables than quantifiers above it (shadowed binders count once per
    quantifier); any other node meets each assignment at most once.  That
    keeps the actual work proportional to the estimate even when quantifiers
    nest far deeper than the number of live variables.  Atoms and equalities
    are decided in their parent's loop, without a walker frame.
    """
    free_of = {key: tuple(sorted(names)) for key, names in _free_sets(subformulas(phi)).items()}
    if free_of[id(phi)]:
        raise FragmentError("a closed sentence is required")
    _check_symbols(phi, b)
    size = len(b.universe)
    if size == 0:
        raise EpqError("evaluation needs a non-empty universe")
    if size ** max(map(len, free_of.values())) > max_work:
        raise LimitExceeded("naive evaluation work estimate", max_work)
    # the root is the one child of a conjunction, so it is decided like any child
    return walk(_truth(And((phi,)), b, {}, {}, _reusable(phi, free_of)))


def _reusable(phi, free_of):
    # id -> key maker, for each node whose cached verdict a later visit can read
    seen, reusable = set(), {}
    stack = [(phi, 0)]
    while stack:
        g, above = stack.pop()
        if id(g) in seen or len(free_of[id(g)]) < above:
            reusable[id(g)] = _columns(free_of[id(g)])
        seen.add(id(g))
        above += type(g) is Exists or type(g) is Forall
        stack.extend((c, above) for c in children(g))
    return reusable


def _truth(f, b, env, memo, reusable):
    # Verdict of the compound node f under env.  Each kind loops over its
    # children (Not over its one child) until a child's verdict is ``stop``,
    # which flips the verdict it started from.
    kind = type(f)
    key = (id(f), reusable[id(f)](env)) if id(f) in reusable else None
    verdict = memo.get(key)
    if verdict is not None:
        return verdict
    quantifier = kind is Exists or kind is Forall
    stop = kind is Exists or kind is Or or kind is Not
    verdict = kind is Not or not stop
    previous = env.get(f.var, _MISSING) if quantifier else None
    for item in b.universe if quantifier else children(f):
        if quantifier:
            env[f.var] = item
        c = f.child if quantifier else item
        if type(c) is Atom:
            holds = tuple([env[x] for x in c.args]) in b.relations[c.symbol]
        elif type(c) is Equality:
            holds = env[c.left] == env[c.right]
        else:
            holds = yield _truth(c, b, env, memo, reusable)
        if holds == stop:
            verdict = not verdict
            break
    if previous is _MISSING:
        del env[f.var]
    elif quantifier:
        env[f.var] = previous
    if key is not None:
        memo[key] = verdict
    return verdict


_MISSING = object()


def _columns(positions):
    # The entries of a row (or of a mapping) at ``positions``, always as a tuple.
    if len(positions) == 1:
        (p,) = positions
        return lambda row: (row[p],)
    return itemgetter(*positions) if positions else lambda row: ()


class _KvarRun:
    """What one ``eval_kvar`` call shares between its walker frames."""

    def __init__(self, b, max_rows, free):
        self.b = b
        self.max_rows = max_rows
        self.free = free  # id(node) -> free variables
        self.atoms = {}  # (symbol, repetition pattern, column order) -> rows
        self.widest = 0
        self.joins = 0
        self.rows_max = 0

    def built(self, va, ra):
        self.rows_max = max(self.rows_max, len(ra))
        return va, ra


def _join(va, ra, vb, rb, run):
    # Natural join over the sorted union of the variables.  Distinct input
    # rows give distinct output rows, so the output grows with every match.
    run.joins += 1
    sa, sb = set(va), set(vb)
    if sa < sb or (sa == sb and len(ra) > len(rb)):
        va, ra, vb, rb, sa, sb = vb, rb, va, ra, sb, sa
    shared = [v for v in va if v in sb]
    key_a = _columns([va.index(v) for v in shared])
    key_b = _columns([vb.index(v) for v in shared])
    if sb <= sa:  # the join only filters ra
        keys = set(map(key_b, rb))
        return run.built(va, {row for row in ra if key_a(row) in keys})
    out_vars = tuple(sorted(sa | sb))
    where = {v: len(va) + i for i, v in enumerate(vb)}
    where.update((v, i) for i, v in enumerate(va))
    pick = _columns([where[v] for v in out_vars])
    index = {}
    for row in rb:
        index.setdefault(key_b(row), []).append(row)
    out = set()
    for row in ra:
        matches = index.get(key_a(row))
        if matches:
            out.update(pick(row + match) for match in matches)
            if len(out) > run.max_rows:
                raise LimitExceeded("bounded-variable relation size", run.max_rows)
    return run.built(out_vars, out)


def _expand(va, ra, out_vars, run):
    missing = [v for v in out_vars if v not in va]
    if not missing and out_vars == va:
        return va, set(ra)
    universe = run.b.universe
    if len(ra) * len(universe) ** len(missing) > run.max_rows:
        raise LimitExceeded("bounded-variable relation size", run.max_rows)
    combos = list(itertools.product(universe, repeat=len(missing))) if ra else ()
    where = {v: i for i, v in enumerate(va + tuple(missing))}
    pick = _columns([where[v] for v in out_vars])
    return tuple(out_vars), {pick(row + combo) for row in ra for combo in combos}


def _complement(va, ra, run):
    universe = run.b.universe
    if len(universe) ** len(va) > run.max_rows:
        raise LimitExceeded("bounded-variable relation size", run.max_rows)
    return run.built(va, set(itertools.product(universe, repeat=len(va))) - ra)


def eval_kvar(phi, b, k, *, stats=None, max_rows=MAX_ROWS):
    """Bottom-up evaluation computing satisfying assignments per subformula.

    Each intermediate relation ranges over the free variables of its
    subformula, so its arity never exceeds k.  A conjunction is planned:

    - its compound children are evaluated first, one at a time, then its
      atoms and equalities;
    - an ``Or`` child whose free variables lie within those of a pending
      part filters the smallest such part: it keeps the part's rows on which
      some disjunct holds, so that ``Or`` is never padded to its variables;
    - a part whose variables contain, or lie within, those of a part still
      pending is joined with it at once, which only filters;
    - at the first empty part the conjunction is empty, and its remaining
      children are not evaluated;
    - the parts left are joined greedily: start from the smallest, then take
      the part sharing the most variables with the result, the smaller on
      ties, and stop as soon as the result is empty.

    So besides the atom projections, which are made once per call and
    shared, a conjunction holds at most one compound child's relation more
    than the pending parts that could not be merged, and no join of its
    atoms is built while one of its subtrees is evaluated.
    ``max_rows`` bounds every relation built.  When given, ``stats`` gets
    ``max_arity`` (the largest arity of a relation a visited subformula
    produced), ``joins`` (combinations of two relations, a filtered ``Or``
    counting as one) and ``rows_max`` (the largest relation built).
    """
    info = classify(phi)
    if info.variables > k:
        raise FragmentError(f"sentence uses {info.variables} variables, more than k={k}")
    if not info.closed:
        raise FragmentError("a closed sentence is required")
    _check_symbols(phi, b)
    run = _KvarRun(b, max_rows, _free_sets(subformulas(phi)))
    vars_final, rows = walk(_relation(phi, run))
    if stats is not None:
        stats.update(max_arity=run.widest, joins=run.joins, rows_max=run.rows_max)
    assert run.widest <= k
    assert vars_final == ()
    return bool(rows)


def _relation(f, run):
    # Satisfying assignments of f as (sorted free variables, set of rows).
    # Atom rows are shared through run.atoms, so no relation is changed in place.
    kind = type(f)
    if kind is Atom:
        distinct, pattern = repetition_pattern(f.args)
        va = tuple(sorted(distinct))
        order = tuple(distinct.index(v) for v in va)
        key = (f.symbol, pattern, order)
        ra = run.atoms.get(key)
        if ra is None:
            rows = project_rows(run.b.relations[f.symbol], pattern)
            ra = run.atoms[key] = set(map(_columns(order), rows))
    elif kind is Equality:
        va = tuple(sorted({f.left, f.right}))
        ra = {(u,) * len(va) for u in run.b.universe}
    elif kind is And:
        pending = []
        for c in sorted(f.children, key=lambda c: isinstance(c, (Atom, Equality))):
            covering = [p for p in pending if run.free[id(c)] <= set(p[0])] if type(c) is Or else []
            part = min(covering, key=lambda p: len(p[1]), default=None)
            if part is not None:
                pending = [p for p in pending if p is not part]
                va, ra = yield _filtered(c, part, run)
            else:
                va, ra = yield _relation(c, run)
            unmerged = []
            for vb, rb in pending:
                if ra and (set(va) <= set(vb) or set(vb) <= set(va)):
                    va, ra = _join(va, ra, vb, rb, run)
                else:
                    unmerged.append((vb, rb))
            if not ra:
                break
            pending = unmerged + [(va, ra)]
        else:
            va, ra = _greedy_join(pending, run)
        if not ra:
            va = tuple(sorted(run.free[id(f)]))
    elif kind is Or:
        parts = []
        for c in f.children:
            parts.append((yield _relation(c, run)))
        va = tuple(sorted(set().union(*(set(v) for v, _ in parts))))
        ra = set()
        for vc, rc in parts:
            ra |= _expand(vc, rc, va, run)[1]
    else:
        va, ra = yield _relation(f.child, run)
        if kind is Not:
            va, ra = _complement(va, ra, run)
        elif f.var in va:
            # forall x . g is equivalent to not (exists x . not g)
            if kind is Forall:
                va, ra = _complement(va, ra, run)
            idx = va.index(f.var)
            va = va[:idx] + va[idx + 1 :]
            ra = {row[:idx] + row[idx + 1 :] for row in ra}
            if kind is Forall:
                va, ra = _complement(va, ra, run)
    run.widest = max(run.widest, len(va))
    return run.built(va, ra)


def _filtered(f, part, run):
    # Rows of the pending part on which some child of the Or f holds: the
    # filtering join of the part with f's padded relation, as one join.
    vb, rest = part
    run.joins += 1
    kept = set()
    for c in f.children:
        vc, rc = yield _relation(c, run)
        key = _columns([vb.index(v) for v in vc])
        hit = {row for row in rest if key(row) in rc}
        kept |= hit
        rest = rest - hit
        if not rest:
            break
    return run.built(vb, kept)


def _greedy_join(parts, run):
    # From the smallest part, join in the part sharing the most variables
    # with the result; sorting by size makes the first such part the smallest.
    parts = sorted(parts, key=lambda p: len(p[1]))
    va, ra = parts.pop(0)
    while parts and ra:
        seen = set(va)
        best = max(range(len(parts)), key=lambda i: len(seen.intersection(parts[i][0])))
        vb, rb = parts.pop(best)
        va, ra = _join(va, ra, vb, rb, run)
    return va, ra


def eval_dnf_hom(phi, b, *, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES, stats=None):
    """Existential positive evaluation: some disjunct's structure maps into b.

    The sentence is flattened except that each ``Or`` whose children are all
    atoms stays whole, so H_n gives one disjunct where full flattening gives
    n^n.  Each disjunct is one homomorphism search in which every kept ``Or``
    is a union constraint: it holds when one of its atoms maps to a tuple of
    b.  ``max_disjuncts`` bounds the disjuncts of this partial flattening,
    and ``stats.nodes`` counts the nodes of these searches.
    """
    _check_symbols(phi, b)
    disjuncts = _disjuncts(phi, max_disjuncts, True)
    searches = (_structure_and_unions(psi, b.signature) for psi in disjuncts)
    return any(find_homomorphism(struct, b, unions=unions, max_nodes=max_nodes, stats=stats)
               is not None for struct, unions in searches)


def eval_via_pp_turing(phi, b, *, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES, stats=None):
    """Evaluation through the normalized disjunct set, one search per member's structure."""
    _check_symbols(phi, b)
    members = _members(phi, b.signature, max_disjuncts, max_nodes, stats)
    return any(find_homomorphism(struct, b, max_nodes=max_nodes, stats=stats) is not None
               for _, struct in members)


def pp_to_ep_instance(psi, phi, b, *, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES):
    """Product instance carrying a normalized-disjunct query over to the full sentence.

    Requires ``psi`` to be logically equivalent to a member of the normalized
    disjunct set of ``phi``; the returned instance is true exactly when ``b``
    satisfies ``psi``.
    """
    members = _members(phi, b.signature, max_disjuncts, max_nodes, None)
    psi_struct = structure_of_pp(psi, b.signature)
    if not any(hom_equivalent(psi_struct, struct, max_nodes=max_nodes) for _, struct in members):
        raise EpqError("the sentence is not a normalized disjunct of the query")
    return Instance(phi, product(psi_struct, b))


_STRATEGIES = ("naive", "kvar", "dnf-hom", "pp-reduction")


def evaluate(phi, b, strategy="naive", *, k=None, stats=None, **limits):
    """Dispatch helper used by the command line; strategy names as documented.

    ``stats`` is a ``SearchStats`` for the search strategies and a dict for
    ``kvar`` (see ``eval_kvar``); ``naive`` keeps none.  A ``stats`` of the
    other kind raises ``EpqError`` before any evaluation.  Each strategy
    takes the ``limits`` it has and ignores the others: ``max_work`` for
    ``naive``, ``max_rows`` for ``kvar``, ``max_disjuncts`` and
    ``max_nodes`` for ``dnf-hom`` and ``pp-reduction``.  A limit that no
    strategy takes raises ``EpqError``, so a misspelled one is not dropped.
    """
    kind = dict if strategy == "kvar" else SearchStats
    if stats is not None and strategy in _STRATEGIES[1:] and not isinstance(stats, kind):
        raise EpqError(f"strategy {strategy!r} keeps its counters in a {kind.__name__}")
    for name in limits:
        if name not in ("max_work", "max_rows", "max_disjuncts", "max_nodes"):
            raise EpqError(f"unknown limit {name!r}; no strategy takes it")

    def taking(*names):
        return {name: limits[name] for name in names if name in limits}

    if strategy == "naive":
        return eval_naive(phi, b, **taking("max_work"))
    if strategy == "kvar":
        bound = k if k is not None else classify(phi).variables
        return eval_kvar(phi, b, bound, stats=stats, **taking("max_rows"))
    if strategy == "dnf-hom":
        return eval_dnf_hom(phi, b, stats=stats, **taking("max_disjuncts", "max_nodes"))
    if strategy == "pp-reduction":
        return eval_via_pp_turing(phi, b, stats=stats, **taking("max_disjuncts", "max_nodes"))
    raise EpqError(f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}")
