"""Model-checking strategies for first-order and existential positive sentences.

Four routes to the same verdict: a walk over assignments of the sentence
specialized to the structure (atoms over empty or full relations folded
away, each quantifier moved below the parts that do not mention its
variable) and the bounded-variable bottom-up evaluator, both on
``formulas.walk``'s stack; one homomorphism search per disjunct, where each
``Or`` of atoms stays whole as a union constraint of the search; and the
product-based round trip through the normalized disjunct set.  All four
check the sentence first, in one order (see ``evaluate``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import is_, itemgetter

from .errors import (
    MAX_DISJUNCTS,
    MAX_NODES,
    MAX_ROWS,
    MAX_WORK,
    EpqError,
    LimitExceeded,
)
from .formulas import (
    And,
    Atom,
    Equality,
    Exists,
    Forall,
    Not,
    Or,
    _checked,
    _free_sets,
    _structure_and_unions,
    children,
    structure_of_pp,
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


def _check_sentence(phi, b, fragment, k=None):
    # What every strategy requires of its input, in this order (kvar's k
    # first); the sentence's ``_scan``.
    scan = _checked(phi, fragment, b.signature, k)
    if not b.universe:
        raise EpqError("evaluation needs a non-empty universe")
    return scan


def eval_naive(phi, b, *, max_work=MAX_WORK):
    """Truth of a closed formula by a walk over variable assignments.

    The work estimate |B| ** (max free variables over subformulas) is checked
    against ``max_work`` on the input sentence before evaluation starts.  The
    sentence is then specialized to ``b`` (see ``_specialized``): atoms whose
    relation is empty or full become constants and are folded away, and each
    quantifier moves below the conjuncts (the disjuncts, for ``forall``) that
    do not mention its variable, so every part is decided where its own
    variables are bound (miniscoping, as in Harrison, Handbook of Practical
    Logic and Automated Reasoning, 2009, section 3.5).  No subformula gains a
    free variable, so the estimate stays an upper bound.

    The walk then runs on the specialized sentence.  Each subformula's
    verdict depends only on its free variables, so it is cached per
    assignment of those where a lookup can hit: at a node that occurs twice
    or has fewer free variables than quantifiers above it (shadowed binders
    count once per quantifier); any other node meets each assignment at most
    once.  That keeps the actual work proportional to the estimate even when
    quantifiers nest far deeper than the number of live variables.  Atoms and
    equalities are decided in their parent's loop, without a walker frame.
    """
    *_, nodes = _check_sentence(phi, b, "FO")
    free = _free_sets(nodes)
    if len(b.universe) ** max(map(len, free.values())) > max_work:
        raise LimitExceeded("naive evaluation work estimate", max_work)
    free = {}
    phi, _ = walk(_specialized(phi, b, free))
    if type(phi) is bool:
        return phi
    # the root is the one child of a conjunction, so it is decided like any child
    return walk(_truth(And((phi,)), b, {}, {}, _reusable(phi, free)))


def _specialized(f, b, free):
    # f specialized to b, as (node or bool, free variables); a bool is f's
    # verdict under every assignment.  A node comes back as itself when
    # nothing below it changed, so a node that occurs twice stays one node.
    # ``free`` maps the id of each node returned to its free variables.
    kind = type(f)
    if kind is Atom:
        rows = b.relations[f.symbol]
        if not rows or _full(rows, b.universe, len(f.args)):
            return bool(rows), set()
        return _made(f, set(f.args), free)
    if kind is Equality:
        if f.left == f.right or len(b.universe) == 1:
            return True, set()
        return _made(f, {f.left, f.right}, free)
    if kind is Not:
        g, names = yield _specialized(f.child, b, free)
        if type(g) is bool:
            return not g, names
        return _made(f if g is f.child else Not(g), names, free)
    if kind is And or kind is Or:
        # False absorbs a conjunction and True a disjunction; the other
        # constant is dropped
        absorbing = kind is Or
        kids, names = [], set()
        for c in f.children:
            g, names_c = yield _specialized(c, b, free)
            if type(g) is bool:
                if g is absorbing:
                    return g, names_c
                continue
            kids.extend(g.children if type(g) is kind else (g,))
            names |= names_c
        if len(kids) == len(f.children) and all(map(is_, kids, f.children)):
            return _made(f, names, free)
        if len(kids) < 2:
            return (kids[0], names) if kids else (not absorbing, names)
        return _made(kind(tuple(kids)), names, free)
    g, names = yield _specialized(f.child, b, free)
    if type(g) is bool or f.var not in names:
        return g, names  # the universe is not empty
    names = names - {f.var}
    # exists moves below the conjuncts without its variable, forall below
    # such disjuncts: And(outside..., exists x . And(inside...))
    scoped = And if kind is Exists else Or
    parts = g.children if type(g) is scoped else (g,)
    outside = [c for c in parts if f.var not in free[id(c)]]
    if not outside:
        return _made(f if g is f.child else kind(f.var, g), names, free)
    inside = [c for c in parts if f.var in free[id(c)]]
    body = inside[0]
    if len(inside) > 1:
        body, _ = _made(scoped(tuple(inside)), set().union(*[free[id(c)] for c in inside]), free)
    moved, _ = _made(kind(f.var, body), free[id(body)] - {f.var}, free)
    return _made(scoped((*outside, moved)), names, free)


def _made(node, names, free):
    free[id(node)] = names
    return node, names


def _full(rows, universe, arity):
    # Whether rows hold every arity-tuple over the universe.  Rows that are
    # not such tuples (a structure ``validate`` rejects) do not count.
    if len(rows) < len(universe) ** arity:
        return False
    inside = set(universe)
    return sum(len(t) == arity and inside.issuperset(t) for t in rows) == len(universe) ** arity


def _reusable(phi, free):
    # id -> key maker, for each compound node whose cached verdict a later
    # visit can read; atoms and equalities are decided in their parent's loop
    seen, reusable = set(), {}
    stack = [(phi, 0)]
    while stack:
        g, above = stack.pop()
        if type(g) is Atom or type(g) is Equality:
            continue
        if id(g) in seen or len(free[id(g)]) < above:
            reusable[id(g)] = _columns(sorted(free[id(g)]))
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
        self.indexes = {}  # id of an atom relation -> key columns -> index
        self.widest = 0
        self.joins = 0
        self.rows_max = 0

    def built(self, va, ra):
        self.rows_max = max(self.rows_max, len(ra))
        return va, ra

    def index(self, rows, positions):
        # An atom relation is held in self.atoms for the whole call, so its
        # id is stable and its index is built once; any other is used once.
        cache = self.indexes.get(id(rows))
        if cache is None:
            return _index(rows, positions)
        if positions not in cache:
            cache[positions] = _index(rows, positions)
        return cache[positions]


def _index(rows, positions):
    # The rows grouped by their entries at ``positions``.
    key = _columns(positions)
    index = {}
    for row in rows:
        index.setdefault(key(row), []).append(row)
    return index


def _join(va, ra, vb, rb, run, checks=()):
    # Natural join over the sorted union of the variables.  Distinct input
    # rows give distinct output rows, so the output grows with every match.
    # Variables are sorted, so when one side's lie within the other's its
    # rows are their own keys and the join only filters.  An expanding join
    # probes rb's index and keeps a new row only if it is in each part of
    # ``checks``, atom relations over variables the join binds; each check
    # counts as a join, and the rows it drops are never built.
    run.joins += 1 + len(checks)
    sa, sb = set(va), set(vb)
    if sa < sb or (sa == sb and len(ra) > len(rb)):
        va, ra, vb, rb, sa, sb = vb, rb, va, ra, sb, sa
    if sb <= sa:
        key_a = _columns([va.index(v) for v in vb])
        return run.built(va, {row for row in ra if key_a(row) in rb})
    shared = [v for v in va if v in sb]
    key_a = _columns([va.index(v) for v in shared])
    index = run.index(rb, tuple(vb.index(v) for v in shared))
    where = {v: len(va) + i for i, v in enumerate(vb)}
    where.update((v, i) for i, v in enumerate(va))
    rows = (row + match for row in ra for match in index.get(key_a(row), ()))
    for vc, rc in checks:
        key = _columns([where[v] for v in vc])
        rows = filter(lambda joined, key=key, rc=rc: key(joined) in rc, rows)
    out_vars = tuple(sorted(sa | sb))
    out = set(itertools.islice(map(_columns([where[v] for v in out_vars]), rows), run.max_rows + 1))
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

    Each intermediate relation ranges over at most the free variables of
    its subformula, so its arity never exceeds k.  A free variable a
    relation leaves out is unconstrained: every join, projection and
    complement above treats its column as the whole universe, which is
    exact because the universe must not be empty.  An ``Or``'s relation
    ranges over the variables of its non-empty disjuncts only; an empty
    disjunct adds no row, so it is dropped before the others are padded to
    those variables.  An ``Exists`` child of a conjunction is evaluated
    against a context: rows over some of its free variables that the
    conjunction can extend, so that it builds only rows agreeing with one of
    them (a semijoin passed down, as in Yannakakis, VLDB 1981, and the magic
    sets of Bancilhon, Maier, Sagiv and Ullman, PODS 1986).  The ``Exists``
    passes it on to its body, where a conjunction joins it as one of its
    parts, and any other node ignores it.  A conjunction is planned:

    - its context and its atoms and equalities are joined first, greedily as
      below, but only parts that share a variable, so no cross product is
      formed;
    - its compound children are then evaluated in order.  An ``Exists``
      child gets as its context the smallest pending part sharing a
      variable with it, projected onto the child's free variables;
    - an ``Or`` child whose free variables lie within those of a pending
      part filters the smallest such part: it keeps the part's rows on which
      some disjunct holds, so that ``Or`` is never padded to its variables;
      any other ``Or`` is padded as above, with no context;
    - a child's relation whose variables contain, or lie within, those of a
      pending part is joined with it at once, which only filters;
    - at the first empty part the conjunction is empty, and its remaining
      children are not evaluated;
    - the parts left are joined greedily: start from the smallest, then take
      the part sharing the most variables with the result, the smaller on
      ties, and stop as soon as the result is empty.  When a join adds
      variables, each pending atom whose variables it then binds is checked
      on every new row inside that join, so a row that fails is never built.

    A context comes from a part that is itself joined into the conjunction,
    so the rows it leaves out are ones that join would drop: the verdict is
    that of plain bottom-up evaluation.  A conjunction whose children are
    all ``Or``s and that gets no context, as in every SAT reduction, passes
    none down.  Atom projections are made once per call and shared, and so
    is the index of an atom relation on each set of key columns that a join
    looks it up by.  ``max_rows`` bounds every relation built.  When given,
    ``stats`` gets ``max_arity`` (the largest arity of a relation a visited
    subformula produced), ``joins`` (combinations of two relations, a
    filtered ``Or`` and an atom checked inside a join each counting as one)
    and ``rows_max`` (the largest relation built, atom projections included;
    a join's rows that a check drops are not counted).
    """
    return _eval_kvar(phi, b, k, stats=stats, max_rows=max_rows)


def _eval_kvar(phi, b, k, *, stats=None, max_rows=MAX_ROWS):
    # ``eval_kvar``; a k of None stands for the sentence's own variable
    # count, so that ``evaluate`` gets it from the one sentence check
    _, names, _, _, nodes = _check_sentence(phi, b, "FO", k)
    run = _KvarRun(b, max_rows, _free_sets(nodes))
    vars_final, rows = walk(_relation(phi, run))
    if stats is not None:
        stats.update(max_arity=run.widest, joins=run.joins, rows_max=run.rows_max)
    assert run.widest <= (len(names) if k is None else k)
    assert vars_final == ()
    return bool(rows)


def _relation(f, run, context=None):
    # Satisfying assignments of f as (sorted free variables, set of rows).
    # A context (variables, rows) lists the values of some of f's free
    # variables that an ancestor can extend; a row that agrees with none of
    # them may be left out.  Atom rows are shared through run.atoms, so no
    # relation is changed in place.
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
            run.indexes[id(ra)] = {}
    elif kind is Equality:
        va = tuple(sorted({f.left, f.right}))
        ra = {(u,) * len(va) for u in run.b.universe}
    elif kind is And:
        parts = [context] if context is not None else []
        compound = []
        for c in f.children:
            if type(c) is Atom or type(c) is Equality:
                parts.append((yield _relation(c, run)))
            else:
                compound.append(c)
        pending = _greedy_join(parts, run, cross=False)
        if pending and not pending[0][1]:
            compound = []  # an empty part: the conjunction is empty
        for c in compound:
            covering = [p for p in pending if run.free[id(c)] <= set(p[0])] if type(c) is Or else []
            part = min(covering, key=lambda p: len(p[1]), default=None)
            if part is not None:
                pending = [p for p in pending if p is not part]
                va, ra = yield _filtered(c, part, run)
            else:
                va, ra = yield _relation(c, run, _context(c, pending, run))
            unmerged = []
            for vb, rb in pending:
                if ra and (set(va) <= set(vb) or set(vb) <= set(va)):
                    va, ra = _join(va, ra, vb, rb, run)
                else:
                    unmerged.append((vb, rb))
            if not ra:
                break
            pending = unmerged + [(va, ra)]
        else:  # an empty conjunction holds: one row over no variables
            va, ra = _greedy_join(pending, run)[0] if pending else ((), {()})
        if not ra:
            va = tuple(sorted(run.free[id(f)]))
    elif kind is Or:
        # an empty disjunct adds no row, so it adds no variable either
        parts = []
        for c in f.children:
            vc, rc = yield _relation(c, run)
            if rc:
                parts.append((vc, rc))
        va = tuple(sorted(set().union(*(set(v) for v, _ in parts))))
        ra = set()
        for vc, rc in parts:
            ra |= _expand(vc, rc, va, run)[1]
    else:
        va, ra = yield _relation(f.child, run, context if kind is Exists else None)
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


def _greedy_join(parts, run, cross=True):
    # From the smallest part, join in the part sharing the most variables
    # with the result; sorting by size makes the first such part the smallest.
    # Without ``cross`` a result that shares no variable with the parts left
    # is set aside, and the next smallest part starts another.  An atom
    # relation whose variables an expanding join binds is checked inside that
    # join.  An empty result is returned alone, at once.
    parts = sorted(parts, key=lambda p: len(p[1]))
    done = []
    while parts:
        va, ra = parts.pop(0)
        while parts and ra:
            seen = set(va)
            best = max(range(len(parts)), key=lambda i: len(seen.intersection(parts[i][0])))
            if not (cross or seen.intersection(parts[best][0])):
                break
            vb, rb = parts.pop(best)
            bound = seen.union(vb)
            adds = len(bound) > max(len(va), len(vb))
            checks, rest = [], []
            for p in parts:
                fused = adds and id(p[1]) in run.indexes and bound.issuperset(p[0])
                (checks if fused else rest).append(p)
            parts = rest
            va, ra = _join(va, ra, vb, rb, run, checks)
        if not ra:
            return [(va, ra)]
        done.append((va, ra))
    return done


def _context(f, pending, run):
    # What an Exists child of a conjunction is evaluated against: the
    # smallest pending part sharing a variable with it, projected onto those.
    if type(f) is not Exists:
        return None
    free = run.free[id(f)]
    sharing = [p for p in pending if free.intersection(p[0])]
    part = min(sharing, key=lambda p: len(p[1]), default=None)
    return part and _project(part, free)


def _project(part, keep):
    # The part's rows on its variables in ``keep``, which holds one or more.
    va, ra = part
    positions = [i for i, v in enumerate(va) if v in keep]
    if len(positions) == len(va):
        return part
    return tuple(va[i] for i in positions), set(map(_columns(positions), ra))


def eval_dnf_hom(phi, b, *, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES, stats=None):
    """Existential positive evaluation: some disjunct's structure maps into b.

    The sentence is flattened except that each ``Or`` whose children are all
    atoms stays whole, so H_n gives one disjunct where full flattening gives
    n^n.  Each disjunct is one homomorphism search in which every kept ``Or``
    is a union constraint: it holds when one of its atoms maps to a tuple of
    b.  ``max_disjuncts`` bounds the disjuncts of this partial flattening,
    and ``stats.nodes`` counts the nodes of these searches.  Like every
    strategy, it first checks the sentence (here EP) and then b's universe.
    """
    _check_sentence(phi, b, "EP")
    disjuncts = _disjuncts(phi, max_disjuncts, True)
    searches = (_structure_and_unions(psi, b.signature) for psi in disjuncts)
    return any(find_homomorphism(struct, b, unions=unions, max_nodes=max_nodes, stats=stats)
               is not None for struct, unions in searches)


def eval_via_pp_turing(phi, b, *, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES, stats=None):
    """Evaluation through the normalized disjunct set, one search per member's structure."""
    _check_sentence(phi, b, "EP")
    members = _members(phi, b.signature, max_disjuncts, max_nodes, stats)
    return any(find_homomorphism(struct, b, max_nodes=max_nodes, stats=stats) is not None
               for _, struct in members)


def pp_to_ep_instance(psi, phi, b, *, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES):
    """Product instance carrying a normalized-disjunct query over to the full sentence.

    Requires ``psi`` to be logically equivalent to a member of the normalized
    disjunct set of ``phi``; the returned instance is true exactly when ``b``
    satisfies ``psi``.
    """
    _checked(phi, "EP", b.signature)
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
    strategy takes raises ``EpqError``, so a misspelled one is not dropped,
    and so does a ``k`` for any strategy but ``kvar``, the one it bounds.
    Each strategy then checks its fragment (FO for ``naive`` and ``kvar``, EP
    for the others), closedness, the symbols and a non-empty universe, in
    that order; ``kvar`` checks ``k`` before these.
    """
    kind = dict if strategy == "kvar" else SearchStats
    if stats is not None and strategy in _STRATEGIES[1:] and not isinstance(stats, kind):
        raise EpqError(f"strategy {strategy!r} keeps its counters in a {kind.__name__}")
    for name in limits:
        if name not in ("max_work", "max_rows", "max_disjuncts", "max_nodes"):
            raise EpqError(f"unknown limit {name!r}; no strategy takes it")
    if k is not None and strategy != "kvar":
        raise EpqError(f"k bounds the kvar strategy only, not {strategy!r}")

    def taking(*names):
        return {name: limits[name] for name in names if name in limits}

    if strategy == "naive":
        return eval_naive(phi, b, **taking("max_work"))
    if strategy == "kvar":
        return _eval_kvar(phi, b, k, stats=stats, **taking("max_rows"))
    if strategy == "dnf-hom":
        return eval_dnf_hom(phi, b, stats=stats, **taking("max_disjuncts", "max_nodes"))
    if strategy == "pp-reduction":
        return eval_via_pp_turing(phi, b, stats=stats, **taking("max_disjuncts", "max_nodes"))
    raise EpqError(f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}")
