"""Model-checking strategies for first-order and existential positive sentences.

Four routes to the same verdict: direct recursion over assignments, the
bounded-variable bottom-up evaluator, reduction of each primitive positive
disjunct to a homomorphism test, and the product-based round trip through
the normalized disjunct set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    MAX_DISJUNCTS,
    MAX_NODES,
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
    classify,
    free_variables,
    structure_of_pp,
    subformulas,
)
from .homomorphism import find_homomorphism, hom_equivalent
from .normalize import m_normalize, to_pp_disjunction
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


def eval_naive(phi, b, *, max_work=10_000_000):
    """Truth of a closed formula by recursion over all variable assignments.

    The work estimate |B| ** (max free variables over subformulas) is checked
    against ``max_work`` before evaluation starts.  Each subformula's verdict
    depends only on its free variables, so results are cached per assignment
    of those; that keeps the actual work proportional to the estimate even
    when quantifiers nest far deeper than the number of live variables.
    """
    if free_variables(phi):
        raise FragmentError("a closed sentence is required")
    _check_symbols(phi, b)
    size = len(b.universe)
    if size == 0:
        raise EpqError("evaluation needs a non-empty universe")
    free_of = {id(f): tuple(sorted(free_variables(f))) for f in subformulas(phi)}
    if size ** max(map(len, free_of.values())) > max_work:
        raise LimitExceeded("naive evaluation work estimate", max_work)

    env = {}
    memo = {}

    def rec(f):
        if isinstance(f, Atom):
            return tuple(env[x] for x in f.args) in b.relations[f.symbol]
        if isinstance(f, Equality):
            return env[f.left] == env[f.right]
        key = (id(f), tuple(env[v] for v in free_of[id(f)]))
        cached = memo.get(key)
        if cached is not None:
            return cached
        if isinstance(f, And):
            verdict = all(rec(c) for c in f.children)
        elif isinstance(f, Or):
            verdict = any(rec(c) for c in f.children)
        elif isinstance(f, Not):
            verdict = not rec(f.child)
        elif isinstance(f, (Exists, Forall)):
            previous = env.get(f.var, _MISSING)
            want_any = isinstance(f, Exists)
            verdict = not want_any
            for value in b.universe:
                env[f.var] = value
                if rec(f.child) == want_any:
                    verdict = want_any
                    break
            if previous is _MISSING:
                env.pop(f.var, None)
            else:
                env[f.var] = previous
        else:
            raise EpqError(f"not a formula node: {f!r}")
        memo[key] = verdict
        return verdict

    return rec(phi)


_MISSING = object()


def _join(va, ra, vb, rb):
    out_vars = tuple(sorted(set(va) | set(vb)))
    pa = {v: i for i, v in enumerate(va)}
    pb = {v: i for i, v in enumerate(vb)}
    shared = [v for v in va if v in pb]
    index = {}
    for row in rb:
        index.setdefault(tuple(row[pb[v]] for v in shared), []).append(row)
    out = set()
    for row in ra:
        for match in index.get(tuple(row[pa[v]] for v in shared), ()):
            out.add(tuple(row[pa[v]] if v in pa else match[pb[v]] for v in out_vars))
    return out_vars, out


def _expand(va, ra, out_vars, universe, max_rows):
    missing = [v for v in out_vars if v not in va]
    if not missing and out_vars == va:
        return va, set(ra)
    if len(ra) * len(universe) ** len(missing) > max_rows:
        raise LimitExceeded("bounded-variable relation size", max_rows)
    pa = {v: i for i, v in enumerate(va)}
    out = set()
    for row in ra:
        for combo in itertools.product(universe, repeat=len(missing)):
            filler = dict(zip(missing, combo))
            out.add(tuple(row[pa[v]] if v in pa else filler[v] for v in out_vars))
    return tuple(out_vars), out


def _complement(va, ra, universe, max_rows):
    if len(universe) ** len(va) > max_rows:
        raise LimitExceeded("bounded-variable relation size", max_rows)
    return va, set(itertools.product(universe, repeat=len(va))) - ra


def eval_kvar(phi, b, k, *, stats=None, max_rows=10_000_000):
    """Bottom-up evaluation computing satisfying assignments per subformula.

    Each intermediate relation ranges over the free variables of its
    subformula, so its arity never exceeds k; ``stats['max_arity']`` records
    the largest arity actually seen.
    """
    info = classify(phi)
    if info.variables > k:
        raise FragmentError(f"sentence uses {info.variables} variables, more than k={k}")
    if not info.closed:
        raise FragmentError("a closed sentence is required")
    _check_symbols(phi, b)
    universe = b.universe
    seen_arity = 0

    def note(vars_rows):
        nonlocal seen_arity
        seen_arity = max(seen_arity, len(vars_rows[0]))
        return vars_rows

    def rel(f):
        if isinstance(f, Atom):
            distinct, pattern = repetition_pattern(f.args)
            rows = project_rows(b.relations[f.symbol], pattern)
            ordered = tuple(sorted(distinct))
            perm = [distinct.index(v) for v in ordered]
            return note((ordered, {tuple(r[i] for i in perm) for r in rows}))
        if isinstance(f, Equality):
            if f.left == f.right:
                return note(((f.left,), {(u,) for u in universe}))
            ordered = tuple(sorted((f.left, f.right)))
            return note((ordered, {(u, u) for u in universe}))
        if isinstance(f, And):
            va, ra = rel(f.children[0])
            for c in f.children[1:]:
                vb, rb = rel(c)
                va, ra = _join(va, ra, vb, rb)
            return note((va, ra))
        if isinstance(f, Or):
            parts = [rel(c) for c in f.children]
            out_vars = tuple(sorted(set().union(*(set(v) for v, _ in parts))))
            rows = set()
            for va, ra in parts:
                _, expanded = _expand(va, ra, out_vars, universe, max_rows)
                rows |= expanded
            return note((out_vars, rows))
        if isinstance(f, Not):
            va, ra = rel(f.child)
            return note(_complement(va, ra, universe, max_rows))
        if isinstance(f, Exists):
            va, ra = rel(f.child)
            if f.var not in va:
                return note((va, ra))
            idx = va.index(f.var)
            out_vars = va[:idx] + va[idx + 1 :]
            return note((out_vars, {row[:idx] + row[idx + 1 :] for row in ra}))
        if isinstance(f, Forall):
            va, ra = rel(f.child)
            if f.var not in va:
                return note((va, ra))
            cv, cr = _complement(va, ra, universe, max_rows)
            idx = cv.index(f.var)
            pv = cv[:idx] + cv[idx + 1 :]
            pr = {row[:idx] + row[idx + 1 :] for row in cr}
            return note(_complement(pv, pr, universe, max_rows))
        raise EpqError(f"not a formula node: {f!r}")

    vars_final, rows = rel(phi)
    if stats is not None:
        stats["max_arity"] = seen_arity
    assert seen_arity <= k
    assert vars_final == ()
    return bool(rows)


def _some_disjunct_maps(disjuncts, b, max_nodes, stats):
    for psi in disjuncts:
        struct = structure_of_pp(psi, b.signature)
        if find_homomorphism(struct, b, max_nodes=max_nodes, stats=stats) is not None:
            return True
    return False


def eval_dnf_hom(phi, b, *, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES, stats=None):
    """Existential positive evaluation: some disjunct's structure maps into b."""
    _check_symbols(phi, b)
    disjuncts = to_pp_disjunction(phi, max_disjuncts=max_disjuncts)
    return _some_disjunct_maps(disjuncts, b, max_nodes, stats)


def eval_via_pp_turing(phi, b, *, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES, stats=None):
    """Evaluation through the normalized disjunct set, one test per member."""
    _check_symbols(phi, b)
    members = m_normalize(phi, max_disjuncts=max_disjuncts, max_nodes=max_nodes, stats=stats)
    return _some_disjunct_maps(members, b, max_nodes, stats)


def pp_to_ep_instance(psi, phi, b, *, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES):
    """Product instance carrying a normalized-disjunct query over to the full sentence.

    Requires ``psi`` to be logically equivalent to a member of the normalized
    disjunct set of ``phi``; the returned instance is true exactly when ``b``
    satisfies ``psi``.
    """
    members = m_normalize(phi, max_disjuncts=max_disjuncts, max_nodes=max_nodes)
    psi_struct = structure_of_pp(psi, b.signature)
    for member in members:
        member_struct = structure_of_pp(member, b.signature)
        if hom_equivalent(psi_struct, member_struct, max_nodes=max_nodes):
            break
    else:
        raise EpqError("the sentence is not a normalized disjunct of the query")
    return Instance(phi, product(psi_struct, b))


_STRATEGIES = ("naive", "kvar", "dnf-hom", "pp-reduction")


def evaluate(phi, b, strategy="naive", *, k=None, stats=None, **limits):
    """Dispatch helper used by the command line; strategy names as documented."""
    if strategy == "naive":
        return eval_naive(phi, b, **{k_: v for k_, v in limits.items() if k_ == "max_work"})
    if strategy == "kvar":
        bound = k if k is not None else classify(phi).variables
        return eval_kvar(phi, b, bound)
    if strategy == "dnf-hom":
        return eval_dnf_hom(phi, b, stats=stats, **{
            k_: v for k_, v in limits.items() if k_ in ("max_disjuncts", "max_nodes")
        })
    if strategy == "pp-reduction":
        return eval_via_pp_turing(phi, b, stats=stats, **{
            k_: v for k_, v in limits.items() if k_ in ("max_disjuncts", "max_nodes")
        })
    raise EpqError(f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}")
