"""Model-checking strategies for first-order and existential positive sentences.

Four routes to the same verdict: a walk over all assignments and the
bounded-variable bottom-up evaluator, both on ``formulas.walk``'s stack;
reduction of each primitive positive disjunct to a homomorphism test; and
the product-based round trip through the normalized disjunct set.
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
    _free_sets,
    classify,
    structure_of_pp,
    subformulas,
    walk,
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
    """Truth of a closed formula by a walk over all variable assignments.

    The work estimate |B| ** (max free variables over subformulas) is checked
    against ``max_work`` before evaluation starts.  Each subformula's verdict
    depends only on its free variables, so results are cached per assignment
    of those; that keeps the actual work proportional to the estimate even
    when quantifiers nest far deeper than the number of live variables.
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

    return walk(_truth(phi, b, {}, {}, free_of))


def _truth(f, b, env, memo, free_of):
    # Verdict of f under the assignment env, cached per assignment of its
    # free variables.
    kind = type(f)
    if kind is Atom:
        return tuple(env[x] for x in f.args) in b.relations[f.symbol]
    if kind is Equality:
        return env[f.left] == env[f.right]
    key = (id(f), tuple(env[v] for v in free_of[id(f)]))
    verdict = memo.get(key)
    if verdict is not None:
        return verdict
    if kind is Not:
        verdict = not (yield _truth(f.child, b, env, memo, free_of))
    elif kind is Exists or kind is Forall:
        previous = env.get(f.var, _MISSING)
        want_any = kind is Exists
        verdict = not want_any
        for value in b.universe:
            env[f.var] = value
            if (yield _truth(f.child, b, env, memo, free_of)) == want_any:
                verdict = want_any
                break
        if previous is _MISSING:
            del env[f.var]
        else:
            env[f.var] = previous
    else:
        want_any = kind is Or
        verdict = not want_any
        for c in f.children:
            if (yield _truth(c, b, env, memo, free_of)) == want_any:
                verdict = want_any
                break
    memo[key] = verdict
    return verdict


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
    widest = [0]
    vars_final, rows = walk(_relation(phi, b, max_rows, widest))
    if stats is not None:
        stats["max_arity"] = widest[0]
    assert widest[0] <= k
    assert vars_final == ()
    return bool(rows)


def _relation(f, b, max_rows, widest):
    # Satisfying assignments of f as (sorted free variables, set of rows);
    # widest[0] keeps the largest arity seen.
    kind = type(f)
    universe = b.universe
    if kind is Atom:
        distinct, pattern = repetition_pattern(f.args)
        rows = project_rows(b.relations[f.symbol], pattern)
        va = tuple(sorted(distinct))
        perm = [distinct.index(v) for v in va]
        ra = {tuple(r[i] for i in perm) for r in rows}
    elif kind is Equality:
        va = tuple(sorted({f.left, f.right}))
        ra = {(u,) * len(va) for u in universe}
    elif kind is And:
        va, ra = yield _relation(f.children[0], b, max_rows, widest)
        for c in f.children[1:]:
            vb, rb = yield _relation(c, b, max_rows, widest)
            va, ra = _join(va, ra, vb, rb)
    elif kind is Or:
        parts = []
        for c in f.children:
            parts.append((yield _relation(c, b, max_rows, widest)))
        va = tuple(sorted(set().union(*(set(v) for v, _ in parts))))
        ra = set()
        for vc, rc in parts:
            ra |= _expand(vc, rc, va, universe, max_rows)[1]
    else:
        va, ra = yield _relation(f.child, b, max_rows, widest)
        if kind is Not:
            va, ra = _complement(va, ra, universe, max_rows)
        elif f.var in va:
            # forall x . g is equivalent to not (exists x . not g)
            if kind is Forall:
                va, ra = _complement(va, ra, universe, max_rows)
            idx = va.index(f.var)
            va = va[:idx] + va[idx + 1 :]
            ra = {row[:idx] + row[idx + 1 :] for row in ra}
            if kind is Forall:
                va, ra = _complement(va, ra, universe, max_rows)
    widest[0] = max(widest[0], len(va))
    return va, ra


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
