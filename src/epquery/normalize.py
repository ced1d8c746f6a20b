"""Rewriting existential positive sentences into unions of primitive positive ones.

``pp_entails`` decides entailment between two primitive positive sentences
by a homomorphism between their induced structures.  ``to_pp_disjunction``
applies the two distribution rules (pulling disjunction out of existential
quantification and out of conjunction) bottom up; ``m_normalize`` then drops
every disjunct that strictly entails another one, keeping a single
representative per logical-equivalence class, so the surviving disjuncts are
pairwise non-entailing while their disjunction stays equivalent to the input.
"""

from __future__ import annotations

import itertools

from .errors import MAX_DISJUNCTS, MAX_NODES, FragmentError, LimitExceeded
from .formulas import (
    And,
    Atom,
    Equality,
    Exists,
    Or,
    _structure_and_unions,
    classify,
    conj,
    disj,
    formula_signature,
    structure_of_pp,
    walk,
)
from .homomorphism import find_homomorphism


def pp_entails(psi, psi_prime, *, signature=None, max_nodes=MAX_NODES, stats=None):
    """Entailment between primitive positive sentences via homomorphism.

    ``psi`` entails ``psi_prime`` exactly when the structure of ``psi_prime``
    maps homomorphically into the structure of ``psi``.
    """
    if signature is None:
        signature = formula_signature(And((psi, psi_prime)))
    left = structure_of_pp(psi, signature)
    right = structure_of_pp(psi_prime, signature)
    return find_homomorphism(right, left, max_nodes=max_nodes, stats=stats) is not None


def to_pp_disjunction(phi, *, max_disjuncts=MAX_DISJUNCTS):
    """Flatten an existential positive sentence into primitive positive disjuncts.

    The rewrite keeps the set of variable names unchanged and emits disjuncts
    in left-to-right generation order.
    """
    return _disjuncts(phi, max_disjuncts, False)


def _disjuncts(phi, max_disjuncts, keep_unions):
    # The body of to_pp_disjunction.  With keep_unions, an Or whose children
    # are all atoms stays one leaf instead of being distributed.
    info = classify(phi)
    if info.fragment not in ("PP", "EP"):
        raise FragmentError("an existential positive sentence is required")
    if not info.closed:
        raise FragmentError("a closed sentence is required")

    return walk(_dnf(phi, max_disjuncts, keep_unions))


def _dnf(f, max_disjuncts, keep_unions):
    kind = type(f)
    if kind is Atom or kind is Equality:
        return [f]
    if kind is Exists:
        return [Exists(f.var, d) for d in (yield _dnf(f.child, max_disjuncts, keep_unions))]
    if kind is Or:
        if keep_unions and all(type(c) is Atom for c in f.children):
            return [f]
        out = []
        for c in f.children:
            out.extend((yield _dnf(c, max_disjuncts, keep_unions)))
            if len(out) > max_disjuncts:
                raise LimitExceeded("disjunct count", max_disjuncts)
        return out
    lists = []
    count = 1
    for c in f.children:
        lists.append((yield _dnf(c, max_disjuncts, keep_unions)))
        count *= len(lists[-1])
        if count > max_disjuncts:
            raise LimitExceeded("disjunct count", max_disjuncts)
    return [conj(list(combo)) for combo in itertools.product(*lists)]


def m_normalize(
    phi, *, signature=None, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES, stats=None
):
    """One primitive positive representative per extremal equivalence class.

    Disjuncts are grouped by logical equivalence (homomorphic equivalence of
    their induced structures); a class survives when none of its members
    entails a disjunct outside the class.  Every dropped disjunct entails
    some kept representative, so the disjunction of the result is equivalent
    to the input, and distinct representatives never entail each other.
    Grouping and the filter share one table, so no entailment between two
    disjuncts is decided twice.
    """
    return [member for member, _ in _members(phi, signature, max_disjuncts, max_nodes, stats)]


def _members(phi, signature, max_disjuncts, max_nodes, stats):
    # m_normalize as (member, structure) pairs, so that callers search the
    # structures, and the skeletons kept on them, that entailment built.
    disjuncts = to_pp_disjunction(phi, max_disjuncts=max_disjuncts)
    if signature is None:
        signature = formula_signature(phi)
    # the sentence is closed EP, so each disjunct is closed PP
    structs = [_structure_and_unions(d, signature)[0] for d in disjuncts]
    cache = {}

    def entails(i, j):
        # disjunct i entails disjunct j iff struct(j) maps into struct(i)
        if (i, j) not in cache:
            found = find_homomorphism(structs[j], structs[i], max_nodes=max_nodes, stats=stats)
            cache[i, j] = found is not None
        return cache[i, j]

    reps = []  # the first-generated member of each equivalence class
    for i in range(len(structs)):
        if not any(entails(rep, i) and entails(i, rep) for rep in reps):
            reps.append(i)
    return [(disjuncts[rep], structs[rep]) for rep in reps
            if not any(other != rep and entails(rep, other) for other in reps)]


def _little_sentence(symbols):
    """One-variable sentence asserting an element carrying all given unary symbols."""
    if not symbols:
        return Exists("v", Equality("v", "v"))
    return Exists("v", conj([Atom(name, ("v",)) for name in sorted(symbols)]))


def compile_unary(phi, *, signature=None, max_disjuncts=MAX_DISJUNCTS, max_nodes=MAX_NODES):
    """Equivalent one-variable sentence for inputs over an all-unary signature.

    Each primitive positive disjunct collapses, per universe element of its
    induced structure, into a conjunction of one-variable sentences (each
    determined by a subset of the signature); redundant disjuncts are then
    removed with the same extremal filtering as :func:`m_normalize`.  The
    number of distinct one-variable building blocks is bounded by the subset
    count of the signature alone, independent of the input length.
    """
    if signature is None:
        signature = formula_signature(phi)
    if any(sym.arity != 1 for sym in signature):
        raise FragmentError("compilation needs an all-unary signature")

    disjuncts = to_pp_disjunction(phi, max_disjuncts=max_disjuncts)
    conjunction_sets = []
    seen = set()
    for d in disjuncts:
        struct = structure_of_pp(d, signature)
        subsets = set()
        for elem in struct.universe:
            carried = frozenset(
                name for name in signature.names if (elem,) in struct.relations[name]
            )
            if carried:
                subsets.add(carried)
        if not subsets:
            # a disjunct with only unconstrained elements is always true
            return _little_sentence(frozenset())
        key = frozenset(subsets)
        if key not in seen:
            seen.add(key)
            conjunction_sets.append(key)

    sentences = [
        conj([_little_sentence(s) for s in sorted(subsets, key=sorted)])
        for subsets in conjunction_sets
    ]
    kept = m_normalize(disj(sentences), signature=signature, max_nodes=max_nodes)
    return disj(kept)
