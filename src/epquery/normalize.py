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
    Atom,
    Equality,
    Exists,
    Or,
    _checked,
    _signature,
    _structure_and_unions,
    conj,
    disj,
    walk,
)
from .homomorphism import _link_shared, find_homomorphism


def pp_entails(psi, psi_prime, *, signature=None, max_nodes=MAX_NODES, stats=None):
    """Entailment between primitive positive sentences via homomorphism.

    ``psi`` entails ``psi_prime`` exactly when the structure of ``psi_prime``
    maps homomorphically into the structure of ``psi``.
    """
    uses = {**_checked(psi, "PP", signature)[3], **_checked(psi_prime, "PP", signature)[3]}
    if signature is None:
        signature = _signature(uses)  # which the atoms of both fit by construction
    left = _structure_and_unions(psi, signature)[0]
    right = _structure_and_unions(psi_prime, signature)[0]
    return find_homomorphism(right, left, max_nodes=max_nodes, stats=stats) is not None


def to_pp_disjunction(phi, *, max_disjuncts=MAX_DISJUNCTS):
    """Flatten an existential positive sentence into primitive positive disjuncts.

    The rewrite keeps the set of variable names unchanged and emits disjuncts
    in left-to-right generation order.  More than ``max_disjuncts`` of them,
    during the rewrite or in its result, raise :class:`LimitExceeded`.
    """
    _checked(phi, "EP")
    return _disjuncts(phi, max_disjuncts, False)


def _disjuncts(phi, max_disjuncts, keep_unions):
    # The body of to_pp_disjunction, on a closed EP sentence that the caller
    # checked.  With keep_unions, an Or whose children are all atoms stays
    # one leaf instead of being distributed.
    out = walk(_dnf(phi, max_disjuncts, keep_unions))
    # the checks inside _dnf see only Ors and Ands; a sentence with neither is one disjunct
    if len(out) > max_disjuncts:
        raise LimitExceeded("disjunct count", max_disjuncts)
    return out


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
    """One primitive positive representative per weakest equivalence class.

    A disjunct is dropped when it strictly entails another one, and of each
    class of equivalent disjuncts that is left only the first generated is
    kept (Sagiv and Yannakakis's minimization of unions of conjunctive
    queries).  Every dropped disjunct entails some member, so the
    disjunction of the members is equivalent to the input, and no member
    entails another.  Members come in generation order.

    One online filter builds the set.  It keeps pairwise non-entailing
    disjuncts in generation order: a new disjunct that entails a kept one is
    dropped; otherwise every kept disjunct that entails it is removed and
    it is appended.  Each disjunct seen so far entails a kept one, as a
    removed disjunct entails its replacement.  The first disjunct of a
    weakest class entails no earlier kept one, since that one would be
    equivalent to it and earlier, and it is never removed, since that needs
    a later disjunct that it strictly entails.  Any other kept disjunct would
    strictly entail some disjunct, and so a different kept one, which the
    filter rules out.  So the filter keeps exactly the first disjunct of
    each weakest class, and no ordered pair of disjuncts is tested twice.

    Each test is one ``find_homomorphism`` call between two flattened
    disjuncts, which are linked to the atoms they all share.  A test whose
    source has a loose atom (one outside the shared part) that no atom of
    the target can be the image of is refuted before any search: the image
    must tie at least where the atom ties, and each shared argument must
    go to a value kept by one probed root of the shared part in the union
    of all the disjuncts, which every map of the shared part into a
    disjunct respects.  So the verdicts are those of the plain search.  On
    H_n every test ends there, and the only nodes counted are that root's
    probes: 27 on H_4's 65,280 tests.
    """
    uses = _checked(phi, "EP", signature)[3]
    if signature is None:
        signature = _signature(uses)  # which the atoms fit by construction
    return [member for member, _ in _members(phi, signature, max_disjuncts, max_nodes, stats)]


def _members(phi, signature, max_disjuncts, max_nodes, stats):
    # m_normalize as (member, structure) pairs, so that callers search the
    # structures, and the skeletons kept on them, that entailment built.
    # The caller checked that phi is a closed EP sentence whose atoms fit
    # signature, so each disjunct is closed PP.
    disjuncts = _disjuncts(phi, max_disjuncts, False)
    structs = [_structure_and_unions(d, signature)[0] for d in disjuncts]
    _link_shared(structs)

    def entails(i, j):
        # disjunct i entails disjunct j iff struct(j) maps into struct(i)
        return find_homomorphism(structs[j], structs[i], max_nodes=max_nodes,
                                 stats=stats) is not None

    kept = []
    for i in range(len(structs)):
        if not any(entails(i, k) for k in kept):
            kept = [k for k in kept if not entails(k, i)]
            kept.append(i)
    return [(disjuncts[k], structs[k]) for k in kept]


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
    uses = _checked(phi, "EP", signature)[3]
    if signature is None:
        signature = _signature(uses)
    if any(sym.arity != 1 for sym in signature):
        raise FragmentError("compilation needs an all-unary signature")

    conjunction_sets = []
    seen = set()
    for d in _disjuncts(phi, max_disjuncts, False):
        struct = _structure_and_unions(d, signature)[0]
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
    # a closed EP sentence over the signature's symbols, so it needs no check
    kept = _members(disj(sentences), signature, MAX_DISJUNCTS, max_nodes, None)
    return disj([member for member, _ in kept])
