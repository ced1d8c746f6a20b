#!/usr/bin/env python3
"""Sentences, the query/structure bridges, and four evaluation strategies.

Every structure induces a canonical query asserting "this structure maps
into here", and every primitive positive sentence induces a structure; the
two constructions are inverse up to homomorphic equivalence, which is what
makes homomorphism search a complete evaluator for this fragment.
"""

import epquery as q

sig = q.digraph_signature()
loop = q.Structure(sig, ("z",), {"E": {("z", "z")}})
edge = q.Structure(sig, ("a", "b"), {"E": {("a", "b")}})

# Sentences are plain text: exists/forall, '&', '|', 'not', '=', atoms.
phi = q.parse_formula("exists x . (E(x,x) | (exists y . E(x,y)))")
print("parsed:", q.render(phi))
print("classified:", q.classify(phi))

# Canonical query of a structure: one variable per element, one atom per
# tuple.
print("canonical query of the edge:", q.render(q.canonical_query(edge)))

# The reverse bridge: a primitive positive sentence becomes a structure by
# merging equality-linked variables.
psi = q.parse_formula("exists x . exists y . (x = y & E(x,y))")
print("structure induced by", q.render(psi), "->",
      q.format_structure(q.structure_of_pp(psi)).replace("\n", " / "))

# Entailment between primitive positive sentences is a homomorphism test.
loop_query = q.parse_formula("exists x . E(x,x)")
edge_query = q.parse_formula("exists x . exists y . E(x,y)")
print("loop sentence entails edge sentence:", q.pp_entails(loop_query, edge_query))
print("edge sentence entails loop sentence:", q.pp_entails(edge_query, loop_query))

# Four strategies produce the same verdict:
#   naive          a walk over assignments, each part decided once its
#                  own variables are bound
#   kvar           bottom-up relations over at most k variables
#   dnf-hom        one homomorphism search per disjunct, an Or of atoms
#                  kept whole as one union constraint of the search
#   pp-reduction   one search per member of the normalized disjunct set
for b, name in ((loop, "loop"), (edge, "edge")):
    verdicts = [
        q.eval_naive(phi, b),
        q.eval_kvar(phi, b, 2),
        q.eval_dnf_hom(phi, b),
        q.eval_via_pp_turing(phi, b),
    ]
    print(f"{name}: naive/kvar/dnf-hom/pp-reduction ->", verdicts)
    assert len(set(verdicts)) == 1

# The product construction carries a normalized disjunct over to the whole
# sentence: the instance below is true exactly when the structure satisfies
# the chosen disjunct.
sig_pq = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])
choice = q.parse_formula("exists x . (P(x) | Q(x))")
member = q.parse_formula("exists x . P(x)")
only_q = q.Structure(sig_pq, ("m",), {"Q": {("m",)}})
instance = q.pp_to_ep_instance(member, choice, only_q)
print("structure satisfies the chosen disjunct:", q.eval_naive(member, only_q))
print("product instance satisfies the full sentence:",
      q.eval_naive(instance.sentence, instance.structure))
