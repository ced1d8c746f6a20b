"""Model checking for existential positive queries on finite relational structures.

The package bundles a homomorphism engine (the constraint-satisfaction
core), formula ASTs with the canonical query / induced structure bridges,
disjunct normalization, tree decompositions with bounded-variable query
compilation, a union-of-boxes relation representation, and the
hardness-reduction gadget constructions, all checkable against brute-force
oracles at desk scale.
"""

from .errors import EpqError, FragmentError, LimitExceeded, ParseError, SignatureMismatch
from .evaluate import (
    Instance,
    eval_dnf_hom,
    eval_kvar,
    eval_naive,
    eval_via_pp_turing,
    evaluate,
    pp_to_ep_instance,
)
from .formulas import (
    And,
    Atom,
    Equality,
    Exists,
    Forall,
    FormulaInfo,
    Not,
    Or,
    canonical_query,
    children,
    classify,
    conj,
    disj,
    formula_signature,
    free_variables,
    parse_formula,
    query_variable,
    rebuild,
    render,
    replace_atoms,
    structure_of_pp,
    subformulas,
    variable_names,
)
from .gadgets import (
    CnfFormula,
    brute_force_hamiltonian,
    cycle_all_labels,
    gadget_plus,
    gadget_star,
    hamiltonian_sentence,
    hamiltonian_sentence_ep6,
    outdeg1_decomposition,
    parse_dimacs,
    reduce_hamiltonian,
    reduce_sat,
    star_decomposition,
    successor_pattern,
    unique_label_digraph,
)
from .gdnf import (
    GdnfRelation,
    GdnfStructure,
    format_gdnf,
    gdnf_compact,
    gdnf_from_explicit,
    gdnf_length,
    gdnf_member,
    gdnf_product,
    gdnf_structure_from,
    gdnf_structure_product,
    gdnf_structure_to,
    gdnf_to_explicit,
    parse_gdnf,
)
from .homomorphism import (
    Homomorphism,
    SearchStats,
    core,
    find_homomorphism,
    find_retraction,
    hom_equivalent,
    isomorphic,
    verify_homomorphism,
)
from .normalize import compile_unary, m_normalize, pp_entails, to_pp_disjunction
from .structures import (
    RelationSymbol,
    Signature,
    Structure,
    digraph_signature,
    format_structure,
    induced_substructure,
    labelled_rank,
    labelled_signature,
    pair_token,
    parse_structure,
    product,
    validate,
)
from .treewidth import (
    TreeDecomposition,
    decide_ppk,
    decomposition_from_order,
    format_decomposition,
    gaifman_adjacency,
    parse_decomposition,
    pp_from_decomposition,
    treewidth_exact,
    treewidth_upper,
    validate_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
