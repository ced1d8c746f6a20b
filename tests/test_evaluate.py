import collections
import itertools
import random
import tracemalloc

import pytest

import epquery as q
from epquery import formulas, homomorphism
from epquery.formulas import _free_sets, walk
from epquery.normalize import _members
from helpers import (
    E2,
    FOLD_SIG,
    FO_SIG,
    UNION_SIG,
    cnf_satisfiable,
    compound_first_eval_kvar,
    digraph,
    evaluate,
    flat_eval_dnf_hom,
    memo_every_node_eval_naive,
    padded_or_eval_kvar,
    random_ep_formula,
    random_cnf,
    random_foldable_sentence,
    random_foldable_structure,
    random_fo_sentence,
    random_structure,
    random_union_sentence,
    sparse_digraph,
    triangulated_grid,
)

EPQ_SIG = q.Signature(
    [q.RelationSymbol("E", 2), q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)]
)


def test_eval_naive_loop():
    loop = digraph(["a"], {("a", "a")})
    assert q.eval_naive(q.parse_formula("exists x . E(x,x)"), loop)


def test_eval_naive_conjunction_false():
    sig = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])
    s = q.Structure(sig, ("a", "b"), {"P": {("a",)}, "Q": {("b",)}})
    assert not q.eval_naive(q.parse_formula("exists x . (P(x) & Q(x))"), s)


def test_eval_naive_translated_clause_shape():
    # one clause over three variables, truth pinned by two singleton relations
    sig = q.Signature([q.RelationSymbol("T", 2), q.RelationSymbol("F", 2)])
    s = q.Structure(sig, ("0", "1"), {"T": {("1", "1")}, "F": {("0", "0")}})
    f = q.parse_formula(
        "exists v1 . exists v2 . exists v4 . (T(v1,v1) | F(v2,v2) | T(v4,v4))"
    )
    assert q.eval_naive(f, s)


def test_eval_naive_guards():
    loop = digraph(["a"], {("a", "a")})
    with pytest.raises(q.FragmentError):
        q.eval_naive(q.parse_formula("E(x,x)"), loop)
    with pytest.raises(q.SignatureMismatch):
        q.eval_naive(q.parse_formula("exists x . P(x)"), loop)
    big = digraph([f"v{i}" for i in range(10)], set())
    wide = q.parse_formula(
        "exists a . exists b . exists c . exists d . exists e . exists f . exists g . exists h . (E(a,b) & E(c,d) & E(e,f) & E(g,h))"
    )
    with pytest.raises(q.LimitExceeded):
        q.eval_naive(wide, big, max_work=10 ** 6)


@pytest.mark.time_limit(30)
def test_eval_naive_deep_nesting_with_few_live_variables():
    # 40 nested quantifiers but only one variable alive at a time: the work
    # estimate is tiny and evaluation must stay tiny too
    b = digraph(["a", "b", "c"], {("a", "b"), ("b", "c"), ("c", "a")})
    f = q.Atom("E", ("x", "x"))
    for _ in range(40):
        f = q.Exists("x", q.Or((q.Atom("E", ("x", "x")), f)))
    assert not q.eval_naive(f, b, max_work=1000)

    g = q.Atom("E", ("x", "y"))
    for _ in range(40):
        g = q.Exists("x", q.And((q.Atom("E", ("x", "y")), q.Exists("y", g))))
    g = q.Exists("y", g)
    assert q.eval_naive(g, b, max_work=1000)


@pytest.mark.time_limit(30)
def test_eval_naive_deep_quantifier_nest():
    # 3,000 nested quantifiers, three times the default recursion limit
    f = q.Atom("E", ("x", "x"))
    for _ in range(3000):
        f = q.Exists("x", f)
    assert q.eval_naive(f, digraph(["a", "b"], {("b", "b")}))
    assert not q.eval_naive(f, digraph(["a", "b"], {("a", "b")}))


def test_evaluators_reject_non_formula_nodes():
    junk = q.Exists("x", q.And((q.Atom("E", ("x", "x")), "E(x,x)")))
    b = digraph(["a"], {("a", "a")})
    with pytest.raises(q.EpqError, match="not a formula node"):
        q.eval_naive(junk, b)
    with pytest.raises(q.EpqError, match="not a formula node"):
        q.eval_kvar(junk, b, 1)


_LOOP = digraph(["a"], {("a", "a")})
_EMPTY = q.Structure(E2, (), {})
_NO_E = q.Structure(q.Signature([q.RelationSymbol("P", 1)]), ("a",), {"P": {("a",)}})
_E3 = q.Structure(q.Signature([q.RelationSymbol("E", 3)]), ("a",), {})
_EDGE = "exists x . exists y . E(x,y)"
_CLOSED = (q.FragmentError, "a closed sentence is required")
_NOT_IN = (q.SignatureMismatch, "symbol 'E' is not in the structure signature")
_ARITY = (q.SignatureMismatch, "symbol 'E' has arity 3, used with 2 arguments")
_UNIVERSE = (q.EpqError, "evaluation needs a non-empty universe")
_NOT_EP = (q.FragmentError, "an existential positive sentence is required")
_E_UNARY = (q.SignatureMismatch, "symbol 'E' has arity 2, used with 1 arguments")

_P_NOT_IN = (q.SignatureMismatch, "symbol 'P' is not in the structure signature")

# (sentence, structure, the fault naive and kvar raise, the one dnf-hom and
# pp-reduction raise).  Of several faults, the first in the order fragment,
# closed, symbols, non-empty universe is raised.
_PRECHECK_ROWS = [
    pytest.param("E(x,y) & P(x)", _LOOP, _CLOSED, _CLOSED, id="open-P-unknown"),
    pytest.param("E(x,y) & P(x)", _EMPTY, _CLOSED, _CLOSED, id="open-empty"),
    pytest.param(_EDGE, _EMPTY, _UNIVERSE, _UNIVERSE, id="empty"),
    pytest.param(_EDGE, _NO_E, _NOT_IN, _NOT_IN, id="E-unknown"),
    pytest.param(_EDGE, _E3, _ARITY, _ARITY, id="E-arity-3"),
    pytest.param("exists x . E(x)", _EMPTY, _E_UNARY, _E_UNARY, id="E-used-unary-empty"),
    pytest.param("exists x . P(x)", _LOOP, _P_NOT_IN, _P_NOT_IN, id="P-unknown"),
    pytest.param("exists x . not E(x,x)", _NO_E, _NOT_IN, _NOT_EP, id="FO-E-unknown"),
    pytest.param("not E(x,y)", _EMPTY, _CLOSED, _NOT_EP, id="FO-open-empty"),
]


def _raises(fault, run):
    cls, message = fault
    with pytest.raises(q.EpqError) as caught:
        run()
    assert (type(caught.value), str(caught.value)) == (cls, message)


@pytest.mark.parametrize("strategy", ["naive", "kvar", "dnf-hom", "pp-reduction"])
@pytest.mark.parametrize("text, b, fo_fault, ep_fault", _PRECHECK_ROWS)
def test_every_strategy_shares_one_precheck(strategy, text, b, fo_fault, ep_fault):
    phi = q.parse_formula(text)
    fault = fo_fault if strategy in ("naive", "kvar") else ep_fault
    _raises(fault, lambda: q.evaluate(phi, b, strategy))
    if strategy == "kvar":
        # kvar checks k before all four
        _raises((q.FragmentError, f"sentence uses {q.classify(phi).variables} variables, more than k=0"),
                lambda: q.evaluate(phi, b, "kvar", k=0))
    if strategy == "dnf-hom" and ep_fault is not _UNIVERSE:
        # given b's signature, the builders raise the same fault; they take no universe
        _raises(ep_fault, lambda: q.m_normalize(phi, signature=b.signature))
        if q.classify(phi).fragment == "PP":
            _raises(ep_fault, lambda: q.structure_of_pp(phi, b.signature))


def test_each_entry_point_scans_the_sentence_once(monkeypatch):
    # The sentence check and the signature a builder infers come from one
    # walk of the sentence, and the flattening behind each entry point
    # trusts the check its caller made.  So do kvar's default k and the free
    # variable sets of kvar and naive, and each sentence of an entailment.
    scans = []  # each walk of a whole sentence: a scan or a preorder listing

    def counted(real):
        def walked(f):
            scans.append(f)
            return real(f)
        return walked

    monkeypatch.setattr(formulas, "_scan", counted(formulas._scan))
    for module in (formulas, evaluate):
        monkeypatch.setattr(module, "subformulas", counted(formulas.subformulas), raising=False)
    phi = q.parse_formula("exists x . exists y . (E(x,y) & (P(x) | Q(y)) & (E(y,x) | P(y)))")
    b = q.Structure(EPQ_SIG, ("a", "b"), {"E": {("a", "b"), ("b", "a")}, "P": {("a",)}})
    for run in (lambda: q.m_normalize(phi), lambda: q.m_normalize(phi, signature=EPQ_SIG),
                lambda: q.to_pp_disjunction(phi), lambda: q.eval_dnf_hom(phi, b),
                lambda: q.eval_via_pp_turing(phi, b), lambda: q.evaluate(phi, b, "kvar"),
                lambda: q.evaluate(phi, b, "kvar", k=2), lambda: q.eval_kvar(phi, b, 2),
                lambda: q.evaluate(phi, b, "naive"), lambda: q.eval_naive(phi, b)):
        scans.clear()
        run()
        assert scans == [phi]
    psi, psi_prime = (q.parse_formula(text) for text in (
        "exists x . exists y . E(x,y) & P(x)", "exists z . E(z,z)"))
    for signature in (None, EPQ_SIG):
        scans.clear()
        q.pp_entails(psi, psi_prime, signature=signature)
        assert scans == [psi, psi_prime]
    unary = q.parse_formula("exists x . (P(x) | Q(x)) & (exists y . P(y) & Q(y))")
    for signature in (None, q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])):
        scans.clear()
        q.compile_unary(unary, signature=signature)
        # the other scans read the names of the one-variable sentences it builds
        assert [f for f in scans if f is unary] == [unary]


def test_eval_kvar_max_rows_guards_padding_and_complement():
    # P(x) padded to (x, y) and the complement of P(x) would each hold 5 rows
    names = tuple("abcde")
    b = q.Structure(EPQ_SIG, names, {"P": {("a",)}, "Q": {("b",)}})
    for text in ("exists x . exists y . (P(x) | Q(y))", "exists x . not P(x)"):
        phi = q.parse_formula(text)
        with pytest.raises(q.LimitExceeded) as caught:
            q.eval_kvar(phi, b, 2, max_rows=3)
        assert (caught.value.what, caught.value.limit) == ("bounded-variable relation size", 3)
        assert q.eval_kvar(phi, b, 2, max_rows=5) == q.eval_naive(phi, b) is True


def test_eval_kvar_examples():
    two_cycle = digraph(["a", "b"], {("a", "b"), ("b", "a")})
    assert q.eval_kvar(q.parse_formula("exists x . exists y . E(x,y)"), two_cycle, 2)

    path = digraph(["a", "b", "c"], {("a", "b"), ("b", "c")})
    nested = q.parse_formula("exists x . exists y . (E(x,y) & (exists x . E(y,x)))")
    assert q.eval_naive(nested, path)
    assert q.eval_kvar(nested, path, 2)

    with pytest.raises(q.FragmentError):
        q.eval_kvar(q.parse_formula("exists x . exists y . exists z . E(x,z)"), path, 2)


def test_eval_kvar_tracks_arity():
    path = digraph(["a", "b", "c"], {("a", "b"), ("b", "c")})
    nested = q.parse_formula("exists x . exists y . (E(x,y) & (exists x . E(y,x)))")
    stats = {}
    q.eval_kvar(nested, path, 2, stats=stats)
    assert stats["max_arity"] <= 2


def test_eval_kvar_join_respects_max_rows():
    sig = q.Signature([q.RelationSymbol("P", 1)])
    names = tuple(f"a{i}" for i in range(200))
    b = q.Structure(sig, names, {"P": {(x,) for x in names}})
    f = q.parse_formula("exists x . exists y . P(x) & P(y)")
    with pytest.raises(q.LimitExceeded, match="bounded-variable relation size"):
        q.eval_kvar(f, b, 2, max_rows=1000)
    stats = {}
    assert q.eval_kvar(f, b, 2, stats=stats)
    assert stats["joins"] == 1 and stats["rows_max"] == 200 * 200


def test_evaluate_forwards_max_rows_to_kvar():
    sig = q.Signature([q.RelationSymbol("P", 1)])
    names = tuple(f"a{i}" for i in range(200))
    b = q.Structure(sig, names, {"P": {(x,) for x in names}})
    f = q.parse_formula("exists x . exists y . P(x) & P(y)")
    with pytest.raises(q.LimitExceeded) as caught:
        q.evaluate(f, b, "kvar", max_rows=1000)
    assert (caught.value.what, caught.value.limit) == ("bounded-variable relation size", 1000)
    # the limits of the other strategies do not reach kvar
    assert q.evaluate(f, b, "kvar", max_nodes=1, max_disjuncts=1, max_work=1)


# Join calls and the largest relation of the 3 x 10 grid's 4-variable form:
# a change of join order, of the contexts passed down or of the atoms checked
# inside a join fails here, not only in the benchmark.  On the false target
# the first empty part stops the plan after 6 joins.
def test_eval_kvar_plan_counters_are_pinned():
    grid = triangulated_grid(3, 10)
    width, decomposition = q.treewidth_upper(grid)
    form = q.pp_from_decomposition(grid, decomposition, width + 1)
    cases = ((sparse_digraph(1, 60, 12), True, 91, 200), (sparse_digraph(2, 60, 0), False, 6, 180))
    for target, verdict, joins, rows_max in cases:
        stats = {}
        assert q.eval_kvar(form, target, 4, stats=stats) is verdict
        assert stats == {"max_arity": 4, "joins": joins, "rows_max": rows_max}
        assert (q.find_homomorphism(grid, target) is not None) is verdict


def test_eval_kvar_indexes_each_atom_relation_once_per_call(monkeypatch):
    # An expanding join probes an index of its build side.  An atom
    # relation's index on given key columns is built at its first use in a
    # call and shared by the later joins; any other relation is used once.
    built, probed = collections.Counter(), collections.Counter()
    kept = []  # holds every indexed relation, so that no id is reused
    real_index, real_lookup = evaluate._index, evaluate._KvarRun.index

    def index(rows, positions):
        kept.append(rows)
        built[id(rows), positions] += 1
        return real_index(rows, positions)

    def lookup(run, rows, positions):
        kept.append(rows)
        probed[id(rows), positions] += 1
        return real_lookup(run, rows, positions)

    monkeypatch.setattr(evaluate, "_index", index)
    monkeypatch.setattr(evaluate._KvarRun, "index", lookup)
    grid = triangulated_grid(3, 10)
    width, decomposition = q.treewidth_upper(grid)
    form = q.pp_from_decomposition(grid, decomposition, width + 1)
    for seed, image in ((1, 12), (2, 0), (3, 12)):
        built.clear(), probed.clear(), kept.clear()
        q.eval_kvar(form, sparse_digraph(seed, 60, image), 4)
        assert set(built) == set(probed) and max(built.values()) == 1
        assert sum(probed.values()) > len(probed)


def test_eval_kvar_on_an_empty_conjunction_agrees_with_naive():
    # ``conj`` and the parser never make And(()), but it is a formula: the
    # one empty row, true on every structure
    b = digraph(["a", "b"], {("a", "b")})
    loop = q.Exists("x", q.And((q.Atom("E", ("x", "x")), q.And(()))))
    for phi, k in ((q.And(()), 0), (q.Exists("x", q.And(())), 1), (loop, 1)):
        assert q.eval_kvar(phi, b, k) == q.eval_naive(phi, b) == (phi is not loop)


def test_every_strategy_rejects_an_empty_universe():
    # On an empty universe both FO sentences are false.  kvar's relations
    # leave out the columns of variables nothing constrains, which is exact
    # only when the universe has an element: without the check it would
    # read the first sentence, and with empty disjuncts dropped the second,
    # as true.
    sig = q.Signature([q.RelationSymbol("P", 1)])
    b = q.Structure(sig, (), {"P": set()})
    for text in ("exists x . not exists y . P(y)", "exists x . (P(x) | (not exists y . P(y)))"):
        phi = q.parse_formula(text)
        for strategy in ("naive", "kvar"):
            with pytest.raises(q.EpqError, match="non-empty universe"):
                q.evaluate(phi, b, strategy)
    for strategy in ("naive", "kvar", "dnf-hom", "pp-reduction"):
        with pytest.raises(q.EpqError, match="non-empty universe"):
            q.evaluate(q.parse_formula("exists x . P(x)"), b, strategy)


def _under_negation(phi):
    # ids of the Ors that lie below a Not or a Forall
    out, stack = set(), [(phi, False)]
    while stack:
        g, negated = stack.pop()
        if negated and type(g) is q.Or:
            out.add(id(g))
        negated = negated or type(g) is q.Not or type(g) is q.Forall
        stack.extend((c, negated) for c in q.children(g))
    return out


def test_eval_kvar_drops_empty_disjuncts_like_naive(monkeypatch):
    # An Or's relation ranges over its non-empty disjuncts' variables only;
    # the column of a variable it leaves out stands for the whole universe in
    # every join, projection and complement above it.  Structures with empty,
    # full and one-short-of-full relations make many disjuncts empty.
    empty, dropped = set(), collections.Counter()
    negated = set()
    real = evaluate._relation

    def relation(f, run, context=None):
        va, ra = yield from real(f, run, context)
        if not ra:
            empty.add(id(f))
        else:
            empty.discard(id(f))
        if type(f) is q.Or and any(id(c) in empty for c in f.children):
            dropped[id(f) in negated] += 1
        return va, ra

    monkeypatch.setattr(evaluate, "_relation", relation)
    rng = random.Random(173)
    verdicts = collections.Counter()
    for i in range(600):
        phi = (random_ep_formula(rng, FOLD_SIG), random_fo_sentence(rng),
               random_foldable_sentence(rng))[i % 3]
        b = random_foldable_structure(rng)
        negated = _under_negation(phi)
        empty.clear()
        expected = q.eval_naive(phi, b)
        assert q.eval_kvar(phi, b, q.classify(phi).variables) == expected
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 150
    assert dropped[False] >= 25 and dropped[True] >= 25


def test_eval_kvar_on_bounded_variable_forms_agrees_with_naive_and_dnf_hom():
    rng = random.Random(97)
    verdicts = []
    for _ in range(40):
        a = random_structure(rng, E2, 6, density=0.3)
        width, decomposition = q.treewidth_upper(a)
        form = q.pp_from_decomposition(a, decomposition, width + 1)
        b = random_structure(rng, E2, 4, density=0.4)
        expected = q.eval_naive(form, b)
        assert q.eval_kvar(form, b, width + 1) == expected
        assert q.eval_dnf_hom(form, b) == expected
        verdicts.append(expected)
    assert set(verdicts) == {True, False}


def test_eval_kvar_agrees_with_naive_on_fo():
    rng = random.Random(73)
    texts = [
        "forall x . (exists y . E(x,y))",
        "not (exists x . E(x,x))",
        "forall x . (not E(x,x) | (exists y . E(y,x)))",
        "exists x . (forall y . E(x,y))",
    ]
    for _ in range(40):
        b = random_structure(rng, E2, 3)
        for text in texts:
            f = q.parse_formula(text)
            assert q.eval_kvar(f, b, 2) == q.eval_naive(f, b)


def test_evaluate_checks_the_kind_of_stats():
    phi = q.parse_formula("exists x . exists y . E(x,y)")
    b = digraph(["a", "b"], {("a", "b")})
    stats = {}
    assert q.evaluate(phi, b, "kvar", stats=stats)
    assert stats["joins"] >= 0 and stats["max_arity"] >= 1
    with pytest.raises(q.EpqError):
        q.evaluate(phi, b, "kvar", stats=q.SearchStats())
    for strategy in ("dnf-hom", "pp-reduction"):
        with pytest.raises(q.EpqError):
            q.evaluate(phi, b, strategy, stats={})
        assert q.evaluate(phi, b, strategy, stats=q.SearchStats())


def test_eval_kvar_pads_disjuncts_column_by_column():
    # Each Or joins disjuncts over different free variables, so each is
    # padded to the Or's variables; a padded column out of place changes the
    # verdict on some world.
    sig = q.Signature([q.RelationSymbol("E", 2), q.RelationSymbol("P", 1)])
    rng = random.Random(83)
    worlds = [random_structure(rng, sig, 4, density=0.3) for _ in range(150)]
    for text in (
        "exists x . exists y . (E(x,y) & (P(x) | E(y,y)))",
        "exists x . exists y . exists z . (E(x,y) & E(y,z) & (E(z,x) | P(y) | x = z))",
        "exists x . exists y . (E(x,y) & (exists z . (E(y,z) & (P(x) | E(z,x)))))",
    ):
        phi = q.parse_formula(text)
        verdicts = [q.eval_naive(phi, b) for b in worlds]
        assert [q.eval_kvar(phi, b, 3) for b in worlds] == verdicts
        assert set(verdicts) == {True, False}


def _unsat_cnf_11():
    # 11 variables and 47 three-literal clauses, as in the benchmark; the
    # eight sign patterns over v1, v2 and v3 make it unsatisfiable
    rng = random.Random(127)
    clauses = [frozenset({a, b, c}) for a in (1, -1) for b in (2, -2) for c in (3, -3)]
    while len(clauses) < 47:
        clauses.append(frozenset(v if rng.random() < 0.5 else -v
                                 for v in rng.sample(range(1, 12), 3)))
    rng.shuffle(clauses)
    return q.CnfFormula(11, tuple(clauses))


def _reusable_of(phi):
    free_of = {key: tuple(sorted(names)) for key, names in _free_sets(q.subformulas(phi)).items()}
    return evaluate._reusable(phi, free_of)


def test_eval_naive_caches_only_where_a_lookup_can_hit():
    # shadowed binders count once per quantifier; atoms and equalities are
    # decided in place and never cached
    phi = q.parse_formula("exists x . exists x . P(x)")
    assert set(_reusable_of(phi)) == {id(phi.child)}
    # a node that occurs twice is cached even with no quantifier above it
    g = q.Exists("y", q.Atom("P", ("y",)))
    assert set(_reusable_of(q.And((g, g)))) == {id(g)}
    # the unary SAT reduction has all its variables free in the conjunction
    # and in every clause, so no compound node can be read back (atoms are
    # decided in place and never cached)
    phi = q.reduce_sat(_unsat_cnf_11(), "unary").sentence
    reusable = _reusable_of(phi)
    assert not [g for g in q.subformulas(phi) if id(g) in reusable and q.children(g)]


def test_eval_naive_frames_stay_few_under_shadowing(monkeypatch):
    # The nests of test_eval_naive_deep_nesting_with_few_live_variables:
    # without the cache each would need more than 3 ** 40 walker frames.
    b = digraph(["a", "b", "c"], {("a", "b"), ("b", "c"), ("c", "a")})
    f = q.Atom("E", ("x", "x"))
    g = q.Atom("E", ("x", "y"))
    for _ in range(40):
        f = q.Exists("x", q.Or((q.Atom("E", ("x", "x")), f)))
        g = q.Exists("x", q.And((q.Atom("E", ("x", "y")), q.Exists("y", g))))
    frames = collections.Counter()
    real = evaluate._truth

    def counted(*args):
        frames["all"] += 1
        assert frames["all"] <= 1000
        return real(*args)

    monkeypatch.setattr(evaluate, "_truth", counted)
    assert not q.eval_naive(f, b)
    assert q.eval_naive(q.Exists("y", g), b)
    assert frames["all"] == 239 + 86


def test_eval_naive_frames_on_the_unsat_cnf_stay_few_in_every_mode(monkeypatch):
    # The prenex walk decided the clauses again at each of the 2 ** 11 full
    # assignments: 18,791, 19,129 and 18,791 frames.  Specialized, each
    # clause is decided once its own variables are bound.
    frames = collections.Counter()
    real = evaluate._truth

    def counted(*args):
        frames["all"] += 1
        return real(*args)

    monkeypatch.setattr(evaluate, "_truth", counted)
    for mode, arity in (("two-symbols", 2), ("single-symbol", 3), ("unary", 2)):
        frames.clear()
        inst = q.reduce_sat(_unsat_cnf_11(), mode, arity)
        assert not q.eval_naive(inst.sentence, inst.structure)
        assert frames["all"] <= 500, mode


def _specialized(phi, b):
    return walk(evaluate._specialized(phi, b, {}))[0]


def _leaves(f):
    return sum(type(g) is q.Atom or type(g) is q.Equality for g in q.subformulas(f))


def _movable(f):
    # Quantifiers over a conjunction (a disjunction, for forall) with parts
    # that mention the quantified variable and parts that do not.
    free = _free_sets(q.subformulas(f))
    scoped = {q.Exists: q.And, q.Forall: q.Or}
    return sum(1 for g in q.subformulas(f) if type(g) in scoped
               and type(g.child) is scoped[type(g)]
               and len({g.var in free[id(c)] for c in g.child.children}) == 2)


def test_eval_naive_specializes_like_the_plain_walk():
    # Each sentence against a structure with empty, full and nearly full
    # relations and against one where folding is rarer.  With nothing
    # folded, a quantifier that no longer has parts both with and without
    # its variable below it was moved.
    rng = random.Random(151)
    seen = collections.Counter()
    for _ in range(400):
        phi = random_foldable_sentence(rng)
        for b in (random_foldable_structure(rng), random_structure(rng, FOLD_SIG, 3)):
            expected = memo_every_node_eval_naive(phi, b)
            assert q.eval_naive(phi, b) == expected
            seen[expected] += 1
            spec = _specialized(phi, b)
            if type(spec) is bool:
                assert spec == expected
                seen["decided"] += 1
                continue
            assert _movable(spec) == 0
            folded = _leaves(spec) < _leaves(phi)
            seen["folded"] += folded
            seen["moved"] += not folded and _movable(phi) > 0
            ids = [id(g) for g in q.subformulas(spec) if q.children(g)]
            seen["shared"] += len(set(ids)) < len(ids)
    assert min(seen[True], seen[False]) >= 200
    assert min(seen[name] for name in ("decided", "folded", "moved", "shared")) >= 25


def test_eval_naive_specialized_shapes():
    sig = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("E", 2)])
    b = q.Structure(sig, ("a", "b"), {"P": {("a",)}, "E": {("a", "b")}})
    # the conjunct without x moves in front, in its order
    phi = q.parse_formula("exists y . exists x . (P(y) & E(x,y) & E(y,y) & x = x)")
    inner = q.Exists("x", q.Atom("E", ("x", "y")))
    body = q.And((q.Atom("P", ("y",)), q.Atom("E", ("y", "y")), inner))
    assert _specialized(phi, b) == q.Exists("y", body)
    # not over a folded part; on one element P is full, so True decides it
    phi = q.parse_formula("forall x . (P(x) | (not (exists y . (E(x,y) & y = y))) | E(x,x))")
    negated = q.Not(q.Exists("y", q.Atom("E", ("x", "y"))))
    assert _specialized(phi, b) == q.Forall("x", q.Or((
        q.Atom("P", ("x",)), negated, q.Atom("E", ("x", "x")))))
    one = q.Structure(sig, ("a",), {"P": {("a",)}, "E": set()})
    assert _specialized(phi, one) is True
    # forall moves below the disjuncts without its variable
    phi = q.parse_formula("exists z . forall x . (P(z) | E(x,z))")
    assert _specialized(phi, b) == q.Exists("z", q.Or((
        q.Atom("P", ("z",)), q.Forall("x", q.Atom("E", ("x", "z"))))))
    # a tuple outside the universe does not make a relation full
    stray = q.Structure(sig, ("a", "b"), {"P": {("a",), ("c",)}})
    phi = q.parse_formula("forall x . P(x)")
    assert _specialized(phi, stray) is phi and not q.eval_naive(phi, stray)
    # an unchanged node that occurs twice comes back as one node
    g = q.Exists("x", q.And((q.Atom("P", ("x",)), q.Atom("E", ("x", "x")))))
    twice = _specialized(q.Or((g, g)), b)
    assert twice.children[0] is twice.children[1] is g


def test_naive_and_kvar_match_their_references_on_random_fo(monkeypatch):
    calls = collections.Counter()
    for name in ("_filtered", "_expand"):
        real = getattr(evaluate, name)
        monkeypatch.setattr(evaluate, name, lambda *a, real=real, name=name: (
            calls.update([name]), real(*a))[1])
    rng = random.Random(109)
    verdicts = collections.Counter()
    padded = 0
    for _ in range(400):
        phi = random_fo_sentence(rng)
        b = random_structure(rng, FO_SIG, 3, density=0.4)
        expected = memo_every_node_eval_naive(phi, b)
        assert q.eval_naive(phi, b) == expected
        k = q.classify(phi).variables
        before = calls["_expand"]
        assert q.eval_kvar(phi, b, k) == expected
        padded += calls["_expand"] - before
        assert padded_or_eval_kvar(phi, b, k) == expected
        verdicts[expected] += 1
    assert min(verdicts[True], verdicts[False]) >= 100
    # both kinds of Or occur: filtered through an earlier part, and padded
    assert calls["_filtered"] >= 200 and padded >= 200


def test_naive_and_kvar_decide_sat_reductions_like_their_references():
    rng = random.Random(113)
    truths = collections.Counter()
    for _ in range(12):
        n = rng.randint(5, 8)
        cnf = q.CnfFormula(n, tuple(
            frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(rng.randint(3 * n, 7 * n))
        ))
        truth = cnf_satisfiable(cnf)
        truths[truth] += 1
        for mode, arity in (("two-symbols", 2), ("single-symbol", 3), ("unary", 2)):
            inst = q.reduce_sat(cnf, mode, arity)
            phi, b = inst.sentence, inst.structure
            k = q.classify(phi).variables
            assert q.eval_naive(phi, b) == memo_every_node_eval_naive(phi, b) == truth
            assert q.eval_kvar(phi, b, k) == padded_or_eval_kvar(phi, b, k) == truth
    assert min(truths.values()) >= 3 and len(truths) == 2


# Each clause after the first is filtered through the conjunction's one
# pending part, counted as one join, as the padded reference counts its join.
# The padded reference pads each clause over its 11 slot atoms; eval_kvar's
# Ors range over their non-empty disjuncts only.
def test_eval_kvar_counters_on_unary_sat_are_pinned():
    inst = q.reduce_sat(_unsat_cnf_11(), "unary")
    stats, reference = {}, {}
    assert not q.eval_kvar(inst.sentence, inst.structure, 11, stats=stats)
    assert not padded_or_eval_kvar(inst.sentence, inst.structure, 11, stats=reference)
    assert reference == {"max_arity": 11, "joins": 29, "rows_max": 1792}
    assert stats == {"max_arity": 11, "joins": 9, "rows_max": 7}


def _kvar_against_compound_first(phi, b, k):
    # Both plans' verdicts must agree; returns (verdict, stats, reference stats).
    stats, reference = {}, {}
    verdict = q.eval_kvar(phi, b, k, stats=stats)
    assert verdict == compound_first_eval_kvar(phi, b, k, stats=reference)
    assert stats["max_arity"] <= k
    return verdict, stats, reference


def test_eval_kvar_contexts_keep_the_compound_first_verdicts(monkeypatch):
    # Each corpus passes some contexts down: counted per corpus.
    contexts = collections.Counter()
    corpus = ["random"]
    real = evaluate._project

    def counted(part, keep):
        projected = real(part, keep)
        contexts[corpus[0]] += projected is not None
        return projected

    monkeypatch.setattr(evaluate, "_project", counted)
    rng = random.Random(137)
    for _ in range(200):
        phi = random_ep_formula(rng, EPQ_SIG)
        b = random_structure(rng, EPQ_SIG, 3)
        _kvar_against_compound_first(phi, b, q.classify(phi).variables)
        phi = random_fo_sentence(rng)
        b = random_structure(rng, FO_SIG, 3, density=0.4)
        _kvar_against_compound_first(phi, b, q.classify(phi).variables)
    corpus[0] = "decomposition"
    for _ in range(60):
        a = random_structure(rng, E2, 7, density=0.3)
        width, decomposition = q.treewidth_upper(a)
        form = q.pp_from_decomposition(a, decomposition, width + 1)
        _kvar_against_compound_first(form, random_structure(rng, E2, 4, density=0.4), width + 1)
    # the cores of H_3's normalized members (each is its own core) at
    # k = w + 1, on a Hamiltonian and a non-Hamiltonian 3-vertex digraph
    corpus[0] = "H_3"
    names = ("a0", "a1", "a2")
    targets = [q.reduce_hamiltonian(digraph(names, edges)).structure for edges in (
        {("a0", "a1"), ("a1", "a2"), ("a2", "a0")}, {("a0", "a1"), ("a1", "a2"), ("a2", "a2")})]
    verdicts = collections.Counter()
    members = _members(q.hamiltonian_sentence(3), targets[0].signature, 10 ** 6, 10 ** 7, None)
    for _, struct in members:
        c = q.core(struct, max_universe=len(struct.universe))
        width, decomposition = q.treewidth_exact(c, max_universe=len(c.universe))
        form = q.pp_from_decomposition(c, decomposition, width + 1)
        for i, b in enumerate(targets):
            verdicts[i] += _kvar_against_compound_first(form, b, width + 1)[0]
    assert verdicts[0] > 0 == verdicts[1]
    # the 3 x 10 grid's 4-variable form on sparse targets: never a larger
    # relation than the compound-first plan, and a smaller one on some
    # targets with the grid's image and on some without
    corpus[0] = "grid"
    grid = triangulated_grid(3, 10)
    width, decomposition = q.treewidth_upper(grid)
    form = q.pp_from_decomposition(grid, decomposition, width + 1)
    smaller = collections.Counter()
    for seed, n, image in itertools.product((1, 2, 3), (30, 60, 90), (0, 12)):
        _, stats, reference = _kvar_against_compound_first(form, sparse_digraph(seed, n, image), 4)
        assert stats["rows_max"] <= reference["rows_max"]
        smaller[image] += stats["rows_max"] < reference["rows_max"]
    assert min(smaller[0], smaller[12]) > 0
    assert min(contexts[name] for name in ("random", "decomposition", "H_3", "grid")) >= 10


def test_or_only_conjunctions_keep_the_compound_first_counters():
    # Every conjunction of a SAT reduction of a 3-CNF has only Or children,
    # so it follows the compound-first plan, join for join, except that an
    # Or drops its empty disjuncts before it is padded: never more joins or
    # a larger relation, and a smaller one where the unary mode's empty slot
    # relations pad the first clause.
    rng = random.Random(139)
    for _ in range(6):
        n = rng.randint(5, 7)
        cnf = q.CnfFormula(n, tuple(
            frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(rng.randint(3 * n, 6 * n))
        ))
        for mode, arity in (("two-symbols", 2), ("single-symbol", 3), ("unary", 2)):
            inst = q.reduce_sat(cnf, mode, arity)
            assert all(type(c) is q.Or for g in q.subformulas(inst.sentence)
                       if type(g) is q.And for c in g.children)
            k = q.classify(inst.sentence).variables
            _, stats, reference = _kvar_against_compound_first(inst.sentence, inst.structure, k)
            assert stats["joins"] <= reference["joins"]
            assert stats["rows_max"] <= reference["rows_max"]
            if mode == "unary":
                assert stats["rows_max"] < reference["rows_max"]


def test_eval_naive_memory_on_unary_sat_is_bounded():
    # Caching every node's verdict per assignment kept an entry for each of
    # the 47 clauses under each of up to 2 ** 11 assignments.
    inst = q.reduce_sat(_unsat_cnf_11(), "unary")
    peaks = []
    for evaluator in (q.eval_naive, memo_every_node_eval_naive):
        tracemalloc.start()
        try:
            assert not evaluator(inst.sentence, inst.structure)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2 ** 20 < peaks[1]


def test_eval_dnf_hom_examples():
    edge = digraph(["a", "b"], {("a", "b")})
    f = q.parse_formula("exists x . (E(x,x) | (exists y . E(x,y)))")
    assert q.eval_dnf_hom(f, edge)
    assert not q.eval_dnf_hom(q.parse_formula("exists x . E(x,x)"), edge)


def test_eval_dnf_hom_agrees_with_naive():
    rng = random.Random(79)
    for _ in range(300):
        f = random_ep_formula(rng, EPQ_SIG)
        b = random_structure(rng, EPQ_SIG, 3)
        assert q.eval_dnf_hom(f, b) == q.eval_naive(f, b)


def _atom_ors(f):
    return [g for g in q.subformulas(f)
            if type(g) is q.Or and all(type(c) is q.Atom for c in g.children)]


def test_eval_dnf_hom_union_constraints_agree_with_naive():
    # Ors of unary, binary and ternary atoms with repeated arguments, on
    # disjoint variables, and inside Ors with compound children.
    rng = random.Random(101)
    verdicts = []
    shapes = collections.Counter()
    for _ in range(300):
        f = random_union_sentence(rng)
        b = random_structure(rng, UNION_SIG, 3, density=rng.choice([0.15, 0.3]))
        verdict = q.eval_dnf_hom(f, b)
        assert verdict == q.eval_naive(f, b) == flat_eval_dnf_hom(f, b)
        verdicts.append(verdict)
        for g in _atom_ors(f):
            shapes.update({c.symbol for c in g.children})
            shapes["repeated"] += any(len(set(c.args)) < len(c.args) for c in g.children)
            shapes["disjoint"] += all(set(c.args).isdisjoint(d.args)
                                      for c, d in itertools.combinations(g.children, 2))
        # an Or with a compound child is no Or of atoms, so those it holds are below it
        shapes["nested"] += any(type(g) is q.Or and any(type(c) is not q.Atom for c in g.children)
                                and _atom_ors(g) for g in q.subformulas(f))
    assert 100 < sum(verdicts) < 200
    assert min(shapes[k] for k in ("P", "E", "T", "repeated", "disjoint", "nested")) > 20


def _hamiltonian_reference_cases():
    # Every 2-vertex digraph, and one 3-vertex digraph per isomorphism class
    # with the relabelled copies of it: the flattened reference searches 27
    # disjuncts per false instance, so it runs once per class.
    for names in (("a0", "a1"), ("a0", "a1", "a2")):
        pairs = list(itertools.product(names, repeat=2))
        classes = {}
        for mask in range(1 << len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
            key = min(tuple(sorted((p[x], p[y]) for x, y in edges))
                      for p in (dict(zip(names, perm)) for perm in itertools.permutations(names)))
            classes.setdefault(key, []).append(digraph(names, edges))
        yield from classes.values()


@pytest.mark.parametrize("lift", [None, 3])
def test_eval_dnf_hom_matches_flat_reference_on_hamiltonian_reductions(lift):
    seen = 0
    for copies in _hamiltonian_reference_cases():
        red = q.reduce_hamiltonian(copies[0], lift)
        expected = flat_eval_dnf_hom(red.sentence, red.structure)
        assert expected == q.brute_force_hamiltonian(copies[0])
        for g in copies:
            red = q.reduce_hamiltonian(g, lift)
            assert q.eval_dnf_hom(red.sentence, red.structure) == expected
            seen += 1
    assert seen == 16 + 512


def test_eval_dnf_hom_decides_two_symbols_and_unary_sat_bundles():
    rng = random.Random(103)
    cnfs = [random_cnf(rng, max_vars=6, max_clauses=12) for _ in range(60)]
    for satisfiable in (True, False):
        # 11 variables and 47 three-literal clauses, as in the benchmark; an
        # unsatisfiable one holds all eight sign patterns over three variables
        hidden = [rng.random() < 0.5 for _ in range(11)]
        clauses = []
        while len(clauses) < 47:
            clause = frozenset(v if rng.random() < 0.5 else -v
                               for v in rng.sample(range(1, 12), 3))
            if not satisfiable or any((lit > 0) == hidden[abs(lit) - 1] for lit in clause):
                clauses.append(clause)
        if not satisfiable:
            clauses[:8] = [frozenset({a, b, c}) for a in (1, -1) for b in (2, -2) for c in (3, -3)]
        cnfs.append(q.CnfFormula(11, tuple(clauses)))
    for cnf in cnfs:
        truth = cnf_satisfiable(cnf)
        for mode, arity in (("two-symbols", 1), ("two-symbols", 3), ("unary", 2)):
            inst = q.reduce_sat(cnf, mode, arity)
            assert q.eval_dnf_hom(inst.sentence, inst.structure) == truth
    assert [cnf_satisfiable(cnf) for cnf in cnfs[-2:]] == [True, False]
    with pytest.raises(q.LimitExceeded, match="disjunct count"):
        q.to_pp_disjunction(q.reduce_sat(cnfs[-1], "unary").sentence)


def test_eval_via_pp_turing_agrees():
    rng = random.Random(83)
    for _ in range(150):
        f = random_ep_formula(rng, EPQ_SIG)
        b = random_structure(rng, EPQ_SIG, 3)
        assert q.eval_via_pp_turing(f, b) == q.eval_dnf_hom(f, b)


def test_eval_via_pp_turing_pp_short_circuit():
    loop = digraph(["a"], {("a", "a")})
    psi = q.parse_formula("exists x . E(x,x)")
    stats = q.SearchStats()
    assert q.eval_via_pp_turing(psi, loop, stats=stats)


def test_eval_via_pp_turing_empty_relations():
    sig = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])
    empty = q.Structure(sig, ("a",), {})
    f = q.parse_formula("exists x . (P(x) | Q(x))")
    assert not q.eval_via_pp_turing(f, empty)


def test_pp_to_ep_instance_positive_side():
    sig = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])
    phi = q.parse_formula("exists x . (P(x) | Q(x))")
    psi = q.parse_formula("exists x . P(x)")
    b = q.Structure(sig, ("a",), {"P": {("a",)}})
    instance = q.pp_to_ep_instance(psi, phi, b)
    assert q.eval_naive(psi, b)
    assert q.eval_naive(instance.sentence, instance.structure)


def test_pp_to_ep_instance_product_kills_other_disjunct():
    sig = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])
    phi = q.parse_formula("exists x . (P(x) | Q(x))")
    psi = q.parse_formula("exists x . P(x)")
    b = q.Structure(sig, ("a",), {"Q": {("a",)}})
    instance = q.pp_to_ep_instance(psi, phi, b)
    assert not q.eval_naive(psi, b)
    assert not q.eval_naive(instance.sentence, instance.structure)


def test_pp_to_ep_instance_pp_input():
    psi = q.parse_formula("exists x . E(x,x)")
    loop = digraph(["a"], {("a", "a")})
    instance = q.pp_to_ep_instance(psi, psi, loop)
    assert q.eval_naive(instance.sentence, instance.structure) == q.eval_naive(psi, loop)


def test_pp_to_ep_instance_rejects_non_member():
    phi = q.parse_formula("exists x . (P(x) | Q(x))")
    bogus = q.parse_formula("exists x . (P(x) & Q(x))")
    sig = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])
    b = q.Structure(sig, ("a",), {})
    with pytest.raises(q.EpqError):
        q.pp_to_ep_instance(bogus, phi, b)


def test_pp_to_ep_instance_accepts_equivalent_variant():
    phi = q.parse_formula("exists x . (P(x) | Q(x))")
    variant = q.parse_formula("exists y . exists z . (y = z & P(z))")
    sig = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])
    b = q.Structure(sig, ("a",), {"P": {("a",)}})
    instance = q.pp_to_ep_instance(variant, phi, b)
    assert q.eval_naive(instance.sentence, instance.structure)


def test_product_reduction_equivalence_chain():
    rng = random.Random(89)
    for _ in range(40):
        phi = random_ep_formula(rng, EPQ_SIG)
        members = q.m_normalize(phi, signature=EPQ_SIG)
        for psi in members:
            for _ in range(4):
                b = random_structure(rng, EPQ_SIG, 2)
                instance = q.pp_to_ep_instance(psi, phi, b)
                assert q.eval_naive(instance.sentence, instance.structure) == q.eval_naive(
                    psi, b
                )


def test_strategy_dispatch():
    loop = digraph(["a"], {("a", "a")})
    f = q.parse_formula("exists x . E(x,x)")
    for strategy in ("naive", "kvar", "dnf-hom", "pp-reduction"):
        assert q.evaluate(f, loop, strategy)
    with pytest.raises(q.EpqError):
        q.evaluate(f, loop, "magic")


def test_eval_via_pp_turing_builds_one_skeleton_per_disjunct(monkeypatch):
    # Each member is searched through the structure its entailment tests
    # built, so no skeleton is built past one per flattened disjunct: the
    # filter searches from each of the five members and from no other
    # disjunct.  The target has no edge and no P, so every member is searched.
    phi = q.parse_formula(
        "exists x1 . exists x2 . exists x3 . ((E(x1,x2) | P(x3))"
        " & (exists z . (E(x2,z) & E(z,x3)) | E(x3,x1)) & (P(x1) | E(x2,x2)))"
    )
    b = q.Structure(EPQ_SIG, ("a", "b"), {"Q": {("a",)}})
    built = []

    class Counting(homomorphism._Skeleton):
        __slots__ = ()

        def __init__(self, source):
            built.append(source)
            super().__init__(source)

    monkeypatch.setattr(homomorphism, "_Skeleton", Counting)
    assert not q.eval_via_pp_turing(phi, b)
    assert len(q.to_pp_disjunction(phi)) == 8
    assert len(built) == len({id(s) for s in built}) == 5
    assert all(s.signature == EPQ_SIG for s in built)


def test_evaluate_rejects_a_limit_no_strategy_takes():
    loop = digraph(["a"], {("a", "a")})
    f = q.parse_formula("exists x . E(x,x)")
    for strategy in ("naive", "kvar", "dnf-hom", "pp-reduction"):
        with pytest.raises(q.EpqError, match="max_node"):
            q.evaluate(f, loop, strategy, max_node=0)
        # every documented limit is accepted by every strategy
        assert q.evaluate(f, loop, strategy, max_work=10, max_rows=10, max_disjuncts=10,
                          max_nodes=10)
