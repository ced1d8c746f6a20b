import random
import re

import pytest

import epquery as q
from epquery.errors import MAX_DISJUNCTS
from epquery.formulas import _free_sets, _structure_and_unions
from epquery.normalize import _disjuncts
from helpers import (
    E2,
    FO_SIG,
    UNION_SIG,
    all_structures,
    brute_hom_exists,
    digraph,
    random_ep_formula,
    random_fo_sentence,
    random_pp_formula,
    random_structure,
    random_union_sentence,
    reference_parse_formula,
    renaming_structure_and_unions,
)

EPQ_SIG = q.Signature(
    [q.RelationSymbol("E", 2), q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)]
)


def test_parse_simple_exists():
    f = q.parse_formula("exists x . E(x,x)")
    assert f == q.Exists("x", q.Atom("E", ("x", "x")))


def test_parse_disjunction_under_quantifier():
    f = q.parse_formula("exists x . (P(x) | Q(x))")
    assert f == q.Exists("x", q.Or((q.Atom("P", ("x",)), q.Atom("Q", ("x",)))))


def test_parse_precedence_and_scope():
    f = q.parse_formula("P(x) & Q(x) | P(y)")
    assert isinstance(f, q.Or)
    assert isinstance(f.children[0], q.And)
    g = q.parse_formula("exists x . P(x) | Q(x)")
    assert isinstance(g, q.Exists)  # quantifier scope extends maximally right
    assert isinstance(g.child, q.Or)


def test_parse_arity_error_against_signature():
    with pytest.raises(q.ParseError):
        q.parse_formula("E(x)", EPQ_SIG)


def test_parse_reports_position():
    with pytest.raises(q.ParseError) as err:
        q.parse_formula("exists x .\nE(x,")
    assert err.value.line == 2


def test_parse_rejects_keyword_variables():
    with pytest.raises(q.ParseError):
        q.parse_formula("exists exists . P(exists)")


# Text between tokens: line breaks of every kind ``str.splitlines`` knows,
# other whitespace, and comments that end at a line break or at the end.
SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\f", "\u2028", "\u00a0", " # (note $ .\n",
              "#\n", "# x\r", "\n\n# two\r\n  "]
TOKEN_RE = re.compile(r"[A-Za-z0-9_^@']+|\S")


def _outcome(parse, text, signature):
    # The AST, or the error's message, line and column.
    try:
        return parse(text, signature)
    except q.ParseError as err:
        return (str(err), err.line, err.column)


def _respaced(rng, tokens):
    # The tokens with random separators; none between two that would merge.
    out = [rng.choice(SEPARATORS) if rng.random() < 0.3 else ""]
    for a, b in zip(tokens, tokens[1:]):
        out.append(a)
        merging = TOKEN_RE.fullmatch(a + b) is not None
        out.append(rng.choice(SEPARATORS) if merging or rng.random() < 0.5 else "")
    out.append(tokens[-1])
    if rng.random() < 0.3:
        out.append(rng.choice(SEPARATORS + ["# trailing"]))
    return "".join(out)


def test_parse_formula_matches_the_reference_parser():
    rng = random.Random(163)
    for i in range(300):
        if i % 2:
            f, sig = random_ep_formula(rng, EPQ_SIG), EPQ_SIG
        else:
            f, sig = random_fo_sentence(rng), FO_SIG
        rendered = q.render(f)
        expected = reference_parse_formula(rendered)  # nested Ors and Ands come back flat
        text = _respaced(rng, TOKEN_RE.findall(rendered))
        assert q.parse_formula(text) == reference_parse_formula(text) == expected
        assert q.parse_formula(text, sig) == expected


MALFORMED = [
    "exists x . P($)", "P(x) @@ Q(x)", "P(x) & @@", "P(x)) $", "# $ in a comment\nP(x) $",
    "P(x) &\r\n  $", "P(x)\r&\r$", "\tP(\u00e9)", "P(x)\f|\u2028 Q(x) ~",
    "exists exists . P(x)", "exists x . not(x)", "P(forall)", "P(x, not)", "not = x",
    "(P(x) & Q(x)", "exists x . (P(x)\n", "((P(x))", "P(x", "P(x,",
    "P(x) Q(x)", "P(x))", "x = y z", "E(x,y) | P(x) .",
    "exists x . R(x)", "exists x .\n  E(x)", "P(x,y) & Q(x)", "exists x . (P(x) | P(x,x))",
    "exists x P(x)", "forall x\n P(x)", "exists . P(x)", "exists x ,",
    "", "   \n\n", "# only a comment\n", "#a\n#b", "P(x)\n# done\n", "x", "x =", "=",
    "&P(x)", "P(x) |", "P()", "P(x,)", "not", "exists", "(", ")", "P(x)\r\n\r\n&",
]


def test_parse_errors_match_the_reference_parser():
    # Message, line and column, with and without a signature, on malformed
    # texts and on valid sentences with one token deleted, inserted or cut.
    texts = list(MALFORMED)
    rng = random.Random(167)
    pool = ["(", ")", ".", ",", "&", "|", "=", "$", "not", "exists", "x", "P", "#c\n", "\n"]
    for _ in range(300):
        tokens = TOKEN_RE.findall(q.render(random_ep_formula(rng, EPQ_SIG)))
        at = rng.randrange(len(tokens))
        roll = rng.random()
        if roll < 0.4:
            del tokens[at]
        elif roll < 0.8:
            tokens.insert(at, rng.choice(pool))
        else:
            tokens = tokens[:at]
        if tokens:
            texts.append(_respaced(rng, tokens))
    errors = 0
    for text in texts:
        for sig in (None, EPQ_SIG):
            expected = _outcome(reference_parse_formula, text, sig)
            assert _outcome(q.parse_formula, text, sig) == expected, text
            errors += type(expected) is tuple
    assert errors >= 400
    # the end of the input is just after its last token, and a comment-only
    # text ends where it starts
    assert _outcome(q.parse_formula, "P(x) &", None)[1:] == (1, 7)
    assert _outcome(q.parse_formula, "exists x .\nE(x,", None)[1:] == (2, 5)
    assert _outcome(q.parse_formula, "# only a comment\n", None)[1:] == (1, 1)


def test_render_examples():
    assert q.render(q.Exists("x", q.Atom("E", ("x", "x")))) == "exists x . E(x,x)"
    assert q.render(q.Equality("x", "y")) == "x = y"
    nested = q.Or((q.And((q.Atom("P", ("x",)), q.Atom("Q", ("x",)))), q.Atom("P", ("y",))))
    assert q.render(nested) == "(P(x) & Q(x)) | P(y)"
    with pytest.raises(q.EpqError, match="not a formula node"):
        q.render(q.Not(q.Or((q.Atom("P", ("x",)), "Q(x)"))))


ROUND_TRIP_TEXTS = [
    "exists x . E(x,x)",
    "exists x . exists y . (E(x,y) & (exists x . E(y,x)))",
    "forall x . (P(x) | (not Q(x)))",
    "exists x . (x = x & (P(x) | (Q(x) & P(x))))",
    "not (P(x) & Q(y))",
    "exists v . (P(v) | Q(v)) & P(v)",
]


def test_parse_render_round_trip():
    for text in ROUND_TRIP_TEXTS:
        f = q.parse_formula(text)
        assert q.parse_formula(q.render(f)) == f


def test_round_trip_random_formulas():
    rng = random.Random(31)
    for _ in range(80):
        f = random_pp_formula(rng, EPQ_SIG)
        assert q.parse_formula(q.render(f)) == f
        # and the text side: canonical text reprints as itself
        canonical = q.render(f)
        assert q.render(q.parse_formula(canonical)) == canonical


def test_rebuild_from_children_is_identity():
    rng = random.Random(17)
    formulas = [q.parse_formula(text) for text in ROUND_TRIP_TEXTS]
    formulas += [random_ep_formula(rng, EPQ_SIG) for _ in range(60)]
    formulas += [random_pp_formula(rng, EPQ_SIG) for _ in range(60)]
    def preorder(g):
        return [g] + [node for c in q.children(g) for node in preorder(c)]

    kinds = set()
    for f in formulas:
        nodes = q.subformulas(f)
        assert list(map(id, nodes)) == list(map(id, preorder(f)))
        for g in nodes:
            kinds.add(type(g))
            assert q.rebuild(g, q.children(g)) == g
    assert kinds == {q.Atom, q.Equality, q.And, q.Or, q.Not, q.Exists, q.Forall}
    with pytest.raises(q.EpqError, match="not a formula node"):
        q.children("P(x)")
    with pytest.raises(q.EpqError):
        q.rebuild(q.Not(q.Atom("P", ("x",))), ())


def test_classify_examples():
    pp = q.parse_formula("exists x . E(x,x)")
    assert q.classify(pp) == q.FormulaInfo("PP", 1, True, True)
    ep = q.parse_formula("exists x . (P(x) | Q(x))")
    info = q.classify(ep)
    assert info.fragment == "EP" and info.variables == 1
    fo = q.parse_formula("forall x . not P(x)")
    assert q.classify(fo).fragment == "FO"
    open_formula = q.parse_formula("P(x)")
    assert not q.classify(open_formula).closed
    with_eq = q.parse_formula("exists x . (x = x & P(x))")
    assert not q.classify(with_eq).equality_free
    assert q.classify(with_eq).closed


def test_free_variables_match_per_node_sets():
    # one scoped walk agrees with the bottom-up sets eval_naive still builds,
    # on open formulas where quantifiers shadow and rebind names
    rng = random.Random(37)
    pool = ["x", "y", "z"]

    def gen(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.2:
            if rng.random() < 0.7:
                return q.Atom("E", (rng.choice(pool), rng.choice(pool)))
            return q.Equality(rng.choice(pool), rng.choice(pool))
        if roll < 0.5:
            return rng.choice([q.Exists, q.Forall])(rng.choice(pool), gen(depth - 1))
        if roll < 0.6:
            return q.Not(gen(depth - 1))
        return rng.choice([q.And, q.Or])((gen(depth - 1), gen(depth - 1)))

    closed = 0
    for _ in range(300):
        f = gen(5)
        sets = _free_sets(q.subformulas(f))
        for g in q.subformulas(f):
            assert q.free_variables(g) == sets[id(g)]
        assert q.classify(f).closed == (not sets[id(f)])
        closed += q.classify(f).closed
    assert 5 < closed < 295
    shadowed = q.parse_formula("(exists x . (E(x,y) & (exists y . E(y,y)))) | (exists z . E(z,x))")
    assert q.free_variables(shadowed) == {"x", "y"}


def test_canonical_query_loop():
    loop = digraph(["a"], {("a", "a")})
    f = q.canonical_query(loop)
    va = q.query_variable("a")
    assert f == q.Exists(va, q.Atom("E", (va, va)))


def test_canonical_query_inserts_equality_when_no_tuples():
    s = digraph(["a1", "a2"], set())
    f = q.canonical_query(s)
    v1, v2 = q.query_variable("a1"), q.query_variable("a2")
    assert f == q.Exists(v1, q.Exists(v2, q.Equality(v1, v1)))


def test_canonical_query_edge():
    s = digraph(["a", "b"], {("a", "b")})
    f = q.canonical_query(s)
    va, vb = q.query_variable("a"), q.query_variable("b")
    assert f == q.Exists(va, q.Exists(vb, q.Atom("E", (va, vb))))


def test_query_variable_escaping_is_injective():
    tokens = ["a|b", "a\\|b", "a@b", "a@@b", "a b?", "x", "x|", "|x"]
    encoded = [q.query_variable(t) for t in tokens]
    assert len(set(encoded)) == len(tokens)
    for enc in encoded:
        # must survive the sentence grammar
        assert q.parse_formula(f"exists {enc} . {enc} = {enc}")


def test_structure_of_pp_merges_equalities():
    f = q.parse_formula("exists x . exists y . (x = y & E(x,y))")
    s = q.structure_of_pp(f)
    assert s.universe == ("x",)
    assert s.relations["E"] == {("x", "x")}


def test_structure_of_pp_plain_edge():
    f = q.parse_formula("exists x . exists y . E(x,y)")
    s = q.structure_of_pp(f)
    assert s.universe == ("x", "y")
    assert s.relations["E"] == {("x", "y")}


def test_structure_of_pp_pure_equality():
    f = q.parse_formula("exists x . x = x")
    s = q.structure_of_pp(f, E2)
    assert s.universe == ("x",)
    assert s.relations["E"] == frozenset()


def test_structure_of_pp_respects_shadowing():
    f = q.parse_formula("exists x . exists y . (E(x,y) & (exists x . E(y,x)))")
    s = q.structure_of_pp(f)
    assert len(s.universe) == 3
    assert len(s.relations["E"]) == 2


def test_structure_of_pp_vacuous_requantification():
    f = q.Exists("x", q.Exists("x", q.Atom("Q", ("x",))))
    s = q.structure_of_pp(f)
    assert len(s.universe) == 2
    assert sum(len(t) for t in s.relations["Q"]) == 1


def _repeats_a_binder(f):
    binders = [g.var for g in q.subformulas(f) if type(g) is q.Exists]
    return len(binders) > len(set(binders))


def test_structure_of_pp_matches_renaming_reference():
    # The seeded sentences requantify names from a pool of three; in every
    # third one the name w3 becomes w1_2, the first fresh name for w1.
    rng = random.Random(131)
    repeated = 0
    for i in range(400):
        psi = random_pp_formula(rng, EPQ_SIG, max_depth=4)
        if i % 3 == 0:
            psi = q.parse_formula(re.sub(r"\bw3\b", "w1_2", q.render(psi)))
        expected, _ = renaming_structure_and_unions(psi, EPQ_SIG)
        assert q.structure_of_pp(psi, EPQ_SIG) == expected
        repeated += _repeats_a_binder(psi)
    assert repeated >= 100
    psi = q.parse_formula("exists x . exists x . exists x_2 . (E(x,x_2) & (exists x . P(x)))")
    assert q.structure_of_pp(psi).universe == ("x", "x_3", "x_2", "x_4")


def test_structure_and_unions_match_renaming_reference():
    # Disjuncts that keep each Or of atoms whole, as eval_dnf_hom searches them.
    rng = random.Random(137)
    repeated = unions = 0
    for _ in range(400):
        for psi in _disjuncts(random_union_sentence(rng, max_depth=4), MAX_DISJUNCTS, True):
            expected = renaming_structure_and_unions(psi, UNION_SIG)
            assert _structure_and_unions(psi, UNION_SIG) == expected
            repeated += _repeats_a_binder(psi)
            unions += bool(expected[1])
    assert repeated >= 100 and unions >= 100


def test_structure_of_pp_rejects_non_pp():
    with pytest.raises(q.FragmentError):
        q.structure_of_pp(q.parse_formula("exists x . (P(x) | Q(x))"))
    with pytest.raises(q.FragmentError):
        q.structure_of_pp(q.parse_formula("P(x)"))


def test_pp_entails_examples():
    loop = q.parse_formula("exists x . E(x,x)")
    edge = q.parse_formula("exists x . exists y . E(x,y)")
    assert q.pp_entails(loop, edge)
    assert not q.pp_entails(edge, loop)
    assert q.pp_entails(edge, edge)


def test_homomorphism_query_correspondence_small():
    # A -> B, B satisfying A's canonical query, and entailment between the
    # two canonical queries must all agree; homomorphism checked by the
    # all-maps oracle.
    rng = random.Random(37)
    for _ in range(120):
        a = random_structure(rng, E2, 3, prefix="a")
        b = random_structure(rng, E2, 3, prefix="b")
        hom = brute_hom_exists(a, b)
        assert q.eval_naive(q.canonical_query(a), b) == hom
        assert q.pp_entails(q.canonical_query(b), q.canonical_query(a)) == hom


def test_structure_query_round_trips():
    sig = q.Signature([q.RelationSymbol("E", 2), q.RelationSymbol("P", 1)])
    smalls = list(all_structures(sig, ("a",))) + list(all_structures(sig, ("a", "b")))
    rng = random.Random(41)
    for _ in range(40):
        a = random_structure(rng, sig, 2)
        assert q.hom_equivalent(q.structure_of_pp(q.canonical_query(a), sig), a)
    for _ in range(40):
        psi = random_pp_formula(rng, sig)
        rebuilt = q.canonical_query(q.structure_of_pp(psi, sig))
        for b in rng.sample(smalls, 25):
            assert q.eval_naive(psi, b) == q.eval_naive(rebuilt, b)


def test_formula_signature_inference():
    f = q.parse_formula("exists x . (E(x,x) & P(x))")
    sig = q.formula_signature(f)
    assert set(sig.names) == {"E", "P"}
    with pytest.raises(q.EpqError):
        q.formula_signature(q.conj([q.Atom("E", ("x",)), q.Atom("E", ("x", "y"))]))
    with pytest.raises(q.EpqError, match="not a formula node"):
        q.formula_signature(q.And((q.Atom("P", ("x",)), "Q(x)")))


def test_pp_entails_rejects_arity_clash():
    one = q.parse_formula("exists x . E(x)")
    two = q.parse_formula("exists x . exists y . E(x,y)")
    with pytest.raises(q.EpqError, match="arities 1 and 2"):
        q.pp_entails(one, two)


def test_node_repr_is_the_dataclass_text():
    assert repr(q.And((q.Atom("P", ("x",)),))) == "And(children=(Atom(symbol='P', args=('x',)),))"
    assert repr(q.Or((q.Equality("x", "y"), q.Not(q.Atom("Q", ()))))) == (
        "Or(children=(Equality(left='x', right='y'), Not(child=Atom(symbol='Q', args=()))))"
    )
    assert repr(q.Forall("x", q.And(()))) == "Forall(var='x', child=And(children=()))"
    # a value that is not a node prints as itself
    assert repr(q.And((q.Atom("P", ("x",)), "Q(x)"))) == (
        "And(children=(Atom(symbol='P', args=('x',)), 'Q(x)'))"
    )


def test_node_equality_compares_type_and_fields():
    p = q.Atom("P", ("x",))
    assert q.Exists("x", p) == q.Exists("x", q.Atom("P", ("x",)))
    assert q.Exists("x", p) != q.Forall("x", p)
    assert q.Exists("x", p) != q.Exists("y", p)
    assert q.And((p, p)) != q.Or((p, p))
    assert q.And((p, p)) != q.And((p,))
    assert q.And((q.And((p,)), p)) != q.And((q.And((p, p)),))
    assert p != ("P", ("x",))
    assert len({q.And((p, p)), q.conj([p, p]), q.Or((p, p))}) == 2


def test_deep_nest_equality_hash_and_repr():
    # 2,000 nested quantifiers: past the recursion limit of the generated
    # dataclass methods, which compared, hashed and printed recursively.
    f = q.Atom("P", ("x",))
    for _ in range(2000):
        f = q.Exists("x", f)
    g = q.parse_formula(q.render(f))
    assert g == f
    assert not g != f
    assert hash(g) == hash(f)
    assert g != q.Exists("x", q.Exists("y", f.child.child))
    assert repr(f) == (
        "Exists(var='x', child=" * 2000 + "Atom(symbol='P', args=('x',))" + ")" * 2000
    )
