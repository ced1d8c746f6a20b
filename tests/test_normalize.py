import collections
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

import epquery as q
from epquery import homomorphism, normalize
from epquery.errors import MAX_NODES
from epquery.formulas import _structure_and_unions
from helpers import all_structures, random_ep_formula, two_phase_m_normalize

EPQ_SIG = q.Signature(
    [q.RelationSymbol("E", 2), q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)]
)
PQR_SIG = q.Signature(
    [q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1), q.RelationSymbol("R", 1)]
)
PQ_SIG = q.Signature([q.RelationSymbol("P", 1), q.RelationSymbol("Q", 1)])


def _equivalent_on(sig, sizes, left, right, rng=None, sample=None):
    worlds = []
    for size in sizes:
        worlds.extend(all_structures(sig, tuple(f"m{i}" for i in range(size))))
    if sample is not None:
        worlds = rng.sample(worlds, sample)
    return all(q.eval_naive(left, b) == q.eval_naive(right, b) for b in worlds)


def test_to_pp_disjunction_single_rule():
    f = q.parse_formula("exists x . (P(x) | Q(x))")
    out = q.to_pp_disjunction(f)
    assert out == [
        q.parse_formula("exists x . P(x)"),
        q.parse_formula("exists x . Q(x)"),
    ]


def test_to_pp_disjunction_identity_on_pp():
    psi = q.parse_formula("exists x . exists y . (E(x,y) & P(x))")
    assert q.to_pp_disjunction(psi) == [psi]


def test_to_pp_disjunction_distribution():
    f = q.parse_formula("exists x . ((P(x) | Q(x)) & (P(x) | R(x)))")
    out = q.to_pp_disjunction(f)
    assert len(out) == 4
    for disjunct in out:
        assert q.classify(disjunct).fragment == "PP"
    # left-to-right generation order: the left conjunct's choice is outermost
    assert out == [
        q.parse_formula(f"exists x . ({left}(x) & {right}(x))")
        for left in ("P", "Q")
        for right in ("P", "R")
    ]
    assert _equivalent_on(PQR_SIG, (1, 2), f, q.disj(out))


def test_to_pp_disjunction_keeps_variable_names():
    rng = random.Random(43)
    for _ in range(40):
        f = random_ep_formula(rng, EPQ_SIG)
        for disjunct in q.to_pp_disjunction(f):
            assert q.variable_names(disjunct) <= q.variable_names(f)


def test_disjunct_limit_counts_a_lone_disjunct():
    psi = q.parse_formula("exists x . E(x,x)")
    assert q.to_pp_disjunction(psi, max_disjuncts=1) == [psi]
    with pytest.raises(q.LimitExceeded):
        q.to_pp_disjunction(psi, max_disjuncts=0)
    with pytest.raises(q.LimitExceeded):
        q.m_normalize(psi, max_disjuncts=0)


def test_to_pp_disjunction_rejects_non_ep():
    with pytest.raises(q.FragmentError):
        q.to_pp_disjunction(q.parse_formula("not P(x)"))
    with pytest.raises(q.FragmentError):
        q.to_pp_disjunction(q.parse_formula("P(x)"))


def test_to_pp_disjunction_limit():
    # (P|Q) conjoined five times: 32 disjuncts
    base = q.parse_formula("exists x . ((P(x) | Q(x)) & (P(x) | Q(x)) & (P(x) | Q(x)) & (P(x) | Q(x)) & (P(x) | Q(x)))")
    assert len(q.to_pp_disjunction(base)) == 32
    with pytest.raises(q.LimitExceeded):
        q.to_pp_disjunction(base, max_disjuncts=16)
    # the guard trips exactly past the count, for products and for unions
    assert len(q.to_pp_disjunction(base, max_disjuncts=32)) == 32
    with pytest.raises(q.LimitExceeded):
        q.to_pp_disjunction(base, max_disjuncts=31)
    union = q.parse_formula("exists x . (P(x) | (Q(x) & (P(x) | Q(x))) | Q(x))")
    assert len(q.to_pp_disjunction(union, max_disjuncts=4)) == 4
    with pytest.raises(q.LimitExceeded):
        q.to_pp_disjunction(union, max_disjuncts=3)


def test_m_normalize_absorbs_stronger_disjunct():
    f = q.parse_formula("exists x . (E(x,x) | (exists y . E(x,y)))")
    out = q.m_normalize(f)
    assert out == [q.parse_formula("exists x . exists y . E(x,y)")]
    assert _equivalent_on(
        q.Signature([q.RelationSymbol("E", 2)]), (1, 2), f, q.disj(out)
    )


def test_m_normalize_keeps_incomparable_disjuncts():
    f = q.parse_formula("exists x . (P(x) | Q(x))")
    out = q.m_normalize(f)
    assert len(out) == 2


def test_m_normalize_pp_passthrough():
    psi = q.parse_formula("exists x . E(x,x)")
    assert q.m_normalize(psi) == [psi]


def test_m_normalize_properties_random():
    rng = random.Random(47)
    for _ in range(60):
        f = random_ep_formula(rng, EPQ_SIG)
        kept = q.m_normalize(f)
        assert kept
        assert _equivalent_on(EPQ_SIG, (1, 2), f, q.disj(kept), rng=rng, sample=40)
        for left, right in itertools.combinations(kept, 2):
            assert not q.pp_entails(left, right, signature=EPQ_SIG)
            assert not q.pp_entails(right, left, signature=EPQ_SIG)
        # absorption: every dropped disjunct entails some kept representative
        for disjunct in q.to_pp_disjunction(f):
            assert any(
                q.pp_entails(disjunct, keeper, signature=EPQ_SIG) for keeper in kept
            )


def test_m_normalize_matches_two_phase_reference(monkeypatch):
    # The online filter keeps the same disjuncts as grouping by
    # hom_equivalent first and filtering after, and repeats no search.
    searches = []
    real = homomorphism.find_homomorphism

    def counted(source, target, **kwargs):
        searches.append((id(source), id(target)))
        return real(source, target, **kwargs)

    # hom_equivalent looks the search up in the homomorphism module
    monkeypatch.setattr(normalize, "find_homomorphism", counted)
    monkeypatch.setattr(homomorphism, "find_homomorphism", counted)
    rng = random.Random(83)
    sentences = [random_ep_formula(rng, EPQ_SIG, max_vars=4, max_depth=5) for _ in range(60)]
    for f in sentences + [q.hamiltonian_sentence(2)]:
        expected = two_phase_m_normalize(f)
        searches.clear()
        assert q.m_normalize(f) == expected
        assert len(searches) == len(set(searches))


def test_compile_unary_single_atom():
    f = q.parse_formula("exists x . P(x)")
    out = q.compile_unary(f)
    assert out == q.parse_formula("exists v . P(v)")


def test_compile_unary_absorbs_stronger_disjunct():
    f = q.parse_formula("(exists x . (P(x) & Q(x))) | (exists x . P(x))")
    out = q.compile_unary(f)
    assert out == q.parse_formula("exists v . P(v)")
    assert _equivalent_on(PQ_SIG, (1, 2), f, out)


def test_compile_unary_splits_independent_variables():
    f = q.parse_formula("exists x . exists y . (P(x) & Q(y))")
    out = q.compile_unary(f)
    assert out == q.parse_formula("(exists v . P(v)) & (exists v . Q(v))")
    assert _equivalent_on(PQ_SIG, (1, 2), f, out)


def test_compile_unary_handles_trivial_disjunct():
    f = q.parse_formula("(exists x . P(x)) | (exists y . y = y)")
    out = q.compile_unary(f, signature=PQ_SIG)
    assert _equivalent_on(PQ_SIG, (1, 2), f, out)
    assert q.classify(out).variables == 1


def test_compile_unary_rejects_non_unary_signature():
    with pytest.raises(q.FragmentError):
        q.compile_unary(q.parse_formula("exists x . E(x,x)"))


def _little_sentences(f):
    out = set()

    def walk(g):
        if isinstance(g, q.Exists):
            out.add(g)
            return
        if isinstance(g, (q.And, q.Or)):
            for c in g.children:
                walk(c)

    walk(f)
    return out


def test_compile_unary_random_properties():
    rng = random.Random(53)
    for _ in range(60):
        f = random_ep_formula(rng, PQ_SIG, max_vars=3, max_depth=3)
        out = q.compile_unary(f, signature=PQ_SIG)
        info = q.classify(out)
        assert info.fragment in ("PP", "EP")
        assert info.variables == 1
        assert len(_little_sentences(out)) <= 2 ** len(PQ_SIG)
        assert _equivalent_on(PQ_SIG, (1, 2), f, out)


EIGHT = q.parse_formula(
    "exists x1 . exists x2 . exists x3 . ((E(x1,x2) | P(x3))"
    " & (exists z . (E(x2,z) & E(z,x3)) | E(x3,x1)) & (P(x1) | E(x2,x2)))"
)


def test_m_normalize_builds_one_skeleton_per_disjunct(monkeypatch):
    # A skeleton is built for a flattened disjunct only when the filter
    # searches from it, and kept on it.  The eight disjuncts share no atom,
    # so no skeleton is built for a shared part.
    built = []

    class Counting(homomorphism._Skeleton):
        __slots__ = ()

        def __init__(self, source):
            built.append(source)
            super().__init__(source)

    monkeypatch.setattr(homomorphism, "_Skeleton", Counting)
    assert len(q.m_normalize(EIGHT)) == 5
    assert len(q.to_pp_disjunction(EIGHT)) == 8
    assert len(built) == len({id(s) for s in built}) == 5
    # two disjuncts sharing E(x,y) are not linked: one skeleton each
    built.clear()
    assert len(q.m_normalize(q.parse_formula("exists x . exists y . (E(x,y) & (P(x) | Q(y)))"))) == 2
    assert len(built) == len({id(s) for s in built}) == 2
    assert [sum(map(len, s.relations.values())) for s in built] == [2, 2]


@pytest.mark.time_limit(30)
def test_m_normalize_search_counts(monkeypatch):
    # The filter tests a new disjunct against each kept one, and each kept
    # one against it only when it entails none of them.  Every disjunct of
    # H_n is kept, so H_n takes N(N - 1) searches for its N = n^n disjuncts.
    # Every search between two Hamiltonian disjuncts is refuted by a
    # loose-atom key before any search node: each successor edge's key is
    # supported only by the disjunct that holds it.  The only nodes are the
    # probes of the one family root: 8 on H_2, 16 on H_3 and 27 on H_4.
    searches = []
    real = normalize.find_homomorphism

    def counted(source, target, **kwargs):
        searches.append((id(source), id(target)))
        return real(source, target, **kwargs)

    monkeypatch.setattr(normalize, "find_homomorphism", counted)
    for phi, count, nodes in ((q.hamiltonian_sentence(2), 12, 8),
                              (q.hamiltonian_sentence(3), 702, 16),
                              (q.hamiltonian_sentence(4), 65280, 27),
                              (EIGHT, 26, 3)):
        stats = q.SearchStats()
        searches.clear()
        members = q.m_normalize(phi, stats=stats)
        assert (len(searches), stats.nodes) == (count, nodes)
        if phi is not EIGHT:
            # no two Hamiltonian disjuncts entail each other, so all are kept
            assert members == q.to_pp_disjunction(phi)


def _pattern_sentences(seed, count):
    # the ``compile`` workload's pattern-union sentences, as its set-up renders them
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = workloads._rng("compile", seed, "sentences")
    return [q.parse_formula(q.render(workloads._pattern_union(rng))) for _ in range(count)]


def _family_with_repeats(rng):
    # A shared body over x, y, z and a disjunction of literals, some of
    # whose tuples repeat a value (loops, P and Q on one variable, a loop
    # through a fresh variable) where others do not, so a target often
    # holds a tuple that repeats where a source's loose tuple does not.
    xs = ["x", "y", "z"]

    def atom():
        sym = rng.choice(["E", "E", "E", "P", "Q"])
        if sym == "E":
            a = rng.choice(xs)
            return q.Atom("E", (a, a if rng.random() < 0.4 else rng.choice(xs)))
        return q.Atom(sym, (rng.choice(xs),))

    def literal():
        if rng.random() < 0.25:
            a = rng.choice(xs)
            args = rng.choice([("u", "u"), (a, "u"), ("u", a)])
            return q.Exists("u", q.conj([q.Atom("E", args)] + [atom()] * (rng.random() < 0.3)))
        return atom()

    body = [atom() for _ in range(rng.randint(1, 3))]
    clauses = [q.disj([literal() for _ in range(rng.randint(2, 3))]) for _ in range(rng.randint(1, 2))]
    phi = q.conj(body + clauses)
    for x in reversed(xs):
        phi = q.Exists(x, phi)
    return phi


def _check_key_refutations(phi, counts):
    # Every ordered pair of linked disjuncts that the loose-atom keys refute
    # has no homomorphism by the plain, unlinked search; and m_normalize
    # keeps what the two-phase reference keeps.
    disjuncts = q.to_pp_disjunction(phi)
    signature = q.formula_signature(phi)
    linked = [_structure_and_unions(d, signature)[0] for d in disjuncts]
    plain = [_structure_and_unions(d, signature)[0] for d in disjuncts]
    homomorphism._link_shared(linked)
    if "_shared" in linked[0].__dict__:
        held = linked[0].__dict__["_shared"].relations
        for i, j in itertools.permutations(range(len(disjuncts)), 2):
            found = q.find_homomorphism(plain[j], plain[i])
            refuted = homomorphism._keyed_out(linked[j], linked[i], homomorphism._Budget(None, MAX_NODES))
            assert not (refuted and found), (phi, i, j)
            counts["pairs"] += 1
            counts["refuted"] += refuted
            # a loose tuple that the map sends onto a tuple with fewer distinct values
            counts["collapsed"] += found is not None and any(
                len({found.mapping[x] for x in t}) < len(set(t))
                for name, tuples in plain[j].relations.items() for t in tuples if t not in held[name])
    assert q.m_normalize(phi) == two_phase_m_normalize(phi)


@pytest.mark.time_limit(120)
def test_key_refutations_agree_with_the_plain_search():
    rng = random.Random(53)
    groups = {
        "random": [_family_with_repeats(rng) for _ in range(60)],
        "compile": _pattern_sentences(1, 80),
        "hamiltonian": [q.hamiltonian_sentence(2), q.hamiltonian_sentence(3)],
    }
    for name, sentences in groups.items():
        counts = collections.Counter()
        for phi in sentences:
            _check_key_refutations(phi, counts)
        assert counts["refuted"] > 0, name
        if name == "random":
            assert counts["collapsed"] > 20 and counts["pairs"] > counts["refuted"]
        if name == "hamiltonian":
            assert counts["refuted"] == counts["pairs"] == 12 + 702
