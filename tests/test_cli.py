import json

import pytest

import epquery as q
from epquery.cli import main
from helpers import digraph, path_digraph

LOOP = "signature E/2\nuniverse a\ntuple E a a\n"
EDGE = "signature E/2\nuniverse a b\ntuple E a b\n"
K4_EDGES = "\n".join(
    f"tuple E v{i} v{j}" for i in range(4) for j in range(4) if i != j
)
K4 = "signature E/2\nuniverse v0 v1 v2 v3\n" + K4_EDGES + "\n"
UNSAT_CNF = "p cnf 1 2\n1 0\n-1 0\n"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_true_exit_zero(tmp_path, capsys):
    (tmp_path / "s.epq").write_text("exists x . E(x,x)")
    (tmp_path / "b.str").write_text(LOOP)
    code, out, _ = _run(
        capsys,
        ["eval", "--sentence", str(tmp_path / "s.epq"), "--structure", str(tmp_path / "b.str"),
         "--strategy", "naive"],
    )
    assert code == 0
    assert out.strip() == "true"


def test_eval_false_exit_one(tmp_path, capsys):
    (tmp_path / "s.epq").write_text("exists x . E(x,x)")
    (tmp_path / "b.str").write_text(EDGE)
    for strategy in ("naive", "kvar", "dnf-hom", "pp-reduction"):
        code, out, _ = _run(
            capsys,
            ["eval", "--sentence", str(tmp_path / "s.epq"),
             "--structure", str(tmp_path / "b.str"), "--strategy", strategy],
        )
        assert code == 1
        assert out.strip() == "false"


def test_eval_error_exit_two(tmp_path, capsys):
    (tmp_path / "s.epq").write_text("exists x . P(x)")
    (tmp_path / "b.str").write_text(LOOP)
    code, _, err = _run(
        capsys,
        ["eval", "--sentence", str(tmp_path / "s.epq"), "--structure", str(tmp_path / "b.str")],
    )
    assert code == 2
    assert "error" in err


def test_eval_json_record(tmp_path, capsys):
    (tmp_path / "s.epq").write_text("exists x . E(x,x)")
    (tmp_path / "b.str").write_text(LOOP)
    code, out, _ = _run(
        capsys,
        ["eval", "--sentence", str(tmp_path / "s.epq"), "--structure", str(tmp_path / "b.str"),
         "--strategy", "dnf-hom", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "eval"
    assert record["verdict"] is True
    assert record["limits-hit"] == []
    assert "nodes-searched" in record["stats"]


def test_eval_kvar_json_reports_its_joins(tmp_path, capsys):
    text = "exists x . exists y . exists z . (E(x,y) & E(y,z) & E(z,x))"
    (tmp_path / "s.epq").write_text(text)
    (tmp_path / "b.str").write_text(K4)
    code, out, _ = _run(
        capsys,
        ["eval", "--sentence", str(tmp_path / "s.epq"), "--structure", str(tmp_path / "b.str"),
         "--strategy", "kvar", "--format", "json"],
    )
    assert code == 0
    stats = {}
    assert q.eval_kvar(q.parse_formula(text), q.parse_structure(K4), 3, stats=stats)
    assert json.loads(out)["stats"] == stats
    assert set(stats) == {"joins", "rows_max", "max_arity"} and stats["joins"] > 0


def test_treewidth_k4(tmp_path, capsys):
    (tmp_path / "k4.str").write_text(K4)
    code, out, _ = _run(capsys, ["treewidth", "--structure", str(tmp_path / "k4.str")])
    assert code == 0
    assert out.strip() == "3"


def test_search_crash_is_an_error_not_a_verdict(tmp_path, capsys):
    # 1,200 disjoint edges into a symmetric K2: the search goes one level
    # deeper per edge, past the interpreter's default recursion limit, and
    # must still answer with a witness
    edges = "".join(f"tuple E a{i} b{i}\n" for i in range(1200))
    universe = " ".join(f"a{i} b{i}" for i in range(1200))
    (tmp_path / "a.str").write_text(f"signature E/2\nuniverse {universe}\n{edges}")
    (tmp_path / "k2.str").write_text("signature E/2\nuniverse x y\ntuple E x y\ntuple E y x\n")
    code, out, _ = _run(
        capsys,
        ["hom", "--source", str(tmp_path / "a.str"), "--target", str(tmp_path / "k2.str"),
         "--format", "json"],
    )
    record = json.loads(out)
    assert code == 0
    source = q.parse_structure((tmp_path / "a.str").read_text())
    target = q.parse_structure((tmp_path / "k2.str").read_text())
    assert q.verify_homomorphism(q.Homomorphism(source, target, record["result"]))


def test_treewidth_witness_validates(tmp_path, capsys):
    (tmp_path / "k4.str").write_text(K4)
    code, out, _ = _run(
        capsys, ["treewidth", "--structure", str(tmp_path / "k4.str"), "--witness"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    witness = q.parse_decomposition("\n".join(lines[1:]))
    assert q.validate_decomposition(q.parse_structure(K4), witness)


def test_reduce_sat_then_eval_bundle(tmp_path, capsys):
    (tmp_path / "unsat.cnf").write_text(UNSAT_CNF)
    bundle = tmp_path / "bundle"
    code, out, _ = _run(
        capsys,
        ["reduce", "sat", "--cnf", str(tmp_path / "unsat.cnf"), "--mode", "unary",
         "--out", str(bundle)],
    )
    assert code == 0
    assert (bundle / "sentence.epq").exists()
    assert (bundle / "structure.str").exists()
    code, out, _ = _run(capsys, ["eval", "--bundle", str(bundle), "--strategy", "dnf-hom"])
    assert code == 1
    assert out.strip() == "false"


def test_reduce_ham_bundle(tmp_path, capsys):
    (tmp_path / "c3.str").write_text(
        "signature E/2\nuniverse a b c\ntuple E a b\ntuple E b c\ntuple E c a\n"
    )
    bundle = tmp_path / "ham"
    code, _, _ = _run(
        capsys, ["reduce", "ham", "--digraph", str(tmp_path / "c3.str"), "--out", str(bundle)]
    )
    assert code == 0
    code, out, _ = _run(capsys, ["eval", "--bundle", str(bundle), "--strategy", "dnf-hom"])
    assert code == 0


def test_reduce_without_its_input_file_is_an_error(tmp_path, capsys):
    for what, flag in (("ham", "--digraph"), ("sat", "--cnf")):
        code, out, err = _run(
            capsys, ["reduce", what, "--out", str(tmp_path / what), "--format", "json"]
        )
        assert code == 2
        assert json.loads(out)["error"] == f"reduce {what} needs {flag}"
        assert "Traceback" not in err


def test_hom_witness_and_exit_codes(tmp_path, capsys):
    (tmp_path / "edge.str").write_text(EDGE)
    (tmp_path / "loop.str").write_text(LOOP)
    code, out, _ = _run(
        capsys, ["hom", "--source", str(tmp_path / "edge.str"), "--target", str(tmp_path / "loop.str")]
    )
    assert code == 0
    assert "a -> a" in out
    code, out, _ = _run(
        capsys, ["hom", "--source", str(tmp_path / "loop.str"), "--target", str(tmp_path / "edge.str")]
    )
    assert code == 1
    assert out.strip() == "none"


def test_core_command(tmp_path, capsys):
    (tmp_path / "tail.str").write_text("signature E/2\nuniverse a b\ntuple E a b\ntuple E b b\n")
    code, out, _ = _run(capsys, ["core", "--structure", str(tmp_path / "tail.str")])
    assert code == 0
    assert q.parse_structure(out).universe == ("b",)


def test_core_node_limit_and_count(tmp_path, capsys):
    # Six disjoint directed triangles: each removal test searches nodes.
    triangles = digraph(
        [f"t{i}_{j}" for i in range(6) for j in range(3)],
        {(f"t{i}_{j}", f"t{i}_{(j + 1) % 3}") for i in range(6) for j in range(3)},
    )
    (tmp_path / "six.str").write_text(q.format_structure(triangles))
    argv = ["core", "--structure", str(tmp_path / "six.str"), "--format", "json"]
    code, out, _ = _run(capsys, argv + ["--max-nodes", "0"])
    assert code == 2
    assert json.loads(out)["limits-hit"] == ["homomorphism search nodes"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    stats = q.SearchStats()
    small = q.core(triangles, stats=stats)
    record = json.loads(out)
    assert q.parse_structure(record["result"]) == small
    assert record["stats"]["nodes-searched"] == stats.nodes > 0


def test_canonical_query_and_pp_structure_round_trip(tmp_path, capsys):
    (tmp_path / "loop.str").write_text(LOOP)
    code, out, _ = _run(capsys, ["canonical-query", "--structure", str(tmp_path / "loop.str")])
    assert code == 0
    (tmp_path / "q.epq").write_text(out)
    code, out, _ = _run(capsys, ["pp-structure", "--sentence", str(tmp_path / "q.epq")])
    assert code == 0
    rebuilt = q.parse_structure(out)
    assert len(rebuilt.universe) == 1
    assert len(rebuilt.relations["E"]) == 1


def test_normalize_command(tmp_path, capsys):
    (tmp_path / "s.epq").write_text("exists x . (E(x,x) | (exists y . E(x,y)))")
    code, out, _ = _run(capsys, ["normalize", "--sentence", str(tmp_path / "s.epq")])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["exists x . exists y . E(x,y)"]


def test_compile_unary_command(tmp_path, capsys):
    (tmp_path / "s.epq").write_text("exists x . exists y . (P(x) & Q(y))")
    code, out, _ = _run(capsys, ["compile-unary", "--sentence", str(tmp_path / "s.epq")])
    assert code == 0
    assert out.strip() == "(exists v . P(v)) & (exists v . Q(v))"


def test_gadget_and_hn_commands(tmp_path, capsys):
    (tmp_path / "lab.str").write_text(
        "signature E/2 L1/1\nuniverse b\ntuple L1 b\n"
    )
    code, out, _ = _run(capsys, ["gadget", "star", "--structure", str(tmp_path / "lab.str")])
    assert code == 0
    star = q.parse_structure(out)
    assert len(star.universe) == 8

    code, out, _ = _run(capsys, ["hn", "--n", "2"])
    assert code == 0
    sentence = q.parse_formula(out.strip())
    assert q.classify(sentence).variables == 20

    code, out, _ = _run(capsys, ["hn", "--n", "2", "--ep6"])
    assert code == 0
    assert q.classify(q.parse_formula(out.strip())).variables <= 6


def test_gdnf_product_command(tmp_path, capsys):
    (tmp_path / "left.gdnf").write_text("arity 2\nuniverse a b c\nblock {a b} {c}\n")
    (tmp_path / "right.gdnf").write_text("arity 2\nuniverse x y z\nblock {x} {y z}\n")
    code, out, _ = _run(
        capsys,
        ["gdnf", "product", "--left", str(tmp_path / "left.gdnf"),
         "--right", str(tmp_path / "right.gdnf")],
    )
    assert code == 0
    combined = q.parse_gdnf(out)
    assert len(combined.blocks) == 1
    assert q.gdnf_to_explicit(combined) == {
        (q.pair_token("a", "x"), q.pair_token("c", "y")),
        (q.pair_token("a", "x"), q.pair_token("c", "z")),
        (q.pair_token("b", "x"), q.pair_token("c", "y")),
        (q.pair_token("b", "x"), q.pair_token("c", "z")),
    }


def test_output_is_deterministic(tmp_path, capsys):
    (tmp_path / "s.epq").write_text("exists x . (E(x,x) | (exists y . E(x,y)))")
    argv = ["normalize", "--sentence", str(tmp_path / "s.epq"), "--format", "json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_limit_flag_and_env(tmp_path, capsys, monkeypatch):
    (tmp_path / "a.str").write_text("signature E/2\nuniverse a b\n")
    (tmp_path / "b.str").write_text("signature E/2\nuniverse x y\n")
    code, out, err = _run(
        capsys,
        ["hom", "--source", str(tmp_path / "a.str"), "--target", str(tmp_path / "b.str"),
         "--max-nodes", "0", "--format", "json"],
    )
    assert code == 2
    record = json.loads(out)
    assert record["limits-hit"] == ["homomorphism search nodes"]

    monkeypatch.setenv("EPQ_MAX_NODES", "0")
    code, _, err = _run(
        capsys,
        ["hom", "--source", str(tmp_path / "a.str"), "--target", str(tmp_path / "b.str")],
    )
    assert code == 2
    assert "limit" in err


def test_eval_row_and_work_limits(tmp_path, capsys, monkeypatch):
    # P(x) & P(y) over four elements joins into 16 rows; naive estimates 4 ** 2
    (tmp_path / "s.epq").write_text("exists x . exists y . (P(x) & P(y))\n")
    (tmp_path / "b.str").write_text(
        "signature P/1\nuniverse a b c d\n" + "".join(f"tuple P {x}\n" for x in "abcd"))
    files = ["--sentence", str(tmp_path / "s.epq"), "--structure", str(tmp_path / "b.str")]
    for flags, guard in (
        (["--strategy", "kvar", "--max-rows", "10"], "bounded-variable relation size"),
        (["--strategy", "naive", "--max-work", "1"], "naive evaluation work estimate"),
    ):
        code, out, err = _run(capsys, ["eval", *files, *flags, "--format", "json"])
        assert code == 2 and "Traceback" not in err
        assert json.loads(out)["limits-hit"] == [guard]
    for strategy in ("kvar", "naive"):
        assert _run(capsys, ["eval", *files, "--strategy", strategy])[0] == 0
    monkeypatch.setenv("EPQ_MAX_ROWS", "10")
    monkeypatch.setenv("EPQ_MAX_WORK", "1")
    for strategy in ("kvar", "naive"):
        code, _, err = _run(capsys, ["eval", *files, "--strategy", strategy])
        assert code == 2 and "limit" in err and "Traceback" not in err


@pytest.mark.time_limit(30)
def test_deep_path_queries_need_no_recursion(tmp_path, capsys):
    # A 1,500-element directed path: its canonical query nests 1,500
    # quantifiers, and its 2-variable form nests 1,500 parenthesised
    # conjunctions, both past the interpreter's default recursion limit.
    (tmp_path / "p.str").write_text(q.format_structure(path_digraph(1500)))
    path = q.parse_structure((tmp_path / "p.str").read_text())
    (tmp_path / "k2.str").write_text("signature E/2\nuniverse x y\ntuple E x y\ntuple E y x\n")
    code, out, _ = _run(capsys, ["canonical-query", "--structure", str(tmp_path / "p.str")])
    assert code == 0
    assert q.parse_formula(out) == q.canonical_query(path)
    (tmp_path / "cq.epq").write_text(out)
    code, out, _ = _run(
        capsys,
        ["eval", "--sentence", str(tmp_path / "cq.epq"), "--structure", str(tmp_path / "k2.str"),
         "--strategy", "dnf-hom"],
    )
    assert (code, out.strip()) == (0, "true")

    narrow = q.pp_from_decomposition(path, q.treewidth_upper(path)[1], 2)
    text = q.render(narrow)
    assert q.parse_formula(text) == narrow
    (tmp_path / "narrow.epq").write_text(text + "\n")
    for strategy in (["kvar", "--k", "2"], ["naive"]):
        code, out, _ = _run(
            capsys,
            ["eval", "--sentence", str(tmp_path / "narrow.epq"),
             "--structure", str(tmp_path / "k2.str"), "--strategy", *strategy],
        )
        assert (code, out.strip()) == (0, "true")
