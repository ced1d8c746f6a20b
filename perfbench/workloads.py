"""The three benchmark workloads: seeded set-up, one instance run, and oracles.

``setup`` writes every input a workload reads into a directory, together
with ``manifest.json`` listing the instances of one pass.  ``run_instance``
executes one instance through the package's public entry points.  ``check``
runs an independent oracle on the first outcome of each instance, outside
the timed phase.  Only set-up sees the seed; the timed phase sees only the
files.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import epquery
import epquery.cli
from epquery.formulas import And, Atom, Equality, Exists, Or
from epquery.structures import Structure, digraph_signature

# Unary-mode kvar grows about 2.3x per variable (0.2 s at 10, 7.7 s at 14);
# 11 keeps it near 1 s when run through the CLI.
SAT_VARIABLES = 11
# Ten 3-vertex instances put the median verdict time inside their cluster
# (about 0.1-0.25 s) rather than on the edge between them and the SAT bundles.
HAM3_PER_VERDICT = 5
SAT_RATIO = 4.26
GRID_COLUMNS = 10
GRID_SIZES = (30, 45, 60, 75, 90, 105, 120)
GRID_PLANTED = (45, 75, 105)
GRID_OUT_DEGREES = (4, 3)
PATTERN_SENTENCES = 80
PATTERN_VARIABLES = 4
PATTERN_CLAUSES = 4
TREEWIDTH_GRIDS = ((3, 5), (4, 4))
# treewidth_exact's subset DP has 2**n states; larger cores get the min-fill bound.
EXACT_TREEWIDTH_MAX = 20


def _rng(workload, seed, label):
    return random.Random(f"{workload}:{seed}:{label}")


def _digraph(names, edges):
    return Structure(digraph_signature(), tuple(names), {"E": set(edges)})


def _write(path, text):
    Path(path).write_text(text, encoding="utf-8")
    return str(path)


def _cli(argv):
    """Run the CLI in-process; return (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = epquery.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


# --------------------------------------------------------------- reductions

def _ham_digraph(rng, n, hamiltonian):
    """Seeded n-vertex digraph whose Hamiltonicity is fixed by construction.

    A true digraph contains a random directed n-cycle; a false one has a
    vertex that no other vertex enters.
    """
    names = [f"a{i}" for i in range(n)]
    edges = {(u, v) for u in names for v in names if rng.random() < 0.35}
    if hamiltonian:
        order = names[:]
        rng.shuffle(order)
        edges |= {(order[i], order[(i + 1) % n]) for i in range(n)}
    else:
        sink = rng.choice(names)
        edges = {(u, v) for u, v in edges if v != sink or u == sink}
    return _digraph(names, edges)


def _cnf(rng, n, m, satisfiable):
    """Seeded 3-CNF with n variables and m clauses, verdict fixed by construction.

    A satisfiable CNF only has clauses that a hidden assignment satisfies; an
    unsatisfiable one contains all eight sign patterns over three variables.
    """
    clauses = []
    if satisfiable:
        hidden = {v: rng.random() < 0.5 for v in range(1, n + 1)}
    else:
        core = rng.sample(range(1, n + 1), 3)
        for signs in itertools.product((1, -1), repeat=3):
            clauses.append(tuple(s * v for s, v in zip(signs, core)))
    while len(clauses) < m:
        clause = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        if satisfiable and not any((lit > 0) == hidden[abs(lit)] for lit in clause):
            continue
        clauses.append(clause)
    rng.shuffle(clauses)
    lines = [f"p cnf {n} {len(clauses)}"] + [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _setup_reductions(seed, root):
    rng = _rng("reductions", seed, "instances")
    # The 4-vertex digraphs are fixed: which 4-cycle a true digraph holds moves
    # its time between 1.8 s and 5.6 s, which would make the seed, not the
    # code, the main source of spread.  Both have |B| = 224 and 256 disjuncts.
    path = [("a0", "a1"), ("a1", "a2"), ("a2", "a3")]
    names4 = [f"a{i}" for i in range(4)]
    digraphs = [
        ("ham4-pathloop", _digraph(names4, path + [("a3", "a3")]), None),
        ("ham4-cycle", _digraph(names4, path + [("a3", "a0")]), None),
        ("ham3-true-lift3", _ham_digraph(rng, 3, True), 3),
    ]
    for i in range(HAM3_PER_VERDICT - 1):
        digraphs.append((f"ham3-true{i}", _ham_digraph(rng, 3, True), None))
    for i in range(HAM3_PER_VERDICT):
        digraphs.append((f"ham3-false{i}", _ham_digraph(rng, 3, False), None))
    instances = []
    for name, graph, lift in digraphs:
        graph_path = _write(root / f"{name}.str", epquery.format_structure(graph))
        bundle = root / name
        argv = ["reduce", "ham", "--digraph", graph_path, "--out", str(bundle)]
        if lift:
            argv += ["--lift-arity", str(lift)]
        if _cli(argv)[0] != 0:
            raise RuntimeError(f"epquery reduce failed for {name}")
        instances.append({
            "id": name, "oracle": {"hamiltonian": graph_path},
            "argv": ["eval", "--bundle", str(bundle), "--strategy", "dnf-hom", "--format", "json"],
        })
    m = round(SAT_RATIO * SAT_VARIABLES)
    for name, satisfiable in (("sat", True), ("unsat", False)):
        cnf_path = _write(root / f"{name}.cnf", _cnf(rng, SAT_VARIABLES, m, satisfiable))
        for mode in ("two-symbols", "single-symbol:3", "unary"):
            bundle = root / f"{name}-{mode.replace(':', '')}"
            if _cli(["reduce", "sat", "--cnf", cnf_path, "--mode", mode,
                     "--out", str(bundle)])[0] != 0:
                raise RuntimeError(f"epquery reduce failed for {bundle.name}")
            for strategy in ("naive", "kvar"):
                instances.append({
                    "id": f"{bundle.name}-{strategy}", "oracle": {"cnf": cnf_path},
                    "argv": ["eval", "--bundle", str(bundle), "--strategy", strategy,
                             "--format", "json"],
                })
    return instances


def _cnf_satisfiable(path):
    """Enumerate all assignments of a DIMACS file written by ``_cnf``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    n = int(lines[0].split()[2])
    clauses = [[int(tok) for tok in line.split()[:-1]] for line in lines[1:]]
    masks = [(sum(1 << (l - 1) for l in c if l > 0), sum(1 << (-l - 1) for l in c if l < 0))
             for c in clauses]
    full = (1 << n) - 1
    return any(all((a & pos) or (~a & full & neg) for pos, neg in masks)
               for a in range(1 << n))


# --------------------------------------------------------------------- grid

def triangulated_grid(rows, columns):
    """Digraph on a rows x columns grid with right, down and diagonal edges."""
    names = [f"g{r}_{c}" for r in range(rows) for c in range(columns)]
    edges = set()
    for r in range(rows):
        for c in range(columns):
            if c + 1 < columns:
                edges.add((f"g{r}_{c}", f"g{r}_{c + 1}"))
            if r + 1 < rows:
                edges.add((f"g{r}_{c}", f"g{r + 1}_{c}"))
                if c + 1 < columns:
                    edges.add((f"g{r}_{c}", f"g{r + 1}_{c + 1}"))
    return _digraph(names, edges)


def _grid_target(rng, n, planted):
    """Sparse random digraph whose vertices have 3 or 4 random out-neighbours.

    Fixed out-degrees keep the search cost of a false target within a few
    per cent across seeds (a G(n, m) digraph varies by about 15 %).  A
    planted target also holds the homomorphic image of the 3 x c grid
    (i -> i+1 and i -> i+2 on c+2 vertices) on the vertices that come first
    in its universe order, so the query is true and the search meets the
    image early.
    """
    names = [f"b{i}" for i in range(n)]
    edges = set()
    for i, u in enumerate(names):
        degree = GRID_OUT_DEGREES[i % len(GRID_OUT_DEGREES)]
        edges |= {(u, v) for v in rng.sample([v for v in names if v != u], degree)}
    if planted:
        image = sorted(names)[:GRID_COLUMNS + 2]
        edges |= {(image[i], image[i + 1]) for i in range(len(image) - 1)}
        edges |= {(image[i], image[i + 2]) for i in range(len(image) - 2)}
    return _digraph(names, edges)


def _setup_grid(seed, root):
    grid = triangulated_grid(3, GRID_COLUMNS)
    grid_path = _write(root / "grid.str", epquery.format_structure(grid))
    query = _write(root / "query.epq", epquery.render(epquery.canonical_query(grid)) + "\n")
    width, decomposition = epquery.treewidth_upper(grid)
    k = width + 1
    kvar = _write(root / f"query_k{k}.epq",
                  epquery.render(epquery.pp_from_decomposition(grid, decomposition, k)) + "\n")
    rng = _rng("grid", seed, "targets")
    instances = []
    for n in GRID_SIZES:
        target = _write(root / f"b{n}.str",
                        epquery.format_structure(_grid_target(rng, n, n in GRID_PLANTED)))
        for leg, sentence, extra in (("dnf-hom", query, []), ("kvar", kvar, ["--k", str(k)])):
            instances.append({
                "id": f"b{n}-{leg}", "oracle": {"target": target, "grid": grid_path},
                "argv": ["eval", "--sentence", sentence, "--structure", target,
                         "--strategy", leg, "--format", "json"] + extra,
            })
    return instances


# ------------------------------------------------------------------ compile

def _pattern_union(rng):
    """exists x1..x4 . AND of 4 two-literal disjunctions (16 disjuncts) whose
    literals are E atoms, 2-paths through a fresh variable, and P atoms.

    A fixed shape keeps the median time per sentence close across seeds.
    """
    xs = [f"x{i}" for i in range(1, PATTERN_VARIABLES + 1)]
    fresh = itertools.count(1)

    def literal():
        kind = rng.random()
        a, b = rng.choice(xs), rng.choice(xs)
        if kind < 0.45:
            return Atom("E", (a, b))
        if kind < 0.8:
            z = f"z{next(fresh)}"
            return Exists(z, epquery.conj([Atom("E", (a, z)), Atom("E", (z, b))]))
        return Atom("P", (a,))

    clauses = [epquery.disj([literal(), literal()]) for _ in range(PATTERN_CLAUSES)]
    body = epquery.conj(clauses)
    for x in reversed(xs):
        body = Exists(x, body)
    return body


def _setup_compile(seed, root):
    rng = _rng("compile", seed, "sentences")
    instances = []
    for i in range(PATTERN_SENTENCES):
        path = _write(root / f"p{i}.epq", epquery.render(_pattern_union(rng)) + "\n")
        instances.append({"id": f"p{i}", "kind": "normalize", "sentence": path,
                          "oracle": {"worlds": 4}})
    path = _write(root / "ham3.epq", epquery.render(epquery.hamiltonian_sentence(3)) + "\n")
    instances.append({"id": "ham3", "kind": "normalize", "sentence": path,
                      "oracle": {"hamiltonian": 3}})
    for rows, columns in TREEWIDTH_GRIDS:
        path = _write(root / f"tgrid{rows}x{columns}.str",
                      epquery.format_structure(triangulated_grid(rows, columns)))
        instances.append({"id": f"tgrid{rows}x{columns}", "kind": "treewidth",
                          "structure": path, "oracle": {"width": min(rows, columns)}})
    return instances


def _run_compile(instance):
    if instance["kind"] == "treewidth":
        structure = _load_structure(instance["structure"])
        width, decomposition = epquery.treewidth_exact(structure)
        return {"structure": structure, "width": width, "decomposition": decomposition}
    phi = epquery.parse_formula(Path(instance["sentence"]).read_text(encoding="utf-8"))
    signature = epquery.formula_signature(phi)
    kept = epquery.m_normalize(phi)
    compiled = []
    for disjunct in kept:
        structure = epquery.structure_of_pp(disjunct, signature)
        # core's default guard is 24 elements; the Hamiltonian disjuncts have 36.
        small = epquery.core(structure, max_universe=len(structure.universe))
        if len(small.universe) <= EXACT_TREEWIDTH_MAX:
            width, decomposition = epquery.treewidth_exact(small)
        else:
            width, decomposition = epquery.treewidth_upper(small)
        pp = epquery.pp_from_decomposition(small, decomposition, width + 1)
        compiled.append((structure, small, width, decomposition, pp))
    return {"phi": phi, "signature": signature, "kept": kept, "compiled": compiled}


# ------------------------------------------------------------- entry points

def setup(workload, seed, directory):
    """Write the inputs of one pass and their ``manifest.json`` into ``directory``."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    build = {"reductions": _setup_reductions, "grid": _setup_grid,
             "compile": _setup_compile}[workload]
    manifest = {"workload": workload, "seed": seed, "instances": build(seed, root)}
    _write(root / "manifest.json", json.dumps(manifest, indent=1))


def run_instance(instance):
    """One closed-loop request; returns its outcome (raises on a crash)."""
    if "argv" in instance:
        code, out = _cli(instance["argv"])
        record = json.loads(out) if out.strip() else {}
        return {"code": code, "verdict": record.get("verdict")}
    return _run_compile(instance)


def failed(outcome):
    """An outcome that is no verdict: exit 2 (errors and LimitExceeded)."""
    return "code" in outcome and outcome["code"] not in (0, 1)


def digest(outcome):
    """Small value that two equal outcomes share; later passes keep only this."""
    if "code" in outcome:
        return outcome["code"], outcome["verdict"]
    if "width" in outcome:
        return outcome["width"], epquery.format_decomposition(outcome["decomposition"])
    return tuple(epquery.render(d) for d in outcome["kept"]) + tuple(
        (width, epquery.render(pp)) for _, _, width, _, pp in outcome["compiled"])


def _verdict_of(outcome):
    """The verdict of a CLI outcome, or None when exit code and record disagree."""
    verdict = outcome["code"] == 0
    return verdict if outcome["verdict"] is verdict else None


def check(workload, seed, instances, firsts):
    """Oracle verdict on the first non-failed outcome of each instance.

    Returns one flag per instance (None where every run failed) and notes on
    each mismatch.
    """
    notes = []
    truth = {}
    if workload == "grid":
        legs = {}
        for inst, first in zip(instances, firsts):
            if first is not None:
                legs.setdefault(inst["oracle"]["target"], set()).add(_verdict_of(first))
        for target, verdicts in legs.items():
            if verdicts == {False}:
                truth[target] = False  # dnf-hom and kvar agree
                continue
            grid = next(i["oracle"]["grid"] for i in instances if i["oracle"]["target"] == target)
            code, out = _cli(["hom", "--source", grid, "--target", target, "--format", "json"])
            truth[target] = code == 0 and epquery.verify_homomorphism(epquery.Homomorphism(
                _load_structure(grid), _load_structure(target), json.loads(out)["result"]))
            if code == 0 and not truth[target]:
                notes.append(f"the epquery hom witness for {Path(target).name} does not verify")
    flags = []
    for inst, first in zip(instances, firsts):
        if first is None:
            flags.append(None)
            continue
        oracle = inst["oracle"]
        if "code" not in first:
            ok = _check_compile(seed, inst, first)
        elif workload == "grid":
            ok = _verdict_of(first) == truth[oracle["target"]]
        elif "hamiltonian" in oracle:
            ok = _verdict_of(first) == epquery.brute_force_hamiltonian(
                _load_structure(oracle["hamiltonian"]))
        else:
            ok = _verdict_of(first) == _cnf_satisfiable(oracle["cnf"])
        if not ok:
            notes.append(f"wrong outcome on {inst['id']}")
        flags.append(ok)
    return flags, notes


def _load_structure(path):
    return epquery.parse_structure(Path(path).read_text(encoding="utf-8"))


def _check_compile(seed, inst, out):
    if "width" in out:
        return (out["width"] == inst["oracle"]["width"]
                and out["decomposition"].width() == out["width"]
                and epquery.validate_decomposition(out["structure"], out["decomposition"]))
    for structure, small, width, decomposition, pp in out["compiled"]:
        if not (set(small.universe) <= set(structure.universe)
                and epquery.hom_equivalent(small, structure)
                and epquery.validate_decomposition(small, decomposition)
                and decomposition.width() == width
                and epquery.hom_equivalent(epquery.structure_of_pp(pp, out["signature"]), small)):
            return False
    union = epquery.disj(out["kept"])
    if "hamiltonian" in inst["oracle"]:
        n = inst["oracle"]["hamiltonian"]
        rng = _rng("compile", seed, "oracle-ham")
        for hamiltonian in (True, False):
            graph = _ham_digraph(rng, n, hamiltonian)
            world = epquery.reduce_hamiltonian(graph).structure
            if epquery.eval_dnf_hom(union, world) != epquery.brute_force_hamiltonian(graph):
                return False
        return True
    rng = _rng("compile", seed, f"oracle-{inst['id']}")
    for _ in range(inst["oracle"]["worlds"]):
        world = _random_world(rng, out["signature"], 3)
        if epquery.eval_naive(out["phi"], world) != epquery.eval_naive(union, world):
            return False
    return True


def _random_world(rng, signature, size):
    names = tuple(f"w{i}" for i in range(size))
    relations = {}
    for sym in signature:
        rows = itertools.product(names, repeat=sym.arity)
        relations[sym.name] = {row for row in rows if rng.random() < 0.4}
    return Structure(signature, names, relations)


# ---------------------------------------------------------------- properties

def _disjunct_count(f):
    if isinstance(f, (Atom, Equality)):
        return 1
    if isinstance(f, Or):
        return sum(_disjunct_count(c) for c in f.children)
    if isinstance(f, And):
        count = 1
        for c in f.children:
            count *= _disjunct_count(c)
        return count
    return _disjunct_count(f.child)


def _first_disjunct(f):
    if isinstance(f, (Atom, Equality)):
        return f
    if isinstance(f, Or):
        return _first_disjunct(f.children[0])
    if isinstance(f, And):
        return epquery.conj([_first_disjunct(c) for c in f.children])
    return Exists(f.var, _first_disjunct(f.child))


def properties(instance, outcome):
    """|B|, disjunct count, variable count and width of one instance, where
    they apply.

    Width is the min-fill bound on the first disjunct's structure for
    evaluation instances, and the largest width over the compiled cores (or
    of the structure) for compile instances.
    """
    if "argv" in instance:
        argv = instance["argv"]
        if "--bundle" in argv:
            bundle = Path(argv[argv.index("--bundle") + 1])
            sentence, structure = bundle / "sentence.epq", bundle / "structure.str"
        else:
            sentence = argv[argv.index("--sentence") + 1]
            structure = argv[argv.index("--structure") + 1]
        phi = epquery.parse_formula(Path(sentence).read_text(encoding="utf-8"))
        b = _load_structure(structure)
        first = epquery.structure_of_pp(_first_disjunct(phi), b.signature)
        width = epquery.treewidth_upper(first)[0]
        return {"B": len(b.universe), "disjuncts": _disjunct_count(phi),
                "variables": epquery.classify(phi).variables, "width": width}
    if instance["kind"] == "treewidth":
        return {"B": len(outcome["structure"].universe), "width": outcome["width"]}
    return {"disjuncts": _disjunct_count(outcome["phi"]),
            "kept": len(outcome["kept"]),
            "variables": epquery.classify(outcome["phi"]).variables,
            "width": max((c[2] for c in outcome["compiled"]), default=0)}
