"""Command-line frontend: file ingestion, strategy selection, bundle output.

Verdict-producing subcommands exit 0 for true, 1 for false, 2 on error;
``--format json`` prints one structured record instead of plain text.
Resource limits come from flags, with environment-variable fallbacks
(EPQ_MAX_NODES, EPQ_MAX_DISJUNCTS, EPQ_MAX_EXACT_TW, EPQ_MAX_ROWS,
EPQ_MAX_WORK); each subcommand takes only the limit flags it reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from .errors import (MAX_DISJUNCTS, MAX_EXACT_TW, MAX_NODES, MAX_ROWS, MAX_WORK, EpqError,
                     LimitExceeded)
from .evaluate import _STRATEGIES, evaluate
from .formulas import classify, parse_formula, render
from .gadgets import (
    gadget_plus,
    gadget_star,
    hamiltonian_sentence,
    hamiltonian_sentence_ep6,
    parse_dimacs,
    reduce_hamiltonian,
    reduce_sat,
)
from .gdnf import format_gdnf, gdnf_product, parse_gdnf
from .homomorphism import SearchStats, core, find_homomorphism
from .normalize import compile_unary, m_normalize
from .structures import format_structure, parse_structure
from .treewidth import format_decomposition, treewidth_exact, treewidth_upper
from .formulas import canonical_query, structure_of_pp


def _env_int(name, default):
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise EpqError(f"environment variable {name} is not an integer: {value!r}") from None


# Limit flag destination -> (environment fallback, default).
_LIMITS = {
    "max_nodes": ("EPQ_MAX_NODES", MAX_NODES),
    "max_disjuncts": ("EPQ_MAX_DISJUNCTS", MAX_DISJUNCTS),
    "max_exact_tw": ("EPQ_MAX_EXACT_TW", MAX_EXACT_TW),
    "max_rows": ("EPQ_MAX_ROWS", MAX_ROWS),
    "max_work": ("EPQ_MAX_WORK", MAX_WORK),
}


def _limits(args):
    """The limit flags the subcommand takes, each filled from its fallback when unset."""
    limits = {}
    for name, (env, default) in _LIMITS.items():
        if hasattr(args, name):
            value = getattr(args, name)
            limits[name] = value if value is not None else _env_int(env, default)
    return limits


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _load_sentence(path):
    return parse_formula(_read(path))


def _load_structure(path):
    return parse_structure(_read(path))


def _write_bundle(instance, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sentence.epq").write_text(render(instance.sentence) + "\n", encoding="utf-8")
    (out / "structure.str").write_text(format_structure(instance.structure), encoding="utf-8")
    return out


def _cmd_eval(args, limits):
    if args.bundle:
        sentence = _load_sentence(Path(args.bundle) / "sentence.epq")
        structure = _load_structure(Path(args.bundle) / "structure.str")
    else:
        if not args.sentence or not args.structure:
            raise EpqError("eval needs --sentence and --structure (or --bundle)")
        sentence = _load_sentence(args.sentence)
        structure = _load_structure(args.structure)
    # kvar fills a dict with its joins, largest relation and widest arity
    stats = {} if args.strategy == "kvar" else SearchStats()
    # each strategy reads the limits it has: see evaluate()
    verdict = evaluate(sentence, structure, args.strategy, k=args.k, stats=stats, **limits)
    record = {"verdict": verdict,
              "stats": stats if args.strategy == "kvar" else {"nodes-searched": stats.nodes}}
    return ["true" if verdict else "false"], record, 0 if verdict else 1


def _cmd_hom(args, limits):
    source = _load_structure(args.source)
    target = _load_structure(args.target)
    stats = SearchStats()
    witness = find_homomorphism(source, target, max_nodes=limits["max_nodes"], stats=stats)
    record = {"verdict": witness is not None, "stats": {"nodes-searched": stats.nodes}}
    if witness is None:
        return ["none"], record, 1
    lines = [f"{x} -> {witness.mapping[x]}" for x in source.universe]
    record["result"] = {x: witness.mapping[x] for x in source.universe}
    return lines, record, 0


def _cmd_core(args, limits):
    structure = _load_structure(args.structure)
    stats = SearchStats()
    small = core(structure, max_nodes=limits["max_nodes"], stats=stats)
    text = format_structure(small)
    return [text.rstrip("\n")], {"result": text, "stats": {"nodes-searched": stats.nodes}}, 0


def _cmd_canonical_query(args, limits):
    structure = _load_structure(args.structure)
    line = render(canonical_query(structure))
    return [line], {"result": line, "stats": {}}, 0


def _cmd_pp_structure(args, limits):
    sentence = _load_sentence(args.sentence)
    structure = structure_of_pp(sentence)
    text = format_structure(structure)
    return [text.rstrip("\n")], {"result": text, "stats": {}}, 0


def _cmd_normalize(args, limits):
    sentence = _load_sentence(args.sentence)
    stats = SearchStats()
    members = m_normalize(
        sentence,
        max_disjuncts=limits["max_disjuncts"],
        max_nodes=limits["max_nodes"],
        stats=stats,
    )
    lines = [render(m) for m in members]
    record = {"result": lines, "stats": {"disjuncts": len(members), "nodes-searched": stats.nodes}}
    return lines, record, 0


def _cmd_compile_unary(args, limits):
    sentence = _load_sentence(args.sentence)
    compiled = compile_unary(
        sentence, max_disjuncts=limits["max_disjuncts"], max_nodes=limits["max_nodes"]
    )
    line = render(compiled)
    return [line], {"result": [line], "stats": {}}, 0


def _cmd_treewidth(args, limits):
    structure = _load_structure(args.structure)
    if args.upper:
        width, witness = treewidth_upper(structure)
    else:
        width, witness = treewidth_exact(structure, max_universe=limits["max_exact_tw"])
    lines = [str(width)]
    record = {"result": width, "stats": {"width": width}}
    if args.witness:
        text = format_decomposition(witness)
        lines.append(text.rstrip("\n"))
        record["witness"] = text
    return lines, record, 0


def _cmd_gadget(args, limits):
    structure = _load_structure(args.structure)
    built = gadget_star(structure) if args.kind == "star" else gadget_plus(structure)
    text = format_structure(built)
    return [text.rstrip("\n")], {"result": text, "stats": {}}, 0


def _cmd_hn(args, limits):
    sentence = hamiltonian_sentence_ep6(args.n) if args.ep6 else hamiltonian_sentence(args.n)
    line = render(sentence)
    return [line], {"result": line, "stats": {"variables": classify(sentence).variables}}, 0


def _cmd_reduce(args, limits):
    needed = "digraph" if args.what == "ham" else "cnf"
    if not getattr(args, needed):
        raise EpqError(f"reduce {args.what} needs --{needed}")
    if args.what == "ham":
        digraph = _load_structure(args.digraph)
        instance = reduce_hamiltonian(digraph, lift_arity=args.lift_arity)
    else:
        cnf = parse_dimacs(_read(args.cnf))
        mode = args.mode
        arity = 2
        if ":" in mode:
            mode, _, arity_text = mode.partition(":")
            try:
                arity = int(arity_text)
            except ValueError:
                raise EpqError(f"bad arity in mode {args.mode!r}") from None
        instance = reduce_sat(cnf, mode=mode, arity=arity)
    out = _write_bundle(instance, args.out)
    lines = [str(out / "sentence.epq"), str(out / "structure.str")]
    return lines, {"result": {"sentence": lines[0], "structure": lines[1]}, "stats": {}}, 0


def _cmd_gdnf(args, limits):
    left = parse_gdnf(_read(args.left))
    right = parse_gdnf(_read(args.right))
    combined = gdnf_product(left, right)
    text = format_gdnf(combined)
    return [text.rstrip("\n")], {"result": text, "stats": {"blocks": len(combined.blocks)}}, 0


def _add_common(sub, *limits):
    """``--format`` plus the limit flags (keys of ``_LIMITS``) the subcommand reads."""
    sub.add_argument("--format", choices=("text", "json"), default="text")
    for name in limits:
        sub.add_argument("--" + name.replace("_", "-"), type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="epquery",
        description="Model checking for existential positive queries on finite structures.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate a sentence on a structure")
    p.add_argument("--sentence")
    p.add_argument("--structure")
    p.add_argument("--bundle", help="directory holding sentence.epq and structure.str")
    p.add_argument("--strategy", choices=_STRATEGIES, default="naive")
    p.add_argument("--k", type=int, default=None, help="variable bound for the kvar strategy")
    _add_common(p, "max_nodes", "max_disjuncts", "max_rows", "max_work")
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("hom", help="search for a homomorphism between structures")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    _add_common(p, "max_nodes")
    p.set_defaults(handler=_cmd_hom)

    p = subs.add_parser("core", help="compute the core of a structure")
    p.add_argument("--structure", required=True)
    _add_common(p, "max_nodes")
    p.set_defaults(handler=_cmd_core)

    p = subs.add_parser("canonical-query", help="canonical query of a structure")
    p.add_argument("--structure", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_canonical_query)

    p = subs.add_parser("pp-structure", help="structure induced by a primitive positive sentence")
    p.add_argument("--sentence", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_pp_structure)

    p = subs.add_parser("normalize", help="pairwise non-entailing disjunct set of a sentence")
    p.add_argument("--sentence", required=True)
    _add_common(p, "max_nodes", "max_disjuncts")
    p.set_defaults(handler=_cmd_normalize)

    p = subs.add_parser("compile-unary", help="one-variable compilation over unary signatures")
    p.add_argument("--sentence", required=True)
    _add_common(p, "max_nodes", "max_disjuncts")
    p.set_defaults(handler=_cmd_compile_unary)

    p = subs.add_parser("treewidth", help="exact or heuristic treewidth")
    p.add_argument("--structure", required=True)
    p.add_argument("--upper", action="store_true", help="min-fill upper bound instead of exact")
    p.add_argument("--witness", action="store_true", help="also print the decomposition")
    _add_common(p, "max_exact_tw")
    p.set_defaults(handler=_cmd_treewidth)

    p = subs.add_parser("gadget", help="gadget translations of labelled digraphs")
    p.add_argument("kind", choices=("star", "plus"))
    p.add_argument("--structure", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gadget)

    p = subs.add_parser("hn", help="Hamiltonian-circuit sentence family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ep6", action="store_true", help="emit the six-variable form")
    _add_common(p)
    p.set_defaults(handler=_cmd_hn)

    p = subs.add_parser("reduce", help="emit a model-checking instance bundle")
    p.add_argument("what", choices=("ham", "sat"))
    p.add_argument("--digraph", help="digraph file (ham)")
    p.add_argument("--lift-arity", type=int, default=None)
    p.add_argument("--cnf", help="DIMACS file (sat)")
    p.add_argument("--mode", default="two-symbols", help="two-symbols[:K] | single-symbol:K | unary")
    p.add_argument("--out", required=True, help="output bundle directory")
    _add_common(p)
    p.set_defaults(handler=_cmd_reduce)

    p = subs.add_parser("gdnf", help="operations on block-form relations")
    p.add_argument("op", choices=("product",))
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_gdnf)

    return parser


def _fail(args, message, limits_hit):
    if args.format == "json":
        print(json.dumps(
            {"command": args.command, "error": message, "limits-hit": limits_hit}, sort_keys=True
        ))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines, record, code = args.handler(args, _limits(args))
    except LimitExceeded as exc:
        return _fail(args, str(exc), [exc.what])
    except (EpqError, OSError) as exc:
        return _fail(args, str(exc), [])
    except Exception as exc:
        # exit 1 means "false"; a crash must never be read as a verdict
        traceback.print_exc()
        return _fail(args, f"{type(exc).__name__}: {exc}", [])
    if args.format == "json":
        print(json.dumps({"command": args.command, "limits-hit": [], **record}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
