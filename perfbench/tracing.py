"""Spans around the public functions of epquery, recorded from outside the package.

``Tracer.install`` rebinds every traced function in each ``epquery`` module
that holds it (for example both ``epquery.evaluate.find_homomorphism`` and
``epquery.homomorphism.find_homomorphism``, which is where ``core`` and
``hom_equivalent`` look it up), so calls between modules are caught without
touching the package.  ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent index, instance id, counters]``; spans
stay in memory until ``write``.  Self time is a span's duration minus the
time its children cover.
"""

from __future__ import annotations

import json
import sys
import time

from epquery.homomorphism import SearchStats

# Layer of each traced function: the epquery module that defines it.
TRACED = {
    "find_homomorphism": "homomorphism",
    "hom_equivalent": "homomorphism",
    "core": "homomorphism",
    "to_pp_disjunction": "normalize",
    "m_normalize": "normalize",
    "treewidth_exact": "treewidth",
    "treewidth_upper": "treewidth",
    "pp_from_decomposition": "treewidth",
    "evaluate": "evaluate",
    "eval_dnf_hom": "evaluate",
    "eval_naive": "evaluate",
    "eval_kvar": "evaluate",
    "eval_via_pp_turing": "evaluate",
    "parse_formula": "formulas",
    "structure_of_pp": "formulas",
    "parse_structure": "structures",
    "reduce_hamiltonian": "gadgets",
    "reduce_sat": "gadgets",
    "hamiltonian_sentence": "gadgets",
    "main": "cli",
}

LAYERS = ("cli", "evaluate", "normalize", "homomorphism", "formulas", "structures",
          "treewidth", "gadgets")

# Every per-layer metric, in the order printed; units follow the name suffix.
PER_LAYER = (
    "homomorphism.find_calls", "homomorphism.find_self_s", "homomorphism.nodes",
    "homomorphism.found_ratio", "homomorphism.zero_node_s", "homomorphism.searching_s",
    "homomorphism.hom_equivalent_calls", "homomorphism.core_s",
    "homomorphism.core_shrink_ratio",
    "normalize.to_pp_disjunction_s", "normalize.disjuncts_generated",
    "normalize.m_normalize_s", "normalize.disjuncts_kept", "normalize.kept_ratio",
    "treewidth.exact_s", "treewidth.exact_universe_max", "treewidth.width_max",
    "treewidth.upper_s", "treewidth.pp_from_decomposition_s",
    "evaluate.dnf_hom_s", "evaluate.disjuncts_tested", "evaluate.naive_s", "evaluate.kvar_s",
    "evaluate.kvar_max_arity", "evaluate.via_pp_turing_s",
    "formulas.parse_formula_s", "formulas.structure_of_pp_s", "formulas.structure_of_pp_calls",
    "structures.parse_structure_s", "structures.universe_max", "structures.rows",
    "gadgets.reduce_hamiltonian_s", "gadgets.reduce_sat_s", "gadgets.hamiltonian_sentence_s",
    "cli.main_s", "cli.self_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS if layer != "cli") + (
    "bench.self_s", "trace.covered_frac", "trace.overhead_frac",
)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def _prepare(name, args, kwargs):
    """Inject the counters a call should fill; return what ``_finish`` needs."""
    if name == "find_homomorphism":
        stats = kwargs.get("stats")
        if stats is None:
            stats = kwargs["stats"] = SearchStats()
        return stats, stats.nodes
    if name == "eval_kvar" and kwargs.get("stats") is None:
        kwargs["stats"] = {}
    return None


def _finish(name, args, kwargs, state, result, counters):
    if name == "find_homomorphism":
        stats, before = state
        counters["nodes"] = stats.nodes - before
        counters["found"] = result is not None
    elif name == "eval_kvar":
        counters["max_arity"] = kwargs["stats"].get("max_arity", 0)
    elif name == "core" and result is not None:
        counters["size_in"] = len(args[0].universe)
        counters["size_out"] = len(result.universe)
    elif name == "to_pp_disjunction" and result is not None:
        counters["disjuncts"] = len(result)
    elif name == "m_normalize" and result is not None:
        counters["kept"] = len(result)
    elif name in ("treewidth_exact", "treewidth_upper") and result is not None:
        counters["universe"] = len(args[0].universe)
        counters["width"] = result[0]
    elif name == "parse_structure" and result is not None:
        counters["universe"] = len(result.universe)
        counters["rows"] = sum(len(rows) for rows in result.relations.values())


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = _prepare(name, args, kwargs)
            span = [name, clock(), None, stack[-1] if stack else None, self.instance, {}]
            spans.append(span)
            stack.append(len(spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                span[2] = clock()
                _finish(name, args, kwargs, state, result, span[5])

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "epquery" or key.startswith("epquery.")]
        for name, layer in TRACED.items():
            original = getattr(sys.modules[f"epquery.{layer}"], name)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, instance, counters in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "instance": instance,
                                      "counters": counters}) + "\n")


def layer_metrics(setup_spans, pass_spans, passes, setup_wall, pass_wall):
    """Per-layer metrics for one set-up plus one pass of the timed phase.

    Set-up spans count once; timed-phase spans are summed and divided by the
    number of traced passes.  ``*_s`` metrics of a named function are
    inclusive times (the outermost call of that name only); ``*.self_s`` and
    ``find_self_s`` are self times, which together with ``bench.self_s``
    (harness time outside every span) add up to the traced wall time.
    """
    totals = {}
    maxima = {}

    def add(key, value, scale):
        totals[key] = totals.get(key, 0.0) + value * scale

    def top(key, value):
        maxima[key] = max(maxima.get(key, 0), value)

    covered = 0.0
    for spans, scale in ((setup_spans, 1.0), (pass_spans, 1.0 / passes)):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _, counters) in enumerate(spans):
            duration = end - start
            layer = TRACED[name]
            self_time = duration - child_time[i]
            add(f"{layer}.self_s", self_time, scale)
            covered += self_time * scale
            ancestors = []
            p = parent
            while p is not None:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                add(f"incl.{name}", duration, scale)
            add(f"calls.{name}", 1, scale)
            if name == "find_homomorphism":
                add("homomorphism.find_self_s", self_time, scale)
                add("homomorphism.nodes", counters.get("nodes", 0), scale)
                add("found", 1 if counters.get("found") else 0, scale)
                key = "homomorphism.searching_s" if counters.get("nodes") else "homomorphism.zero_node_s"
                add(key, duration, scale)
                if ancestors and ancestors[0] in ("eval_dnf_hom", "eval_via_pp_turing"):
                    add("evaluate.disjuncts_tested", 1, scale)
            elif name == "core" and "size_in" in counters:
                add("core_in", counters["size_in"], scale)
                add("core_out", counters["size_out"], scale)
            elif name == "to_pp_disjunction":
                add("normalize.disjuncts_generated", counters.get("disjuncts", 0), scale)
                if ancestors and ancestors[0] == "m_normalize":
                    add("generated_for_kept", counters.get("disjuncts", 0), scale)
            elif name == "m_normalize":
                add("normalize.disjuncts_kept", counters.get("kept", 0), scale)
            elif name == "treewidth_exact":
                top("treewidth.exact_universe_max", counters.get("universe", 0))
                top("treewidth.width_max", counters.get("width", 0))
            elif name == "treewidth_upper":
                top("treewidth.width_max", counters.get("width", 0))
            elif name == "eval_kvar":
                top("evaluate.kvar_max_arity", counters.get("max_arity", 0))
            elif name == "parse_structure":
                top("structures.universe_max", counters.get("universe", 0))
                add("structures.rows", counters.get("rows", 0), scale)

    def ratio(num, den):
        return totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    wall = setup_wall + pass_wall
    derived = {
        "homomorphism.find_calls": totals.get("calls.find_homomorphism", 0.0),
        "homomorphism.found_ratio": ratio("found", "calls.find_homomorphism"),
        "homomorphism.hom_equivalent_calls": totals.get("calls.hom_equivalent", 0.0),
        "homomorphism.core_s": totals.get("incl.core", 0.0),
        "homomorphism.core_shrink_ratio": ratio("core_out", "core_in"),
        "normalize.to_pp_disjunction_s": totals.get("incl.to_pp_disjunction", 0.0),
        "normalize.m_normalize_s": totals.get("incl.m_normalize", 0.0),
        "normalize.kept_ratio": ratio("normalize.disjuncts_kept", "generated_for_kept"),
        "treewidth.exact_s": totals.get("incl.treewidth_exact", 0.0),
        "treewidth.upper_s": totals.get("incl.treewidth_upper", 0.0),
        "treewidth.pp_from_decomposition_s": totals.get("incl.pp_from_decomposition", 0.0),
        "evaluate.dnf_hom_s": totals.get("incl.eval_dnf_hom", 0.0),
        "evaluate.naive_s": totals.get("incl.eval_naive", 0.0),
        "evaluate.kvar_s": totals.get("incl.eval_kvar", 0.0),
        "evaluate.via_pp_turing_s": totals.get("incl.eval_via_pp_turing", 0.0),
        "formulas.parse_formula_s": totals.get("incl.parse_formula", 0.0),
        "formulas.structure_of_pp_s": totals.get("incl.structure_of_pp", 0.0),
        "formulas.structure_of_pp_calls": totals.get("calls.structure_of_pp", 0.0),
        "structures.parse_structure_s": totals.get("incl.parse_structure", 0.0),
        "gadgets.reduce_hamiltonian_s": totals.get("incl.reduce_hamiltonian", 0.0),
        "gadgets.reduce_sat_s": totals.get("incl.reduce_sat", 0.0),
        "gadgets.hamiltonian_sentence_s": totals.get("incl.hamiltonian_sentence", 0.0),
        "cli.main_s": totals.get("incl.main", 0.0),
        "bench.self_s": wall - covered,
        "trace.covered_frac": covered / wall if wall else 0.0,
    }
    out = {}
    for metric in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric in maxima:
            out[metric] = maxima[metric]
        else:
            out[metric] = totals.get(metric, 0.0)
    return out

