"""Out-of-program tracing for the benchmark.

`Tracer` records a span (name, start, end, parent, run id) around each
public function of a tempoprune layer and counts calls of the hot leaf
functions.  It patches each name in the module where the caller looks it
up, so the program itself is unchanged; `Tracer.uninstall` restores every
original.  Spans stay in memory until `write` dumps them.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the program is single-threaded.
"""
from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from functools import partial
from time import perf_counter_ns

from tempoprune import aspects, cli, evaluation, gmm, prune, search, timewindows

# (module, name looked up there, span name).  Span names are
# `<layer>.<stage>`; `<layer>.<stage>_s` is the matching self-time metric.
SPANNED = (
    (cli, "parse_corpus", "corpus.parse"),
    (cli, "build_index", "index.build"),
    (cli, "verify_index", "index.verify"),
    (cli, "write_index", "index.write"),
    (cli, "read_index", "index.read"),
    (cli, "pruning_ratio", "index.ratio"),
    (cli, "build_aspect_sets", "aspects.build"),
    (cli, "diversified_topk_prune", "prune.diversify"),
    (cli, "tune_epsilon", "evaluation.tune"),
    (cli, "threshold_prune", "prune.threshold_prune"),
    (cli, "generate_temporal_queries", "evaluation.genqueries"),
    (cli, "all_relevant_qrels", "evaluation.qrels"),
    (cli, "evaluate_queries", "evaluation.score"),
    (aspects, "term_time_series", "aspects.series"),
    (aspects, "fd_window_size", "aspects.windows"),
    (aspects, "simple_windows", "aspects.windows"),
    (aspects, "sliding_windows", "aspects.windows"),
    (aspects, "dynamic_windows", "aspects.windows"),
    (aspects, "smooth", "aspects.windows"),
    (aspects, "doc_aspect_map", "aspects.doc_map"),
    (aspects, "select_k_bic", "gmm.select"),
    (gmm, "fit_gmm", "gmm.fit"),
    (prune, "relevance_scores", "prune.relevance"),
    (prune, "diversify", "prune.diversify"),
    (prune, "threshold_values", "prune.threshold_values"),
    (prune, "subset_index", "index.subset"),
    (evaluation, "threshold_values", "prune.threshold_values"),
    (evaluation, "run_query", "search.query"),
)

# Leaf functions called too often for a span each: counted only.
COUNTED = (
    (prune, "next_best", "prune.next_best_calls"),
    (aspects, "intersect", "timewindows.intersect_calls"),
    (timewindows, "intersect", "timewindows.intersect_calls"),
    (search, "any_intersect", "timewindows.any_intersect_calls"),
)

CLI_SPANS = ("cli.build", "cli.genqueries", "cli.prune", "cli.eval")

# Per-layer metrics: self times, counts, and their units.
SELF_TIME_METRICS = (
    "prune.diversify_s", "prune.relevance_s", "prune.threshold_values_s",
    "prune.threshold_prune_s", "gmm.fit_s", "gmm.select_s",
    "aspects.build_s", "aspects.series_s", "aspects.windows_s", "aspects.doc_map_s",
    "index.build_s", "index.write_s", "index.read_s", "index.verify_s",
    "index.subset_s", "index.ratio_s", "corpus.write_s", "corpus.parse_s",
    "synth.corpus_s", "search.query_s", "evaluation.genqueries_s",
    "evaluation.qrels_s", "evaluation.tune_s", "evaluation.score_s",
)
COUNT_METRICS = (
    "prune.next_best_calls", "prune.clamped_terms", "prune.postings_kept",
    "gmm.fit_calls", "gmm.em_iters", "gmm.max_iter_fits", "aspects.terms",
    "timewindows.intersect_calls", "timewindows.any_intersect_calls",
    "index.read_calls", "index.postings", "index.bytes", "corpus.docs",
    "corpus.malformed", "search.queries", "search.postings_scored", "search.hits",
    "evaluation.probe_queries", "evaluation.tune_flagged", "evaluation.excluded_queries",
)
UNITS = {
    **{m: "s" for m in SELF_TIME_METRICS},
    **{m: "count" for m in COUNT_METRICS},
    "index.bytes": "B",
    "aspects.per_term_mean": "aspects/term",
    "evaluation.genqueries_yield": "kept/probed",
    **{f"{s}_s": "s" for s in CLI_SPANS},
    "cli.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}
# Ratios and the count each is taken over.
RATIO_BASES = {
    "aspects.per_term_mean": "aspects.terms",
    "evaluation.genqueries_yield": "evaluation.probe_queries",
}

_FIT_MAX_ITER = gmm.fit_gmm.__kwdefaults__["max_iter"]


class NoTrace:
    """Stand-in for `Tracer` in untraced runs: calls straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    traced = call


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, run id]
        self.counts: Counter = Counter()
        self.run_id = 0  # one id per top-level benchmark operation
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.run_id += 1
        rec = [name, perf_counter_ns(), 0, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _record(self, name: str, out, args, kwargs) -> None:
        """Counts taken from a traced call's arguments and result."""
        c = self.counts
        if name == "gmm.fit":
            c["gmm.em_iters"] += len(out.ll_trace)
            c["gmm.max_iter_fits"] += len(out.ll_trace) >= kwargs.get("max_iter", _FIT_MAX_ITER)
        elif name == "prune.diversify" and hasattr(out, "clamped"):
            c["prune.clamped_terms"] += out.clamped
        elif name == "index.subset":
            c["prune.postings_kept"] += out.posting_count()
        elif name == "aspects.build":
            c["aspects.terms"] += len(out)
            c["aspects.count"] += sum(len(a.aspects) for a in out.values())
        elif name == "index.write":
            c["index.postings"] += args[0].posting_count()
            c["index.bytes"] += os.path.getsize(args[1])
        elif name == "corpus.parse":
            c["corpus.docs"] += len(out.documents)
            c["corpus.malformed"] += out.n_malformed
        elif name == "search.query":
            index, query = args[0], args[1]
            c["search.postings_scored"] += sum(
                len(index.lists[t].postings) for t in set(query.terms) if t in index.lists
            )
            c["search.hits"] += len(out.hits)
            if self.parent_name() == "evaluation.genqueries":
                c["evaluation.probe_queries"] += 1
                c["evaluation.probe_hits"] += bool(out.hits)
        elif name == "evaluation.tune":
            c["evaluation.tune_flagged"] += out.flagged
        elif name == "evaluation.score":
            c["evaluation.excluded_queries"] += len(args[1]) - out[2]

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def traced(self, name: str, fn, *args, **kwargs):
        """`call` plus the counts `_record` takes, for calls the benchmark
        makes itself (the query loop, index loads)."""
        out = self.call(name, fn, *args, **kwargs)
        self._record(name, out, args, kwargs)
        return out

    def install(self) -> None:
        for module, attr, name in SPANNED:
            self._patch(module, attr, partial(self.traced, name, getattr(module, attr)))
        for module, attr, name in COUNTED:
            self._patch(module, attr, self._counted(name, getattr(module, attr)))

    def _patch(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            out[name] += (end - start - covered) / 1e9
        return out

    def layer_metrics(self) -> dict[str, float]:
        self_s = self.self_times()
        inclusive: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            inclusive[name] += (end - start) / 1e9
            calls[name] += 1
        c = self.counts
        m: dict[str, float] = {k: self_s.get(k[:-2], 0.0) for k in SELF_TIME_METRICS}
        m.update({k: c[k] for k in COUNT_METRICS})
        m["gmm.fit_calls"] = calls["gmm.fit"]
        m["index.read_calls"] = calls["index.read"]
        m["search.queries"] = calls["search.query"]
        m["aspects.per_term_mean"] = c["aspects.count"] / c["aspects.terms"] if c["aspects.terms"] else 0.0
        probes = c["evaluation.probe_queries"]
        m["evaluation.genqueries_yield"] = c["evaluation.probe_hits"] / probes if probes else 0.0
        for s in CLI_SPANS:
            m[f"{s}_s"] = inclusive[s]
        m["cli.self_s"] = sum(self_s.get(s, 0.0) for s in CLI_SPANS)
        return m

    def write(self, path, header: dict) -> None:
        """One JSON line of run information, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run": run}) + "\n")
