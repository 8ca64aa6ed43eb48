#!/usr/bin/env python3
"""tempoprune benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload greedy-simple --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`, nothing is installed.  A workload drives the user path in process:
`tempoprune.cli.main(argv)` for build, genqueries, prune and eval, as
`scripts/run_pipeline.py` does, then a closed loop with one client that
sends the workload's query set to every pruned index through
`search.run_query`.  The program only ever sees the files the benchmark
generates from --seed.

--trace 0 repeats rounds of the workload for --seconds and prints the
end-to-end metrics, in host-scaled seconds (see `Run.host_scale`).
--trace 1 runs one round untraced in a child process, then one traced
round in this one, and prints per-layer metrics and the tracing
overhead; spans go to
`.bench_out/<workload>-traced/spans.jsonl`.  Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ".bench_out"  # relative to ROOT, so manifests are the same in any checkout


@dataclass(frozen=True)
class Workload:
    n_docs: int
    vocab: int
    prunes: tuple[tuple[str, ...], ...]  # extra `prune` arguments, one call each
    draws: int  # genqueries --n: kept window draws, each a short and a long query


# Why each workload exists, and what it stresses and bypasses: bench/README.md.
WORKLOADS = {
    "greedy-simple": Workload(
        n_docs=300, vocab=500,
        prunes=(("--method", "div-simple", "--ratio", "0.3"),
                ("--method", "div-simple", "--ratio", "0.7")),
        draws=300,
    ),
    "em-dynamic": Workload(
        n_docs=300, vocab=50,
        prunes=(("--method", "div-dynamic", "--ratio", "0.9", "--k-max", "5"),),
        draws=600,
    ),
    "threshold-serve": Workload(
        n_docs=2500, vocab=500,
        prunes=tuple(("--method", m, "--ratio", "0.5") for m in ("tcp", "ipu", "2n2p")),
        draws=170,
    ),
}
# A run repeats rounds until --seconds have passed: each round makes the
# prune and eval calls once and sends the query set QUERY_REPEATS times to
# every pruned index.  SETUPS set-ups are spread evenly over the run.
SETUPS = 5
QUERY_REPEATS = 2
MIN_QUERIES = 1000  # distinct (index, query) pairs, so ten lie beyond p99
CALIBRATION_REF_S = 0.01  # about the calibration's time on a host at full speed


def calibration_work() -> float:
    """A fixed loop of numpy calls on a small array, owned by the benchmark
    so that no program change moves it.  Timed next to every timed
    operation, it measures how fast the host runs at that moment."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 256)
    for _ in range(1600):
        x = np.exp(-x) * 0.5 + x.mean()
    return float(x.sum())


END_TO_END_UNITS = {
    "setup_s": "s", "prune_s": "s", "eval_s": "s", "total_s": "s",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "query_qps": "queries/s",
    "map": "score", "ndcg": "score", "index_bytes_per_posting": "B", "peak_rss_mb": "MiB",
}


def import_package():
    """Import tempoprune from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "tempoprune" / "__init__.py").is_file():
        sys.exit(f"error: no tempoprune sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tempoprune

    if Path(tempoprune.__file__).resolve().parent != SRC / "tempoprune":
        sys.exit(f"error: imported tempoprune from {tempoprune.__file__}, not {SRC}")
    return tempoprune


def make_topics(rng: random.Random, vocab: int) -> list[dict]:
    """Topics over the Zipf-like synthetic vocabulary: every head and mid
    term, a sample of tail terms, and the burst term.  Each topic has a
    one-term description, so each kept draw yields a short and a long
    query.  Taking every head and mid term keeps the query cost mix nearly
    the same for every seed."""
    head = [f"w{i:03d}" for i in range(10)]
    mid = [f"w{i:03d}" for i in range(20, 50)]
    tail = [f"w{i:03d}" for i in range(vocab // 2, vocab)]
    plan = ([(h, mid) for h in head]
            + [(m, tail) for m in mid]
            + [(t, mid) for t in rng.sample(tail, 5)]
            + [("disaster", head)])
    return [{"qid": f"t{i:02d}", "title": title, "description": rng.choice(band)}
            for i, (title, band) in enumerate(plan)]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class WorkloadError(Exception):
    pass


class Run:
    """One workload: runs the operations, times them, checks outputs."""

    def __init__(self, tp, name: str, seed: int, tracer, scale: float, work: Path):
        from tempoprune import cli, corpus, index, search, synth

        self.tp, self.cli, self.corpus, self.index, self.search, self.synth = (
            tp, cli, corpus, index, search, synth)
        self.wl = WORKLOADS[name]
        self.seed, self.tr = seed, tracer
        self.n_docs = max(50, round(self.wl.n_docs * scale))
        self.draws = max(10, round(self.wl.draws * scale))
        self.min_pairs = round(MIN_QUERIES * min(1.0, scale))
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.digests: dict[str, str] = {}
        self.tuned: list[dict] = []
        # Every time below is host-scaled (see `host_scale`); report.json
        # also keeps the wall times as measured.
        self.calibrations: list[float] = []  # wall time of each calibration
        self.setups: list[float] = []
        self.passes: list[dict[str, list[float]]] = []  # per round: each call's time
        self.query_blocks: list[float] = []  # each block of the query set over every index
        self.latency_ms: list[list[float]] = []  # per (index, query) pair: one per block
        # per kind of operation: [wall time, calibration before, calibration after]
        self.wall: dict[str, list] = {"setup": [], "prune": [], "eval": [], "query_block": []}

        w = str(work)
        self.corpus_path, self.topics_path = f"{w}/corpus.jsonl", f"{w}/topics.jsonl"
        self.base, self.queries, self.qrels = f"{w}/idx.bin", f"{w}/queries.jsonl", f"{w}/qrels.txt"
        self.pruned = [f"{w}/pruned{i}.bin" for i in range(len(self.wl.prunes))]
        self.outputs = [self.corpus_path, self.base, self.queries, self.qrels]
        for p in self.pruned:
            self.outputs += [p, p + ".manifest.json", p + ".eval.json"]

    # -- accounting -------------------------------------------------------

    def check(self, what: str, ok: bool, detail="") -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"check": what, "ok": bool(ok), "detail": str(detail)})
        if not ok:
            print(f"CHECK FAILED {what}: {detail}", file=sys.stderr)

    def cli_call(self, argv: list[str]) -> float:
        """One CLI call; returns its wall time.  A non-zero exit or an
        exception counts as a failed operation and stops the workload."""
        self.attempted += 1
        gc.collect()  # garbage of earlier calls is not this call's cost
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.tr.call(f"cli.{argv[0]}", self.cli.main, argv)
        except Exception as exc:  # the workload cannot go on without this output
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            raise WorkloadError(f"tempoprune {' '.join(argv)} -> {rc}")
        return elapsed

    # -- host speed -------------------------------------------------------

    def calibrate(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        calibration_work()
        self.calibrations.append(time.perf_counter() - t0)
        return self.calibrations[-1]

    def host_scale(self, kind: str, wall: float) -> float:
        """Factor that turns a wall time into host-scaled seconds: the time
        the operation would take on a host where the calibration takes
        CALIBRATION_REF_S.  The calibration runs right before and right
        after every timed operation, and the factor uses their mean.

        The host (a few virtual CPUs of a shared machine) changes speed in
        steps lasting seconds to minutes, by up to 1.8x; the calibration and
        the program slow down together, so the scaled time is steady where
        the wall time is not (bench/README.md has the figures)."""
        before = self.calibrations[-1]
        after = self.calibrate()
        self.wall[kind].append([wall, before, after])
        return CALIBRATION_REF_S / ((before + after) / 2)

    def timed(self, kind: str, op) -> float:
        wall = op()
        return wall * self.host_scale(kind, wall)

    # -- one round --------------------------------------------------------

    def setup(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        docs = self.tr.call("synth.corpus", self.synth.random_corpus,
                            n_docs=self.n_docs, seed=self.seed, vocab_size=self.wl.vocab)
        self.tr.call("corpus.write", self.corpus.write_corpus, docs, self.corpus_path)
        topics = make_topics(random.Random(self.seed), self.wl.vocab)
        Path(self.topics_path).write_text("".join(json.dumps(t) + "\n" for t in topics),
                                          encoding="utf-8")
        self.cli_call(["build", "--corpus", self.corpus_path, "--out", self.base])
        self.cli_call(["genqueries", "--index", self.base, "--topics", self.topics_path,
                       "--interval", "monthly", "--n", str(self.draws), "--seed", str(self.seed),
                       "--out", self.queries, "--qrels-out", self.qrels])
        return time.perf_counter() - t0

    def prune(self) -> list[float]:
        return [
            self.timed("prune", lambda: self.cli_call(
                ["prune", "--in", self.base, "--out", out, "--seed", str(self.seed), *extra]))
            for out, extra in zip(self.pruned, self.wl.prunes)
        ]

    def evaluate(self) -> list[float]:
        return [
            self.timed("eval", lambda: self.cli_call(
                ["eval", "--index", out, "--queries", self.queries, "--qrels", self.qrels,
                 "--out", out + ".eval.json"]))
            for out in self.pruned
        ]

    def check_repeat(self, rnd: int) -> None:
        """Every round must reproduce the first round's files byte for byte."""
        got = {p: sha256(p) for p in self.outputs}
        if rnd == 0:
            self.digests = got
        else:
            self.check("repeat is byte-identical", got == self.digests,
                       f"round {rnd}: {[p for p in got if got[p] != self.digests[p]]}")

    # -- output checks ----------------------------------------------------

    def check_outputs(self) -> None:
        from tempoprune.evaluation import read_qrels, read_queries

        base = self.index.read_index(self.base)
        try:
            self.index.verify_index(base)
            self.check("base index verifies", True)
        except self.tp.TempopruneError as exc:
            self.check("base index verifies", False, exc)
        self.query_set = read_queries(self.queries)
        self.judgments = read_qrels(self.qrels)
        self.check("query set is non-empty", len(self.query_set) > 0, len(self.query_set))
        self.check("judgments are non-empty", len(self.judgments.grades) > 0)
        self.base_postings = base.posting_count()
        self.base_bytes = os.path.getsize(self.base)
        for out, extra in zip(self.pruned, self.wl.prunes):
            self.check_pruned(base, out, extra)
        self.scores = []
        for out in self.pruned:
            report = json.loads(Path(out + ".eval.json").read_text(encoding="utf-8"))
            self.check("eval scored queries", report["n_queries"] > 0, f"{out}: {report}")
            self.scores.append(report)

    def check_pruned(self, base, out: str, extra: tuple[str, ...]) -> None:
        """Structural, sub-index and budget checks on one pruned index."""
        from tempoprune.aspects import round_half_up

        label = " ".join(extra)
        try:
            pruned = self.index.read_index(out)
            self.index.verify_index(pruned)
            self.check("pruned index verifies", True, label)
        except self.tp.TempopruneError as exc:
            self.check("pruned index verifies", False, f"{label}: {exc}")
            return
        try:
            achieved = self.index.pruning_ratio(base, pruned)
            self.check("pruned index is a sub-index", True, label)
        except self.tp.TempopruneError as exc:
            self.check("pruned index is a sub-index", False, f"{label}: {exc}")
            return
        manifest = json.loads(Path(out + ".manifest.json").read_text(encoding="utf-8"))
        self.check("manifest ratio matches", manifest["achieved_ratio"] == achieved,
                   f"{label}: {manifest['achieved_ratio']} vs {achieved}")
        method, ratio = manifest["method"], float(extra[extra.index("--ratio") + 1])
        if method.startswith("div-"):
            # every term keeps exactly its budget max(1, round((1 - ratio) * n))
            wrong = [t for t, pl in base.lists.items()
                     if len(pruned.lists[t].postings)
                     != max(1, round_half_up((1.0 - ratio) * len(pl.postings)))]
            self.check("per-term budget met", not wrong, f"{label}: {wrong[:5]}")
        else:
            tuned = manifest["tuned"]
            self.check("epsilon tuned", tuned["epsilon"] >= 0.0, f"{label}: {tuned}")
            self.tuned.append({"method": method, "target": ratio, "achieved": achieved,
                               "epsilon": tuned["epsilon"], "flagged": tuned["flagged"]})

    # -- query loop -------------------------------------------------------

    def load(self) -> None:
        """Load every pruned index and run the query set once against each;
        these rankings must rescore to exactly what `eval` wrote, and they
        are the reference for the timed rounds."""
        from tempoprune.evaluation import evaluate_results

        self.loaded = [self.tr.call("index.read", self.index.read_index, p) for p in self.pruned]
        rounds = [[self.first_query(idx, q) for q in self.query_set] for idx in self.loaded]
        self.reference = []
        for results, out, report in zip(rounds, self.pruned, self.scores):
            self.reference.append([r.hits if r else None for r in results])
            got = evaluate_results([r for r in results if r], self.judgments)
            self.check("loop rankings reproduce eval scores",
                       got == (report["map"], report["ndcg"], report["n_queries"]),
                       f"{out}: {got} vs {report}")
        pairs = len(self.query_set) * len(self.loaded)
        if pairs < self.min_pairs:
            raise WorkloadError(f"{pairs} (index, query) pairs, fewer than {self.min_pairs}")
        self.latency_ms = [[] for _ in range(pairs)]

    def first_query(self, idx, q):
        self.attempted += 1
        try:
            return self.tr.traced("search.query", self.search.run_query, idx, q)
        except Exception as exc:  # counted; the remaining queries still run
            self.failed += 1
            print(f"query {q.qid} failed: {exc}", file=sys.stderr)
            return None

    def serve(self) -> None:
        """Closed loop, one client: send the query set to every loaded index,
        QUERY_REPEATS times.  A block is one pass of the query set over every
        index; its latencies and its wall time are host-scaled with the
        calibrations around it.  A query fails if it raises or ranks
        differently from the reference round."""
        clock = time.perf_counter_ns
        run_query = self.search.run_query
        for _ in range(QUERY_REPEATS):
            gc.collect()
            ns: list[float] = []
            block_start = clock()
            for idx, ref in zip(self.loaded, self.reference):
                for q, want in zip(self.query_set, ref):
                    self.attempted += 1
                    t = clock()
                    try:
                        hits = run_query(idx, q).hits
                    except Exception:  # counted; the loop keeps serving
                        self.failed += 1
                        ns.append(math.nan)
                        continue
                    ns.append(clock() - t)
                    self.failed += hits != want
            wall = (clock() - block_start) / 1e9
            scale = self.host_scale("query_block", wall)
            self.query_blocks.append(wall * scale)
            for samples, t in zip(self.latency_ms, ns):
                if not math.isnan(t):  # a failed query has no latency
                    samples.append(t * scale / 1e6)

    # -- the whole workload -----------------------------------------------

    def execute(self, seconds: float) -> dict[str, float]:
        """Rounds of the prune and eval calls and the query loop until
        `seconds` have passed, at least one round, with SETUPS set-ups spread
        evenly over them (one when `seconds` is 0).

        Every figure is host-scaled (`host_scale`) and a median: each
        call's time is its median over the rounds, and prune_s and eval_s
        sum those; each (index, query) pair's latency is its median over the
        blocks, and p50 and p99 are taken over the pairs; throughput and
        set-up time are medians over the blocks and the set-ups."""
        n_setups = SETUPS if seconds > 0 else 1
        self.calibrate()
        start, rnd = time.perf_counter(), 0
        while rnd == 0 or time.perf_counter() - start < seconds:
            if len(self.setups) < n_setups and (
                    time.perf_counter() - start >= len(self.setups) * seconds / n_setups):
                self.setups.append(self.timed("setup", self.setup))
            self.passes.append({"prune": self.prune(), "eval": self.evaluate()})
            self.check_repeat(rnd)
            if rnd == 0:
                self.check_outputs()
                self.load()
                gc.freeze()  # what the benchmark holds is not scanned during timed calls
            self.serve()
            rnd += 1
        while len(self.setups) < n_setups:
            self.setups.append(self.timed("setup", self.setup))
        self.check_repeat(rnd)
        gc.unfreeze()
        out = {"setup_s": statistics.median(self.setups)}
        for stage in ("prune", "eval"):
            calls = zip(*(p[stage] for p in self.passes))
            out[f"{stage}_s"] = sum(statistics.median(c) for c in calls)
        latency = sorted(statistics.median(s) for s in self.latency_ms if s)
        out["query_p50_ms"] = statistics.median(latency)
        out["query_p99_ms"] = latency[math.ceil(0.99 * len(latency)) - 1]
        block = statistics.median(self.query_blocks)
        out["query_qps"] = len(self.latency_ms) / block
        out["total_s"] = out["setup_s"] + out["prune_s"] + out["eval_s"] + block
        return out

    def end_to_end(self, times: dict[str, float]) -> dict[str, float]:
        return {
            **times,
            "map": statistics.fmean(s["map"] for s in self.scores),
            "ndcg": statistics.fmean(s["ndcg"] for s in self.scores),
            "index_bytes_per_posting": self.base_bytes / self.base_postings,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def environment(seed: int, name: str) -> dict:
    import numpy

    return {"workload": name, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "machine": platform.machine()}


def result_line(run: Run | None, metrics: dict) -> str:
    return json.dumps({
        "correct": run is not None and run.failed == 0 and bool(metrics),
        "attempted": max(1, run.attempted if run else 1),
        "failed": run.failed if run else 1,
        "metrics": metrics,
    })


def untraced_total(args) -> float:
    """total_s of one untraced round of the same workload and seed, in a
    fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--scale", str(args.scale)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise WorkloadError(f"untraced run failed: {proc.stderr[-2000:]}")
    return result["metrics"]["total_s"]["value"]


def print_layers(layers: dict, baseline_total: float) -> None:
    from spans import RATIO_BASES, UNITS

    print(f"{'metric':<34} {'value':>16}  unit")
    for k in sorted(layers):
        base = RATIO_BASES.get(k)
        of = f"  (of {layers[base]:.0f} {base})" if base else ""
        print(f"{k:<34} {layers[k]:16.6f}  {UNITS[k]}{of}")
    print(f"tracing overhead: {layers['trace.overhead_s']:.3f} s on an untraced total of"
          f" {baseline_total:.3f} s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the untraced run repeats rounds (0: one round)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus and query-set size factor (the self-test runs small)")
    args = ap.parse_args()

    tp = import_package()
    from spans import UNITS, NoTrace, Tracer

    os.environ.pop("TEMPOPRUNE_THREADS", None)  # the CLI default must apply
    os.chdir(ROOT)
    work = Path(OUT) / (args.workload + ("-traced" if args.trace else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.seed, args.workload)
    print("env " + json.dumps(env, sort_keys=True))

    run = None
    try:
        if args.trace:
            baseline_total = untraced_total(args)
            tracer = Tracer()
            run = Run(tp, args.workload, args.seed, tracer, args.scale, work)
            tracer.install()
            try:
                traced_total = run.execute(0)["total_s"]
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics()
            layers["trace.total_s"] = traced_total
            layers["trace.overhead_s"] = traced_total - baseline_total
            tracer.write(work / "spans.jsonl", env)
            print_layers(layers, baseline_total)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(layers.items())}
        else:
            run = Run(tp, args.workload, args.seed, NoTrace, args.scale, work)
            values = run.end_to_end(run.execute(args.seconds))
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
            for k, m in metrics.items():
                print(f"{k:>24} {m['value']:14.6f} {m['unit']}")
            print(f"{'rounds':>24} {len(run.passes)}, {len(run.setups)} set-ups,"
                  f" {len(run.latency_ms)} (index, query) pairs")
            print(f"{'calibration':>24} median {statistics.median(run.calibrations):.6f} s,"
                  f" reference {CALIBRATION_REF_S} s")
            print(f"{'error rate':>24} {run.failed}/{run.attempted}")
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(result_line(run, {}))
        return 1
    report = {"env": env, "checks": run.checks, "tuned": run.tuned,
              "setups": run.setups, "passes": run.passes, "query_blocks": run.query_blocks,
              "calibrations": run.calibrations, "wall": run.wall, 
              "digests": run.digests, "attempted": run.attempted, "failed": run.failed}
    (work / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for t in run.tuned:
        print(f"tuned {t['method']}: target {t['target']} achieved {t['achieved']:.6f}"
              f" epsilon {t['epsilon']:.6g} flagged {t['flagged']}")
    digest = hashlib.sha256(json.dumps(run.digests, sort_keys=True).encode()).hexdigest()
    print(f"checks {sum(c['ok'] for c in run.checks)}/{len(run.checks)} passed; digest {digest}")
    print(result_line(run, metrics))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
