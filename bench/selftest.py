#!/usr/bin/env python3
"""Small-scale self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at a tenth of its size and checks
that:

* each run exits 0 and ends with the result line, correct and with no
  failed operation;
* --trace 0 emits exactly the `end_to_end` metrics and --trace 1 exactly
  the `per_layer` metrics, each with the unit BENCHMARK.json gives it;
* the output checks ran (every kind of check appears in the report) and
  two runs of one seed give identical digests;
* the output checks fail on a damaged pruned index;
* without the program's sources, run.py exits non-zero and prints no
  result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3
SCALE = "0.1"

COMMON_CHECKS = {"repeat is byte-identical", "base index verifies",
                 "query set is non-empty", "judgments are non-empty",
                 "pruned index verifies", "pruned index is a sub-index",
                 "manifest ratio matches", "eval scored queries",
                 "loop rankings reproduce eval scores"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_result(proc, result, spec: list[dict], label: str) -> None:
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    expect(result is not None and set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: last line is not the result object")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: not correct: {result['failed']}/{result['attempted']} failed")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{label}: metrics/units differ: {set(got) ^ set(want)}")
    for k, v in result["metrics"].items():
        expect(isinstance(v["value"], (int, float)), f"{label}: {k} is not a number")


def report(workload: str) -> dict:
    return json.loads((ROOT / ".bench_out" / workload / "report.json").read_text())


def check_damage_is_caught() -> None:
    """Hand the output checks a pruned index that lost a posting, and one
    with a flipped byte: both must count as failures."""
    sys.path.insert(0, str(BENCH))
    import run as bench_run

    tp = bench_run.import_package()
    from spans import NoTrace

    work = ROOT / ".bench_out" / "selftest-damage"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    r = bench_run.Run(tp, "greedy-simple", SEED, NoTrace, float(SCALE), work)
    r.execute(0)
    expect(r.failed == 0, "clean pass reported failures")
    from tempoprune.index import read_index, subset_index, write_index

    base = read_index(r.base)
    out, extra = r.pruned[0], r.wl.prunes[0]
    pruned = read_index(out)
    term = max(pruned.lists, key=lambda t: len(pruned.lists[t].postings))
    keep = {t: {p.doc_id for p in pl.postings} for t, pl in pruned.lists.items()}
    keep[term].discard(pruned.lists[term].postings[0].doc_id)
    write_index(subset_index(pruned, keep), out)
    r.check_pruned(base, out, extra)
    expect(r.failed > 0, "a lost posting went unnoticed")
    failed = r.failed
    data = bytearray(Path(out).read_bytes())
    data[len(data) // 2] ^= 0xFF
    Path(out).write_bytes(bytes(data))
    r.check_pruned(base, out, extra)
    expect(r.failed > failed, "a flipped byte went unnoticed")


def check_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, result = run("em-dynamic", 0, cwd=bare)
    expect(proc.returncode != 0 and result is None,
           f"without sources: exit {proc.returncode}, result {result}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH))
    from run import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(WORKLOADS), f"workloads {names} vs {sorted(WORKLOADS)}")
    for name in names:
        proc, result = run(name, 0)
        check_result(proc, result, spec["end_to_end"], f"{name} --trace 0")
        first = report(name)
        kinds = {c["check"] for c in first["checks"]}
        threshold = WORKLOADS[name].prunes[0][1] in ("tcp", "ipu", "2n2p")
        expected = COMMON_CHECKS | {"epsilon tuned" if threshold else "per-term budget met"}
        expect(expected <= kinds, f"{name}: checks missing: {expected - kinds}")
        expect(all(c["ok"] for c in first["checks"]), f"{name}: a check failed")
        proc, result = run(name, 0)
        check_result(proc, result, spec["end_to_end"], f"{name} --trace 0, repeat")
        expect(report(name)["digests"] == first["digests"], f"{name}: digests differ between repeats")
        proc, result = run(name, 1)
        check_result(proc, result, spec["per_layer"], f"{name} --trace 1")
        spans = ROOT / ".bench_out" / f"{name}-traced" / "spans.jsonl"
        expect(spans.is_file() and len(spans.read_text().splitlines()) > 1, f"{name}: no spans")
        print(f"ok {name}")
    check_damage_is_caught()
    print("ok output checks catch damage")
    check_without_sources()
    print("ok no result without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
