"""What the benchmark in bench/ relies on: the names its tracer patches
exist, and every workload's `prune` arguments parse and are accepted.

Both bench modules are imported read-only; importing them runs nothing.
"""
import importlib.util
import sys
from pathlib import Path

from tempoprune.cli import build_parser
from tempoprune.prune import check_prune_args

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
bench_run = _load("run")


def test_every_traced_name_exists():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in spans.SPANNED + spans.COUNTED
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_every_workload_prune_parses():
    parser = build_parser()
    for workload in bench_run.WORKLOADS.values():
        for extra in workload.prunes:
            args = parser.parse_args(
                ["prune", "--in", "base.bin", "--out", "pruned.bin", "--seed", "1", *extra]
            )
            check_prune_args(args.method, ratio=args.ratio, k=args.k, epsilon=args.epsilon)
