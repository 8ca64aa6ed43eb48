"""What the benchmark in bench/ relies on: the names its tracer patches
exist, every import kept only for the tracer is still patched, every
workload's `prune` arguments parse and are accepted, and the library
attributes its checks and counters read are there.

Both bench modules are imported read-only; importing them runs nothing.
"""
import ast
import importlib.util
import sys
from pathlib import Path

from tempoprune import gmm
from tempoprune.aspects import build_aspect_sets
from tempoprune.cli import build_parser
from tempoprune.corpus import Corpus, Document
from tempoprune.index import build_index
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


def test_posting_records_the_bench_reads():
    # bench/run.py and bench/selftest.py compare pruned lists, and
    # bench/spans.py counts scored postings, through `PostingList.postings`
    index = build_index(Corpus(documents=[Document("d1", ["a", "b"]), Document("d2", ["a"])]))
    assert [p.doc_id for p in index.lists["a"].postings] == ["d1", "d2"]
    assert len(index.lists["b"].postings) == 1


def test_aspect_set_counts_the_tracer_reads():
    # bench/spans.py records `aspects.build` from `len(out)` and `out.values()`
    index = build_index(Corpus(documents=[Document("d1", ["a", "b"]), Document("d2", ["a"])]))
    sets = build_aspect_sets(index, "simple")
    tracer = spans.Tracer()
    tracer._record("aspects.build", sets, (index, "simple"), {})
    assert tracer.counts["aspects.terms"] == 2
    assert tracer.counts["aspects.count"] == len(sets["a"].aspects) + len(sets["b"].aspects)


def test_fit_max_iter_default_the_tracer_reads():
    # bench/spans.py counts fits that stop at `fit_gmm`'s default max_iter
    assert isinstance(gmm.fit_gmm.__kwdefaults__["max_iter"], int)


def test_every_tracer_only_import_is_traced():
    # An import kept only for the tracer is marked `# noqa: F401`; once
    # bench/spans.py stops patching the name, delete the import.
    traced = {(module.__name__, attr) for module, attr, _ in spans.SPANNED + spans.COUNTED}
    src = Path(__file__).resolve().parent.parent / "src" / "tempoprune"
    kept = [
        (f"tempoprune.{path.stem}", alias.name)
        for path in sorted(src.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "# noqa: F401" in line
        for alias in ast.parse(line.split("#")[0]).body[0].names
    ]
    assert kept
    assert [name for name in kept if name not in traced] == []
