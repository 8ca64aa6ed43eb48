"""Command-line entry point.

One binary, eight subcommands, wiring corpus -> index -> aspects -> prune
-> query -> eval.  Every file-producing run writes a manifest JSON next to
its main output with the full parameter set, so any artifact can be
re-created from its manifest alone.  All randomness sits behind --seed;
manifests carry no timestamps, so reruns are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys

from . import __version__
from .aspects import (
    ASPECT_MODELS,
    DEFAULT_LAMBDA_W,
    build_aspect_sets,
    fd_window_size,
    index_time_hull,
    term_aspects,
    term_time_series,
)
from .corpus import parse_corpus, tokenize
from .errors import TempopruneError
from .evaluation import (
    DISCOUNTS,
    INTERVAL_DAYS,
    all_relevant_qrels,
    evaluate_queries,
    evaluate_results,
    generate_temporal_queries,
    read_qrels,
    read_queries,
    read_run,
    read_topics,
    sweep,
    write_qrels,
    write_queries,
)
from .gmm import DEFAULT_K_MAX
from .index import (
    build_index,
    pruning_ratio,
    read_index,
    verify_index,
    write_index,
)
from .prune import JM_LAMBDA, METHODS, TCP_K, check_prune_args, prune_index
# Unused here: bench/spans.py patches them as cli names.
from .prune import diversified_topk_prune, threshold_prune, tune_epsilon  # noqa: F401
from .search import DEFAULT_DEPTH, Query, parse_time_spec, run_query, trec_run_lines
from .timewindows import day_to_date

log = logging.getLogger(__name__)

def _write_manifest(out_path: str, subcommand: str, args: argparse.Namespace, **extra) -> None:
    payload = {
        "subcommand": subcommand,
        "version": __version__,
        "parameters": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
    }
    payload.update(extra)
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_build(args) -> int:
    corpus = parse_corpus(args.corpus, fmt=args.format, stop_words=not args.keep_stopwords)
    index = build_index(corpus)
    verify_index(index)
    write_index(index, args.out)
    _write_manifest(args.out, "build", args)
    print(
        f"built {args.out}: {index.stats.n_docs} docs, {len(index.lists)} terms, "
        f"{index.posting_count()} postings"
    )
    return 0


def _cmd_verify(args) -> int:
    index = read_index(args.index)
    verify_index(index)
    print(
        f"{args.index}: ok ({index.stats.n_docs} docs, {len(index.lists)} terms, "
        f"{index.posting_count()} postings, pruned={index.pruned})"
    )
    return 0


def _cmd_windows(args) -> int:
    index = read_index(args.index)
    series = term_time_series(index, args.term, args.presence_only)
    record: dict = {
        "term": args.term,
        "model": args.model,
        "n_points": series.n_points,
        "series": [[day, series.counts[day]] for day in sorted(series.counts)],
    }
    if series.counts:
        if args.model != "dynamic":
            record["gamma"] = fd_window_size(series)
        aset = term_aspects(series, args.model, args.lambda_w, args.seed, args.k_max)
        record["aspects"] = [
            {
                "window": [a.window.b_lo, a.window.b_hi, a.window.e_lo, a.window.e_hi],
                "window_iso": a.window.to_iso(),
                "weight": a.weight,
                "global": a.is_global,
                "center": a.center,
            }
            for a in aset.aspects
        ]
    else:
        record["aspects"] = []
    text = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, "windows", args)
    else:
        print(text)
    if args.hist_csv:
        with open(args.hist_csv, "w", encoding="utf-8") as fh:
            fh.write("day,date,count\n")
            for day in sorted(series.counts):
                fh.write(f"{day},{day_to_date(day).isoformat()},{series.counts[day]}\n")
    return 0


def _cmd_prune(args) -> int:
    index = read_index(args.infile)
    level = {"ratio": args.ratio, "k": args.k, "epsilon": args.epsilon}
    model = check_prune_args(args.method, **level).aspect_model
    aspect_sets = None
    if model is not None:
        aspect_sets = build_aspect_sets(
            index, model, args.lambda_w, args.seed, args.k_max, args.presence_only
        )
    pruned, extra = prune_index(
        index, args.method, **level, aspect_sets=aspect_sets, zk=args.zk, lam=args.jm_lambda
    )
    extra["method"] = args.method
    achieved = pruning_ratio(index, pruned)
    write_index(pruned, args.out)
    _write_manifest(args.out, "prune", args, achieved_ratio=achieved, **extra)
    print(f"pruned {args.infile} -> {args.out}: achieved ratio {achieved:.6f}")
    return 0


def _cmd_query(args) -> int:
    index = read_index(args.index)
    terms = tokenize(args.q, stop_words=not args.keep_stopwords)
    constraint = frozenset({parse_time_spec(args.time)}) if args.time else None
    kind = args.kind
    if kind is None:
        kind = "exclusive" if constraint else "inclusive"
    query = Query(qid=args.qid, terms=terms, time_constraint=constraint, kind=kind)
    result = run_query(index, query, args.depth)
    lines = trec_run_lines(result, args.tag)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        _write_manifest(args.out, "query", args, n_hits=len(result.hits))
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_genqueries(args) -> int:
    index = read_index(args.index)
    topics = read_topics(args.topics)
    if args.span:
        lo, hi = (int(p) for p in args.span.split(","))
        span = (lo, hi)
    else:
        span = index_time_hull(index)
    queries = generate_temporal_queries(
        topics, span, args.interval, args.n, args.seed, index,
        stop_words=not args.keep_stopwords,
    )
    write_queries(queries, args.out)
    _write_manifest(args.out, "genqueries", args, n_queries=len(queries))
    print(f"wrote {len(queries)} queries to {args.out}")
    if args.qrels_out:
        qrels = all_relevant_qrels(queries, index)
        write_qrels(qrels, args.qrels_out)
        print(f"wrote {len(qrels.grades)} judgments to {args.qrels_out}")
    return 0


def _cmd_eval(args) -> int:
    qrels = read_qrels(args.qrels)
    if args.run:
        results = read_run(args.run)
        map_, ndcg_, n = evaluate_results(results, qrels, args.depth, args.discount)
    else:
        index = read_index(args.index)
        queries = read_queries(args.queries)
        map_, ndcg_, n = evaluate_queries(index, queries, qrels, args.depth, args.discount)
    print(f"map={map_:.6f} ndcg={ndcg_:.6f} n_queries={n}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"map": map_, "ndcg": ndcg_, "n_queries": n}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(args.out, "eval", args)
    return 0


def _cmd_sweep(args) -> int:
    index = read_index(args.index)
    queries = read_queries(args.queries)
    qrels = read_qrels(args.qrels)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    ratios = [float(r) for r in args.ratios.split(",")]
    report = sweep(
        index, queries, qrels, methods, ratios,
        lambda_w=args.lambda_w, lam=args.jm_lambda, zk=args.zk, seed=args.seed,
        depth=args.depth, discount=args.discount, k_max=args.k_max,
        presence_only=args.presence_only,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.to_csv_lines()) + "\n")
    with open(args.out + ".details.json", "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    _write_manifest(args.out, "sweep", args)
    print(f"wrote {len(report.rows)} rows to {args.out}")
    return 0


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def _add_aspect_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-w", type=float, default=DEFAULT_LAMBDA_W, dest="lambda_w")
    p.add_argument("--k-max", type=int, default=DEFAULT_K_MAX, dest="k_max")
    p.add_argument("--presence-only", action="store_true")
    _add_seed(p)


def _add_method_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--zk", type=int, default=TCP_K, help="tcp cutoff depth")
    p.add_argument("--jm-lambda", type=float, default=JM_LAMBDA, dest="jm_lambda")
    _add_aspect_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempoprune",
        description="Build, prune, and evaluate temporal inverted indexes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build", help="build an index from a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("jsonl", "trec"), default="jsonl")
    p.add_argument("--keep-stopwords", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check index invariants")
    p.add_argument("index")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("windows", help="dump a term's time series and aspects")
    p.add_argument("--index", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--model", choices=ASPECT_MODELS, default="simple")
    p.add_argument("--out", help="JSON output path (default: stdout)")
    p.add_argument("--hist-csv", help="optional plot-ready day histogram CSV")
    _add_aspect_args(p)
    p.set_defaults(func=_cmd_windows)

    p = sub.add_parser("prune", help="statically prune an index")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--k", type=int, help="fixed per-term depth (div-*)")
    p.add_argument("--ratio", type=float, help="target pruning ratio")
    p.add_argument("--epsilon", type=float, help="direct threshold (tcp/ipu/2n2p)")
    _add_method_args(p)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("query", help="run one query, TREC run output")
    p.add_argument("--index", required=True)
    p.add_argument("--q", required=True, help="query text")
    p.add_argument("--time", help="window: 'b_lo,b_hi,e_lo,e_hi' or YYYY[-MM[-DD]]")
    p.add_argument("--kind", choices=("inclusive", "exclusive"))
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--qid", default="q1")
    p.add_argument("--tag", default="tempoprune")
    p.add_argument("--keep-stopwords", action="store_true")
    p.add_argument("--out", help="run file path (default: stdout)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("genqueries", help="generate exclusive temporal queries")
    p.add_argument("--index", required=True)
    p.add_argument("--topics", required=True, help="JSONL: qid, title, description")
    p.add_argument("--interval", choices=INTERVAL_DAYS, default="weekly")
    p.add_argument("--n", type=int, default=100, help="kept draws target")
    p.add_argument("--span", help="day range lo,hi (default: index hull)")
    p.add_argument("--out", required=True)
    p.add_argument("--qrels-out", dest="qrels_out",
                   help="also write all-relevant judgments")
    p.add_argument("--keep-stopwords", action="store_true")
    _add_seed(p)
    p.set_defaults(func=_cmd_genqueries)

    p = sub.add_parser("eval", help="MAP/NDCG for queries or a run file")
    p.add_argument("--index")
    p.add_argument("--queries")
    p.add_argument("--run", help="evaluate an existing TREC run file instead")
    p.add_argument("--qrels", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--discount", choices=DISCOUNTS, default="ln")
    p.add_argument("--out", help="optional JSON output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="MAP/NDCG vs pruning ratio, CSV output")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--methods", required=True, help=f"comma list from {','.join(METHODS)}")
    p.add_argument("--ratios", required=True, help="comma list of target ratios")
    p.add_argument("--out", required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--discount", choices=DISCOUNTS, default="ln")
    _add_method_args(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "eval" and not (args.run or (args.index and args.queries)):
        parser.error("eval needs --run, or both --index and --queries")
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (TempopruneError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
