#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus.

Generates a seeded corpus and a topics file, then drives every CLI stage in
order: build, verify, windows, prune, genqueries, eval, sweep.  All outputs
land in --outdir; running twice with the same seed reproduces every file.
"""
import argparse
import json
import sys
from pathlib import Path

from tempoprune.cli import main as cli
from tempoprune.corpus import write_corpus
from tempoprune.evaluation import INTERVAL_DAYS
from tempoprune.synth import random_corpus


def step(argv: list[str]) -> None:
    print(f"$ tempoprune {' '.join(argv)}")
    rc = cli(argv)
    if rc != 0:
        sys.exit(rc)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out/pipeline")
    ap.add_argument("--n-docs", type=int, default=500)
    ap.add_argument("--vocab", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-queries", type=int, default=40)
    ap.add_argument("--interval", default="weekly", choices=INTERVAL_DAYS)
    ap.add_argument("--methods", default="tcp,ipu,2n2p,div-simple,div-sliding")
    ap.add_argument("--ratios", default="0.0,0.3,0.5,0.7")
    args = ap.parse_args()

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    corpus = random_corpus(n_docs=args.n_docs, seed=args.seed, vocab_size=args.vocab)
    write_corpus(corpus, out / "corpus.jsonl")
    topics = [
        {"qid": "t-disaster", "title": "disaster", "description": "disaster w000 w001"},
        {"qid": "t-common", "title": "w000 w001"},
        {"qid": "t-mid", "title": "w005", "description": "w005 w010"},
    ]
    with open(out / "topics.jsonl", "w", encoding="utf-8") as fh:
        for t in topics:
            fh.write(json.dumps(t) + "\n")

    idx = str(out / "idx.bin")
    step(["build", "--corpus", str(out / "corpus.jsonl"), "--out", idx])
    step(["verify", idx])
    step(["windows", "--index", idx, "--term", "disaster", "--model", "dynamic",
          "--seed", str(args.seed), "--out", str(out / "disaster_windows.json"),
          "--hist-csv", str(out / "disaster_hist.csv")])
    step(["prune", "--in", idx, "--out", str(out / "pruned.bin"),
          "--method", "div-simple", "--ratio", "0.5", "--seed", str(args.seed)])
    step(["genqueries", "--index", idx, "--topics", str(out / "topics.jsonl"),
          "--interval", args.interval, "--n", str(args.n_queries),
          "--seed", str(args.seed), "--out", str(out / "queries.jsonl"),
          "--qrels-out", str(out / "qrels.txt")])
    step(["eval", "--index", str(out / "pruned.bin"), "--queries", str(out / "queries.jsonl"),
          "--qrels", str(out / "qrels.txt"), "--out", str(out / "eval_pruned.json")])
    step(["sweep", "--index", idx, "--queries", str(out / "queries.jsonl"),
          "--qrels", str(out / "qrels.txt"), "--methods", args.methods,
          "--ratios", args.ratios, "--seed", str(args.seed),
          "--out", str(out / "sweep.csv")])

    print(f"\ndone; artifacts in {out}/ (plot sweep.csv: map vs ratio per method)")


if __name__ == "__main__":
    main()
