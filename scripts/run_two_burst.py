#!/usr/bin/env python3
"""Pruning-method comparison on the two-burst corpus.

The probe term bursts twice: a high-relevance burst (tf 3) and a later
low-relevance one (tf 1).  TCP and 2N2P drop the whole second burst from
ratio 0.5 on, so exclusive queries aimed at it collapse to MAP 0;
aspect-aware pruning keeps a representative of each burst alive.  (IP-u's
global entropy threshold happens to spare the weak burst on this corpus.)
For each target ratio this script prunes with every method, counts the
surviving second-burst postings, and evaluates the probe queries.
"""
import argparse
import csv
from pathlib import Path

from tempoprune.aspects import build_aspect_sets
from tempoprune.evaluation import evaluate_queries
from tempoprune.index import build_index, pruning_ratio
from tempoprune.prune import prune_index
from tempoprune.synth import two_burst_corpus, two_burst_queries


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ratios", default="0.3,0.5,0.7")
    ap.add_argument("--lambda-w", type=float, default=0.0, dest="lambda_w",
                    help="global-aspect smoothing for the diversified pruner")
    ap.add_argument("--out", default="out/two_burst.csv")
    args = ap.parse_args()
    ratios = [float(r) for r in args.ratios.split(",")]

    corpus, spec = two_burst_corpus()
    index = build_index(corpus)
    queries, qrels = two_burst_queries(spec)
    aspect_sets = build_aspect_sets(index, "simple", lambda_w=args.lambda_w, seed=0)
    b_ids = set(spec.b_doc_ids)
    print(f"corpus: {len(corpus.documents)} docs, {index.posting_count()} postings; "
          f"probe term {spec.term!r} in {len(spec.a_doc_ids)}+{len(spec.b_doc_ids)} docs")

    rows = []
    for ratio in ratios:
        for method in ("tcp", "ipu", "2n2p", "div-simple"):
            pruned, _ = prune_index(index, method, ratio=ratio, aspect_sets=aspect_sets)
            rows.append((method, ratio, pruned))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    print(f"\n{'method':<12}{'target':>8}{'achieved':>10}{'b-alive':>9}{'map':>8}{'ndcg':>8}")
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "target", "achieved", "b_alive", "map", "ndcg"])
        for method, ratio, pruned in rows:
            achieved = pruning_ratio(index, pruned)
            survivors = pruned.lists.get(spec.term)
            b_alive = sum(p.doc_id in b_ids for p in survivors.postings) if survivors else 0
            map_, ndcg_, _ = evaluate_queries(pruned, queries, qrels)
            print(f"{method:<12}{ratio:>8.2f}{achieved:>10.4f}{b_alive:>9}"
                  f"{map_:>8.3f}{ndcg_:>8.3f}")
            writer.writerow([method, f"{ratio:.2f}", f"{achieved:.6f}", b_alive,
                             f"{map_:.6f}", f"{ndcg_:.6f}"])
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
