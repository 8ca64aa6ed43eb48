"""Temporal-diversity index pruning toolkit.

Builds inverted indexes over time-stamped corpora, derives per-term
temporal aspects, and statically prunes posting lists so that every
distinct period of a term's usage keeps retrievable representation.
"""

__version__ = "0.1.0"

from .aspects import (
    Aspect,
    AspectSet,
    TermTimeSeries,
    build_aspect_sets,
    dynamic_windows,
    fd_window_size,
    simple_windows,
    sliding_windows,
    smooth,
    term_aspects,
    term_time_series,
)
from .corpus import Corpus, Document, parse_corpus, tokenize, write_corpus
from .errors import (
    CorpusFormatError,
    EvalFormatError,
    FitError,
    IndexConsistencyError,
    IndexFormatError,
    PruneError,
    QueryError,
    SelectionExhausted,
    TempopruneError,
    TermNotFoundError,
)
from .evaluation import (
    EvalReport,
    Qrels,
    Topic,
    all_relevant_qrels,
    average_precision,
    evaluate_queries,
    generate_temporal_queries,
    ndcg,
    sweep,
)
from .gmm import GmmFit, fit_gmm, select_k_bic
from .index import (
    InvertedIndex,
    Posting,
    build_index,
    pruning_ratio,
    read_index,
    subset_index,
    verify_index,
    write_index,
)
from .prune import (
    METHODS,
    RelevanceList,
    check_prune_args,
    cut,
    diversify,
    k_for,
    next_best,
    posting_order,
    prune_index,
    relevance_scores,
    tune_epsilon,
)
from .search import Query, RankedResult, parse_time_spec, run_query
from .timewindows import TimeWindow, day_number, intersect

__all__ = [name for name in dir() if not name.startswith("_")]
