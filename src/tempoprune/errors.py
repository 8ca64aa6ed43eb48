"""Exception types shared across the toolkit."""


class TempopruneError(Exception):
    """Base class for all toolkit errors."""


class CorpusFormatError(TempopruneError):
    """Unparseable corpus input, or a corpus with no usable documents."""


class TermNotFoundError(TempopruneError, KeyError):
    """Requested term has no posting list."""


class IndexConsistencyError(TempopruneError):
    """Index state violates a structural invariant."""


class IndexFormatError(TempopruneError):
    """Bad magic bytes, unsupported version, truncation, or checksum mismatch."""


class PruneError(TempopruneError):
    """Invalid pruning request (missing aspects, bad config)."""


class FitError(TempopruneError):
    """A mixture fit broke an EM invariant: the log-likelihood decreased."""


class QueryError(TempopruneError):
    """Malformed query (no terms, missing time constraint, bad time spec)."""


class EvalFormatError(TempopruneError, ValueError):
    """Malformed qrels or run file line (still a ValueError, as before)."""
