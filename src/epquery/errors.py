"""Exception types shared across the package."""


class EpqError(Exception):
    """Base class for every error raised by this library."""


class SignatureMismatch(EpqError):
    """Operands disagree on the relational signature."""


class ParseError(EpqError):
    """Malformed text input; carries a 1-based source position when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{message} ({where})"
        super().__init__(message)
        self.line = line
        self.column = column


class FragmentError(EpqError):
    """A formula lies outside the fragment an operation requires."""


# Default resource guards, shared by every function and subcommand that takes them.
MAX_NODES = 10_000_000  # homomorphism search nodes
MAX_DISJUNCTS = 10_000  # primitive positive disjuncts of one sentence
MAX_EXACT_TW = 20  # universe size for exact treewidth
MAX_CORE = 24  # universe size for core computation
MAX_ISOMORPHIC = 12  # universe size for the isomorphism test
MAX_TUPLES = 1_000_000  # tuples of one explicitly expanded gdnf relation
MAX_ROWS = 10_000_000  # rows of one bounded-variable relation
MAX_WORK = 10_000_000  # naive evaluation's work estimate


class LimitExceeded(EpqError):
    """A configurable resource guard was hit before the operation finished."""

    def __init__(self, what, limit):
        super().__init__(f"{what}: limit of {limit} exceeded")
        self.what = what
        self.limit = limit
