"""Exception types shared across the package."""


class McrxError(Exception):
    """Base class for all package errors."""


class LayeringError(McrxError):
    """An article's runs name a node that is not a word."""


class MissingNodeError(McrxError):
    """A node id or label, or an action id, is not known."""


class DuplicateDocumentError(McrxError):
    """A document id is already present in the knowledge base."""


class EmptyDocumentError(McrxError):
    """A document has no tokens left after segmentation."""


class StaleWeightsError(McrxError):
    """Word weights have not been (re)computed since the last insertion."""


class IndexFormatError(McrxError):
    """An index file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class VersionMismatchError(McrxError):
    """An index file declares an unsupported format version."""


class CorpusFormatError(McrxError):
    """A corpus input file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnscorableQueryError(McrxError):
    """No finite percentage: the query's self score is zero, or a score
    lies past the float range (attention multipliers near 1e308)."""

    def __init__(self, unknown_words: int | None = None):
        if unknown_words is None:
            message = (
                "scores cannot be normalized: zero self score, "
                "or a value past the float range"
            )
        else:
            message = (
                f"query shares no vocabulary with the index "
                f"({unknown_words} unknown words)"
            )
        super().__init__(message)
        self.unknown_words = unknown_words


class EmptyIndexError(McrxError):
    """The knowledge base contains no documents."""


class UnknownLabelError(McrxError):
    """A watched or rule label resolves to no node."""


class NoCandidateError(McrxError):
    """A solution generator produced no candidate at all."""


class InvalidDemonstrationError(McrxError):
    """A demonstration contains a step no known or unit action explains."""


class NoActionsError(McrxError):
    """The action knowledge base is empty; nothing to plan with."""
