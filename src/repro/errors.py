"""Exception hierarchy for the ``repro`` package.

All library errors derive from :class:`ReproError`, so callers embedding the
library can catch a single base class. Each subsystem raises the most specific
subclass that applies; error messages always name the offending entity.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class GeometryError(ReproError):
    """An operation was applied to an invalid or incompatible geometry."""


class IndexError_(ReproError):
    """A spatial index invariant was violated or an entry was not found.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError` while staying greppable next to it.
    """


class SchemaError(ReproError):
    """A schema, class or attribute definition is invalid or unknown."""


class TypeMismatchError(SchemaError):
    """A value does not conform to its declared attribute type."""


class ObjectNotFoundError(ReproError):
    """A database object (by oid or name) does not exist."""


class QueryError(ReproError):
    """A query is malformed or references unknown schema elements."""


class TransactionError(ReproError):
    """A transaction was used outside its legal life cycle."""


class TransactionConflictError(TransactionError):
    """First-committer-wins validation rejected a commit.

    Another transaction that committed after this transaction's snapshot
    wrote one of the objects this transaction also writes. The losing
    transaction is aborted; callers retry with a fresh snapshot (see
    :func:`repro.workloads.txn_mix.commit_with_retries`).
    """

    def __init__(self, message: str, oids: list | None = None):
        super().__init__(message)
        #: the contended object ids, for diagnostics and retry policies
        self.oids = list(oids or [])


class StorageError(ReproError):
    """The page store or serializer could not complete an operation."""


class WALError(StorageError):
    """The write-ahead log is unusable (damaged tail, bad configuration)."""


class ReplicationError(StorageError):
    """The replication stream or a follower is in an unusable state.

    Raised when log shipping is requested without a WAL, when a shipped
    batch fails validation (damaged frame, missing commit timestamp),
    when a follower is driven like a leader (write attempted, recovery
    requested), or when a read-your-writes wait cannot be satisfied.
    """


class CrashError(StorageError):
    """A (simulated) process or media crash interrupted a page operation.

    Raised by :class:`repro.geodb.FaultInjectingPager`; real deployments
    would see the underlying ``OSError`` instead. Either way the database
    instance must be discarded and reopened, which runs recovery.
    """


class RasterError(StorageError):
    """A tiled raster payload is malformed, missing or corrupt.

    Raised by the raster tile codec (CRC mismatch, truncated frame),
    by :class:`repro.geodb.raster.RasterStore` lookups of unknown
    rasters/tiles, and by windowed reads over rasters without a ground
    extent.
    """


class BufferError_(ReproError):
    """The buffer manager could not satisfy a pin/unpin request."""


class RuleError(ReproError):
    """An ECA rule definition or execution failed."""


class CascadeLimitError(RuleError):
    """Rule execution exceeded the configured cascade depth."""


class ConstraintViolationError(ReproError):
    """An integrity constraint rejected an update."""

    def __init__(self, message: str, violations: list | None = None):
        super().__init__(message)
        self.violations = list(violations or [])


class WidgetError(ReproError):
    """An interface object was composed or used incorrectly."""


class UnknownWidgetError(WidgetError):
    """A named widget class is not present in the interface library."""


class RenderError(ReproError):
    """A window could not be rendered."""


class CustomizationError(ReproError):
    """A customization directive could not be applied."""


class LanguageError(ReproError):
    """Base class for customization-language front-end errors."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class LexError(LanguageError):
    """The lexer met a character sequence that is not a token."""


class ParseError(LanguageError):
    """The token stream does not match the customization grammar."""


class SemanticError(LanguageError):
    """A directive is grammatical but inconsistent with the database
    schema or the interface objects library."""


class NetError(ReproError):
    """Base class for the network serving layer's errors."""


class ProtocolError(NetError):
    """A wire frame violates the framing or contract rules.

    Raised by the frame codec (bad length, checksum mismatch, oversized
    or non-JSON payload) and by contract validation (unknown request
    kind, missing or mistyped fields). The server answers with an error
    frame when it still can, and drops the connection when the stream
    itself is unreadable.
    """


class NetClientError(NetError):
    """The server answered a client request with an error frame.

    ``code`` carries the server-side error class name (e.g.
    ``"SchemaError"``) so callers can branch without string matching.
    """

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.code = code


class DispatchError(ReproError):
    """The dispatcher received an interaction it cannot route."""


class SessionError(ReproError):
    """A GIS session was driven outside its legal protocol."""
