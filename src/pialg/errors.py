"""Exception types shared across the package."""


class PialgError(Exception):
    """Base class for all errors raised by this package."""


class MissingTableData(PialgError):
    """A required table entry (Q_k, HZ-homology, quadratic module) is absent."""


class NotStableRange(PialgError):
    """The stable checker was invoked outside k <= n - 2."""


class UnsupportedRegime(PialgError):
    """The realizability criterion needs gamma data the tables cannot supply."""


class MalformedStructureMap(PialgError):
    """A structure map does not respect the relations of its domain."""


class TableFormatError(PialgError):
    """A table overlay failed to parse; message carries file/line context."""


class ProblemFormatError(PialgError):
    """A problem file is not a JSON object or lacks or garbles a required field."""


class InconsistentTables(PialgError):
    """Merged tables violate a consistency invariant (orders, exponent rule)."""


class BoundExceeded(PialgError):
    """A brute-force computation or survey would exceed its configured size."""
