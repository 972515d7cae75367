"""Exception and warning types shared across the package."""


class UILogError(Exception):
    """Base class for every error raised by this package."""


class NoTargetError(UILogError):
    """The event carries no UI hierarchy association at any level."""


class DanglingReferenceError(UILogError):
    """A reference points at a node that is not part of the hierarchy."""

    def __init__(self, message, node_id=None):
        super().__init__(message)
        self.node_id = node_id


class CycleError(UILogError):
    """A parent chain in the UI hierarchy does not terminate."""


class InvalidLogError(UILogError):
    """The log failed validation; see the attached report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnserializableValueError(UILogError):
    """An attribute value cannot be represented in the output format."""


class MalformedDocumentError(UILogError):
    """The input document (XES or CSV text) is not a readable log."""


class MissingConceptNameError(MalformedDocumentError):
    """An event in the document has no concept:name attribute."""


class MissingColumnError(UILogError):
    """A mapped column is absent from the table header."""


class NoUsableColumnsError(UILogError):
    """No header column could be matched to a model field."""


class BadLiteralError(UILogError):
    """A cell does not parse as the map/list literal it claims to be."""


class MissingCaseAttributeError(UILogError):
    """Events lack the attribute a case notion partitions by."""

    def __init__(self, message, event_indices=()):
        super().__init__(message)
        self.event_indices = tuple(event_indices)


class MissingTimestampsError(UILogError):
    """A time-gap case notion needs timestamps on every event."""

    def __init__(self, message, event_indices=()):
        super().__init__(message)
        self.event_indices = tuple(event_indices)


class BadConfigError(UILogError, ValueError):
    """A mapping, case notion, or rules file, or a csv delimiter, cannot
    be interpreted."""


class UnknownGroupError(UILogError):
    """An abstraction rule names a UI group the hierarchy does not hold."""


class TriggerNeverFiresWarning(UserWarning):
    """An in-group run ended without its trigger; events pass through."""
