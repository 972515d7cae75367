"""uilog: a data model and toolkit for user-interaction logs.

The package covers the full preprocessing path of low-level UI
recordings: a typed in-memory model with a four-level UI composition
hierarchy, whole-log validation and attribute-coverage statistics, XES
interchange through the "uilog" extension, ingestion of raw CSV
recordings, and the two point-of-use transforms (case segmentation and
UI-group abstraction). The ``uilog`` command line wires them into batch
pipelines.

Every public name below is importable from the package, but its module
is imported on first use (PEP 562), so a program loads only the modules
it touches. The submodules resolve the same way: ``uilog.tabular``
works after a bare ``import uilog``.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule and the public names the package re-exports from it.
_EXPORTS = {
    "errors": (
        "BadConfigError",
        "BadLiteralError",
        "CycleError",
        "DanglingReferenceError",
        "InvalidLogError",
        "MalformedDocumentError",
        "MissingCaseAttributeError",
        "MissingColumnError",
        "MissingConceptNameError",
        "MissingTimestampsError",
        "NoTargetError",
        "NoUsableColumnsError",
        "TriggerNeverFiresWarning",
        "UILogError",
        "UnknownGroupError",
        "UnserializableValueError",
    ),
    "extension": (
        "EXTENSION_KEYS",
        "emit_extension_definition",
    ),
    "model": (
        "Action",
        "ApplicationNode",
        "HierarchyBuilder",
        "InteractionEvent",
        "Level",
        "MAX_NESTING_DEPTH",
        "SystemNode",
        "Target",
        "Trace",
        "UIElementNode",
        "UIGroupNode",
        "UIHierarchy",
        "UILog",
        "join_group_path",
        "level_of",
        "make_activity_name",
        "normalize_timestamp",
        "normalize_value",
        "parent_of",
        "split_group_path",
    ),
    "tabular": (
        "ColumnMapping",
        "IngestReport",
        "infer_mapping",
        "ingest",
        "load_mapping",
        "write_table",
    ),
    "transform": (
        "AbstractionRule",
        "ByAttribute",
        "ByMarker",
        "ByTimeGap",
        "CaseNotion",
        "Composite",
        "abstract",
        "load_case_notion",
        "load_rules",
        "segment",
    ),
    "validation": (
        "Coverage",
        "LogProfile",
        "ValidationReport",
        "Violation",
        "ViolationCode",
        "coverage",
        "profile",
        "render_coverage",
        "render_profile",
        "render_report",
        "report_records",
        "validate",
    ),
    "xes": (
        "read_xes",
        "write_xes",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
