"""uilog: a data model and toolkit for user-interaction logs.

The package covers the full preprocessing path of low-level UI
recordings: a typed in-memory model with a four-level UI composition
hierarchy, whole-log validation and attribute-coverage statistics, XES
interchange through the "uilog" extension, ingestion of raw CSV
recordings, and the two point-of-use transforms (case segmentation and
UI-group abstraction). The ``uilog`` command line wires them into batch
pipelines.
"""

from .errors import (
    BadConfigError,
    BadLiteralError,
    CycleError,
    DanglingReferenceError,
    InvalidLogError,
    MalformedDocumentError,
    MissingCaseAttributeError,
    MissingColumnError,
    MissingConceptNameError,
    MissingTimestampsError,
    NoTargetError,
    NoUsableColumnsError,
    TriggerNeverFiresWarning,
    UILogError,
    UnknownGroupError,
    UnserializableValueError,
)
from .model import (
    Action,
    ApplicationNode,
    HierarchyBuilder,
    InteractionEvent,
    Level,
    MAX_NESTING_DEPTH,
    SystemNode,
    Target,
    Trace,
    UIElementNode,
    UIGroupNode,
    UIHierarchy,
    UILog,
    join_group_path,
    level_of,
    make_activity_name,
    normalize_timestamp,
    normalize_value,
    parent_of,
    split_group_path,
)
from .tabular import (
    ColumnMapping,
    IngestReport,
    infer_mapping,
    ingest,
    load_mapping,
    write_table,
)
from .transform import (
    AbstractionRule,
    ByAttribute,
    ByMarker,
    ByTimeGap,
    CaseNotion,
    Composite,
    abstract,
    flatten,
    load_case_notion,
    load_rules,
    segment,
)
from .validation import (
    Coverage,
    LogProfile,
    ValidationReport,
    Violation,
    ViolationCode,
    coverage,
    profile,
    render_coverage,
    render_profile,
    render_report,
    report_records,
    validate,
)
from .xes import (
    EXTENSION_KEYS,
    emit_extension_definition,
    read_xes,
    write_xes,
)

__version__ = "0.1.0"
