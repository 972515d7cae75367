"""The package namespace: every public name resolves on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uilog

#: The names ``uilog`` exported when it imported every module eagerly.
NAMES = [
    "AbstractionRule", "Action", "ApplicationNode", "BadConfigError", "BadLiteralError",
    "ByAttribute", "ByMarker", "ByTimeGap", "CaseNotion", "ColumnMapping", "Composite",
    "Coverage", "CycleError", "DanglingReferenceError", "EXTENSION_KEYS",
    "HierarchyBuilder", "IngestReport", "InteractionEvent", "InvalidLogError", "Level",
    "LogProfile", "MAX_NESTING_DEPTH", "MalformedDocumentError",
    "MissingCaseAttributeError", "MissingColumnError", "MissingConceptNameError",
    "MissingTimestampsError", "NoTargetError", "NoUsableColumnsError", "SystemNode",
    "Target", "Trace", "TriggerNeverFiresWarning", "UIElementNode", "UIGroupNode",
    "UIHierarchy", "UILog", "UILogError", "UnknownGroupError",
    "UnserializableValueError", "ValidationReport", "Violation", "ViolationCode",
    "__version__", "abstract", "coverage", "emit_extension_definition", "errors",
    "infer_mapping", "ingest", "join_group_path", "level_of", "load_case_notion",
    "load_mapping", "load_rules", "make_activity_name", "model", "normalize_timestamp",
    "normalize_value", "parent_of", "profile", "read_xes", "render_coverage",
    "render_profile", "render_report", "report_records", "segment", "split_group_path",
    "tabular", "transform", "validate", "validation", "write_table", "write_xes", "xes",
]


@pytest.mark.parametrize("name", NAMES)
def test_public_name_imports_and_is_listed(name):
    namespace = {}
    exec(f"from uilog import {name}", namespace)
    assert namespace[name] is getattr(uilog, name)
    assert name in dir(uilog)


def test_star_import_binds_all():
    namespace = {}
    exec("from uilog import *", namespace)
    assert uilog.__all__
    for name in uilog.__all__:
        assert namespace[name] is getattr(uilog, name)


def test_names_come_from_their_modules():
    assert uilog.ingest is uilog.tabular.ingest
    assert uilog.validate is uilog.validation.validate
    assert uilog.UILog is uilog.model.UILog


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        uilog.nope
    with pytest.raises(ImportError):
        exec("from uilog import flatten", {})


def test_submodules_resolve_after_a_bare_import():
    script = (
        "import sys, uilog\n"
        "assert 'uilog.tabular' not in sys.modules\n"
        "print(uilog.tabular.ingest.__module__, uilog.xes.validate.__module__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(uilog.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["uilog.tabular", "uilog.validation"]
