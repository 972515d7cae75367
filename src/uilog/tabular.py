"""Ingestion of delimiter-separated UI logs via a declarative column map.

Raw recordings usually arrive as one CSV row per interaction. A
:class:`ColumnMapping` says which column feeds which model field; when no
mapping is given, :func:`infer_mapping` matches header names against a
synonym table. Cells may carry flat map and list literals in the shape
raw recorders tend to print::

    {username: pren, password: dts123}
    [keyword, keywords folder]

Values are trimmed and stay text; a delimiter that is part of a value is
escaped by doubling it. :func:`write_table` is the inverse writer and
reproduces the mapped cell values modulo whitespace trimming.

Timestamps are optional throughout: many recorders omit them and rely
on row order, which the model supports.
"""

from __future__ import annotations

import configparser
import csv
import io
import re
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    BadConfigError,
    BadLiteralError,
    MalformedDocumentError,
    MissingColumnError,
    NoUsableColumnsError,
)
from .model import (
    Action,
    HierarchyBuilder,
    InteractionEvent,
    UILog,
    _trusted,
    format_timestamp,
    join_group_path,
    make_activity_name,
    normalize_timestamp,
    parse_timestamp,
    split_group_path,
)

#: Model fields a column can feed, in canonical output order.
FIELDS = (
    "activity_name",
    "action_type",
    "ui_element",
    "ui_group_path",
    "application",
    "system",
    "input_value",
    "current_state",
    "timestamp",
    "user",
    "task",
)

#: Canonical header spelling used by the inverse writer.
CANONICAL_HEADERS = {
    "activity_name": "Activity",
    "action_type": "Action type",
    "ui_element": "UI element",
    "ui_group_path": "UI group",
    "application": "Application",
    "system": "System",
    "input_value": "Input value",
    "current_state": "Current state",
    "timestamp": "Timestamp",
    "user": "User",
    "task": "Task",
}

_SYNONYMS = {
    "activity": "activity_name",
    "activity name": "activity_name",
    "event name": "activity_name",
    "action": "action_type",
    "action type": "action_type",
    "ui element": "ui_element",
    "element": "ui_element",
    "target": "ui_element",
    "target element": "ui_element",
    "ui group": "ui_group_path",
    "ui group path": "ui_group_path",
    "group": "ui_group_path",
    "group path": "ui_group_path",
    "application": "application",
    "app": "application",
    "system": "system",
    "host": "system",
    "input value": "input_value",
    "input": "input_value",
    "current state": "current_state",
    "state": "current_state",
    "timestamp": "timestamp",
    "time stamp": "timestamp",
    "time": "timestamp",
    "datetime": "timestamp",
    "date": "timestamp",
    "user": "user",
    "user id": "user",
    "username": "user",
    "resource": "user",
    "task": "task",
    "task id": "task",
}

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def _normalize_header(name: str) -> str:
    spaced = _CAMEL_BOUNDARY.sub(" ", name.strip())
    return re.sub(r"[\s_\-]+", " ", spaced).strip().lower()


@dataclass(frozen=True)
class ColumnMapping:
    """Which source column feeds which model field.

    ``value_parsers`` forces how a column's cells are read ("plain",
    "map", "list", or the default "auto", which sniffs the literal
    braces). ``extras`` says what happens to unmapped columns: "keep"
    turns them into event attributes keyed by column name, "ignore"
    drops them. ``source_columns`` remembers the original header order
    so the inverse writer can reproduce the file layout.
    """

    activity_name: Optional[str] = None
    action_type: Optional[str] = None
    ui_element: Optional[str] = None
    ui_group_path: Optional[str] = None
    application: Optional[str] = None
    system: Optional[str] = None
    input_value: Optional[str] = None
    current_state: Optional[str] = None
    timestamp: Optional[str] = None
    user: Optional[str] = None
    task: Optional[str] = None
    timestamp_format: Optional[str] = None
    value_parsers: Mapping = field(default_factory=dict)
    extras: str = "keep"
    source_columns: tuple = ()

    def __post_init__(self):
        if self.extras not in ("keep", "ignore"):
            raise ValueError(f"extras must be 'keep' or 'ignore', got {self.extras!r}")
        for column, parser in dict(self.value_parsers).items():
            if parser not in ("plain", "map", "list", "auto"):
                raise ValueError(f"unknown value parser {parser!r} for column {column!r}")
        object.__setattr__(self, "value_parsers", dict(self.value_parsers))
        object.__setattr__(self, "source_columns", tuple(self.source_columns))

    def mapped(self) -> dict:
        """field → column, for the fields that are mapped."""
        out = {}
        for name in FIELDS:
            column = getattr(self, name)
            if column is not None:
                out[name] = column
        return out

    def check_usable(self) -> None:
        """Activity names must be obtainable: either directly or by
        synthesis from action type plus some target column."""
        if self.activity_name is not None:
            return
        has_target = any(
            getattr(self, name) is not None
            for name in ("ui_element", "ui_group_path", "application", "system")
        )
        if self.action_type is not None and has_target:
            return
        raise NoUsableColumnsError(
            "mapping must provide activity_name or action_type plus a target column"
        )


def infer_mapping(header: Iterable[str]) -> ColumnMapping:
    """Guess a ColumnMapping from header names via the synonym table.

    Matching is case-insensitive and tolerant of camel case, hyphens,
    and underscores. Unmatched columns fall to the extras policy. Raises
    NoUsableColumnsError when nothing usable matches.
    """
    columns = [c.strip() for c in header]
    assignments = {}
    for column in columns:
        target_field = _SYNONYMS.get(_normalize_header(column))
        if target_field and target_field not in assignments:
            assignments[target_field] = column
    mapping = ColumnMapping(**assignments, source_columns=tuple(columns))
    mapping.check_usable()
    return mapping


# ---------------------------------------------------------------------------
# Cell literals


def _split_raw(text: str, separator: str) -> list:
    """Split on unescaped separators, leaving escape doubles in place."""
    parts = []
    current = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == separator:
            if i + 1 < len(text) and text[i + 1] == separator:
                current.append(separator * 2)
                i += 2
                continue
            parts.append("".join(current))
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


def _find_unescaped(text: str, separator: str) -> int:
    i = 0
    while i < len(text):
        if text[i] == separator:
            if i + 1 < len(text) and text[i + 1] == separator:
                i += 2
                continue
            return i
        i += 1
    return -1


def _unescape(text: str, separators: str) -> str:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in separators and i + 1 < len(text) and text[i + 1] == ch:
            out.append(ch)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _escape(text: str, separators: str) -> str:
    for separator in separators:
        text = text.replace(separator, separator * 2)
    return text


def parse_map_literal(text: str) -> dict:
    """Parse "{k: v, k: v}" into a map of text values.

    Keys and values are trimmed; a literal "," or ":" inside them is
    written doubled.
    """
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise BadLiteralError(f"not a map literal: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return {}
    out = {}
    for entry in _split_raw(inner, ","):
        colon = _find_unescaped(entry, ":")
        if colon < 0:
            raise BadLiteralError(f"map entry without key: {entry.strip()!r}")
        key = _unescape(entry[:colon].strip(), ",:")
        value = _unescape(entry[colon + 1 :].strip(), ",:")
        if not key:
            raise BadLiteralError(f"empty key in map literal: {text!r}")
        if key in out:
            raise BadLiteralError(f"duplicate key {key!r} in map literal")
        out[key] = value
    return out


def parse_list_literal(text: str) -> list:
    """Parse "[v, v]" into a list of text values."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise BadLiteralError(f"not a list literal: {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return []
    return [_unescape(item.strip(), ",") for item in _split_raw(inner, ",")]


def render_map_literal(value: Mapping) -> str:
    entries = []
    for key, item in value.items():
        entries.append(
            f"{_escape(_plain_text(key), ',:')}: {_escape(_plain_text(item), ',:')}"
        )
    return "{" + ", ".join(entries) + "}"


def render_list_literal(value: Iterable) -> str:
    # The flat grammar cannot tell [] from [""]: items are trimmed, so a
    # lone empty item reads back as the empty list.
    return "[" + ", ".join(_escape(_plain_text(item), ",") for item in value) + "]"


def _parse_cell(text: str, parser: str):
    if parser == "plain":
        return text
    if parser == "map":
        return parse_map_literal(text)
    if parser == "list":
        return parse_list_literal(text)
    # auto: sniff the literal shape
    if text.startswith("{") and text.endswith("}"):
        return parse_map_literal(text)
    if text.startswith("[") and text.endswith("]"):
        return parse_list_literal(text)
    return text


def _plain_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime):
        return _render_timestamp(value, None)
    return str(value)


def _render_timestamp(value: datetime, pattern: Optional[str]) -> str:
    if pattern:
        return value.astimezone(timezone.utc).strftime(pattern)
    return format_timestamp(value)


def _parse_row_timestamp(text: str, pattern: Optional[str]):
    """(timestamp, truncated?); truncated means sub-millisecond input."""
    if not pattern:
        return parse_timestamp(text)
    parsed = datetime.strptime(text, pattern)
    return normalize_timestamp(parsed), parsed.microsecond % 1000 != 0


# ---------------------------------------------------------------------------
# Ingest


@dataclass(frozen=True)
class IngestReport:
    """What :func:`ingest` read: the number of data rows, and, as
    ``"row N: ..."`` texts with N counting data rows from 1, the rows
    that produced no event and the warnings."""

    rows_read: int = 0
    rows_skipped: tuple = ()
    warnings: tuple = ()


def _rows(reader) -> Iterator:
    """(number, cells) per row of a csv reader, the header being row 0;
    a row the reader cannot split raises a located MalformedDocumentError."""
    number = 0
    while True:
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            where = f"row {number}" if number else "header"
            raise MalformedDocumentError(f"{where}: {exc}") from None
        yield number, cells
        number += 1


def _check_delimiter(delimiter) -> None:
    """Raise BadConfigError unless ``delimiter`` is one character that
    every supported Python's csv module splits on alike: not a quote, a
    line break or NUL."""
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in '"\r\n\0':
        raise BadConfigError(
            "delimiter must be one character other than a quote, line break or NUL, "
            f"got {delimiter!r}"
        )


def ingest(
    source: Union[str, Iterable[str]],
    mapping: Optional[ColumnMapping] = None,
    *,
    delimiter: str = ",",
) -> tuple:
    """Turn delimiter-separated text into a (UILog, IngestReport) pair.

    One event per data row, in row order; hierarchy nodes are created on
    first mention. Rows whose timestamp does not parse are skipped (noise
    tolerance), cells whose literal does not parse are kept as raw text
    with a warning, and activity names are synthesized from action type
    and target id when no activity column is mapped. A row the csv module
    cannot split, or whose group path holds an empty id, raises a
    MalformedDocumentError naming the row; a bad ``delimiter`` raises
    BadConfigError.
    """
    _check_delimiter(delimiter)
    if isinstance(source, str):
        lines = io.StringIO(source)
    else:
        lines = iter(source)
    rows = _rows(csv.reader(lines, delimiter=delimiter))
    try:
        header = [c.strip() for c in next(rows)[1]]
    except StopIteration:
        raise NoUsableColumnsError("input has no header row") from None

    if mapping is None:
        mapping = infer_mapping(header)
    else:
        mapping.check_usable()
        if not mapping.source_columns:
            mapping = replace(mapping, source_columns=tuple(header))

    positions = {}
    for name, column in mapping.mapped().items():
        try:
            positions[name] = header.index(column)
        except ValueError:
            raise MissingColumnError(
                f"mapped column {column!r} not in header {header}"
            ) from None
    parsers = mapping.value_parsers
    extra_columns = []
    if mapping.extras == "keep":
        mapped_positions = set(positions.values())
        extra_columns = [
            (i, column, parsers.get(column, "auto"))
            for i, column in enumerate(header)
            if i not in mapped_positions
        ]

    # Each row is cut or padded to the header's width plus one empty cell,
    # which stands in for every unmapped field.
    width = len(header)
    padding = [""] * (width + 1)
    (name_at, action_at, element_at, groups_at, application_at, system_at, input_at,
     state_at, timestamp_at, user_at, task_at) = (positions.get(name, width) for name in FIELDS)
    input_parser = parsers.get(mapping.input_value, "auto")
    state_parser = parsers.get(mapping.current_state, "auto")
    timestamp_format = mapping.timestamp_format

    builder = HierarchyBuilder()
    actions: dict = {}
    users: dict = {}
    tasks: dict = {}
    events = []
    skipped = []
    warnings_out = []
    row_number = 0

    def literal(text: str, parser: str, row_number: int):
        try:
            return _parse_cell(text, parser)
        except BadLiteralError as exc:
            warnings_out.append(f"row {row_number}: {exc}; kept as text")
            return text

    for row_number, row in rows:
        row = [cell.strip() for cell in row]
        if not any(row):
            skipped.append(f"row {row_number}: empty row")
            continue
        del row[width:]
        row += padding[len(row):]

        timestamp = None
        raw_ts = row[timestamp_at]
        if raw_ts:
            try:
                timestamp, truncated = _parse_row_timestamp(raw_ts, timestamp_format)
            except ValueError:
                skipped.append(f"row {row_number}: bad timestamp {raw_ts!r}")
                continue
            if truncated:
                warnings_out.append(
                    f"row {row_number}: timestamp {raw_ts!r} truncated to milliseconds"
                )

        text = row[input_at]
        input_value = literal(text, input_parser, row_number) if text else None
        text = row[state_at]
        current_state = literal(text, state_parser, row_number) if text else None

        element = row[element_at] or None
        group_cell = row[groups_at]
        groups = split_group_path(group_cell) if group_cell else ()
        application = row[application_at] or None
        system = row[system_at] or None
        if current_state is not None and element is None:
            warnings_out.append(
                f"row {row_number}: current state without a UI element; ignored"
            )
            current_state = None

        target = None
        if element or groups or application or system:
            try:
                target = builder.chain(
                    system=system, application=application, groups=groups, element=element
                )
            except ValueError as exc:  # an empty group id, as in "a//b"
                raise MalformedDocumentError(f"row {row_number}: {exc}") from None

        action_type = row[action_at] or None
        name = row[name_at]
        if not name:
            if target is None:
                skipped.append(f"row {row_number}: no activity name and no target to name it by")
                continue
            name = make_activity_name(action_type, target.most_specific_id)

        action = None
        if action_type is not None:
            action = actions.get(action_type) or actions.setdefault(
                action_type, _trusted(Action, action_type=action_type, attributes={})
            )

        user = row[user_at] or None
        if user is not None and user not in users:
            users[user] = {}
        task = row[task_at] or None
        if task is not None and task not in tasks:
            tasks[task] = {}

        attributes = {}
        for index, column, parser in extra_columns:
            text = row[index]
            if text:
                if not column:
                    raise MissingColumnError(
                        f"row {row_number}: column {index + 1} holds {text!r} but has no name"
                    )
                attributes[column] = literal(text, parser, row_number)

        events.append(
            _trusted(
                InteractionEvent,
                activity_name=name,
                action=action,
                target=target,
                input_value=input_value,
                current_state=current_state,
                timestamp=timestamp,
                user=user,
                task=task,
                attributes=attributes,
            )
        )

    log = UILog(
        events=tuple(events),
        hierarchy=builder.build(),
        users=users,
        tasks=tasks,
    )
    report = IngestReport(
        rows_read=row_number, rows_skipped=tuple(skipped), warnings=tuple(warnings_out)
    )
    return log, report


# ---------------------------------------------------------------------------
# Inverse writer


def _field_cell(event: InteractionEvent, name: str, ts_format):
    target = event.target
    if name == "activity_name":
        return event.activity_name
    if name == "action_type":
        return event.action.action_type if event.action else None
    if name == "ui_element":
        return target.element if target else None
    if name == "ui_group_path":
        return join_group_path(target.groups) if target and target.groups else None
    if name == "application":
        return target.application if target else None
    if name == "system":
        return target.system if target else None
    if name == "input_value":
        return event.input_value
    if name == "current_state":
        return event.current_state
    if name == "timestamp":
        return _render_timestamp(event.timestamp, ts_format) if event.timestamp else None
    if name == "user":
        return event.user
    if name == "task":
        return event.task
    raise KeyError(name)


def _render_cell(value, ts_format) -> str:
    if value is None:
        return ""
    if isinstance(value, str):  # most cells
        return value
    if isinstance(value, (list, tuple)):
        return render_list_literal(value)
    if isinstance(value, datetime):
        return _render_timestamp(value, ts_format)
    if isinstance(value, (dict, Mapping)):  # the ABC check is slow, so it comes last
        return render_map_literal(value)
    return _plain_text(value)


def write_table(
    log: UILog,
    mapping: Optional[ColumnMapping] = None,
    *,
    delimiter: str = ",",
) -> str:
    """Render a log back to delimiter-separated text.

    With a mapping whose ``source_columns`` are set, the original column
    layout is reproduced; otherwise the canonical headers are used for
    every populated field, extra event attributes get their own columns,
    and traced logs gain a ``Trace`` column. The tabular format is
    text-typed: numbers, booleans, and timestamps become their printed
    form. A bad ``delimiter`` raises BadConfigError.
    """
    _check_delimiter(delimiter)
    mapping = mapping or ColumnMapping()
    column_to_field = {v: k for k, v in mapping.mapped().items()}

    if mapping.source_columns:
        columns = list(mapping.source_columns)
    else:
        order = (
            log.events
            if log.traces is None
            else [log.events[i] for t in log.traces for i in t.events]
        )
        populated = {"activity_name"}
        extra_keys = []
        seen_extras = set()
        for event in order:
            for name in FIELDS:
                if name not in populated and (
                    _field_cell(event, name, mapping.timestamp_format) is not None
                ):
                    populated.add(name)
            for key in event.attributes:
                if key not in seen_extras:
                    seen_extras.add(key)
                    extra_keys.append(key)
        columns = [CANONICAL_HEADERS[name] for name in FIELDS if name in populated]
        column_to_field = {
            CANONICAL_HEADERS[name]: name for name in FIELDS if name in populated
        }
        columns.extend(extra_keys)
        if log.traces is not None:
            columns.append("Trace")

    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(columns)

    def rows():
        if log.traces is None:
            for event in log.events:
                yield event, None
        else:
            for trace in log.traces:
                for index in trace.events:
                    yield log.events[index], trace.id

    for event, trace_id in rows():
        row = []
        for column in columns:
            if column == "Trace" and column not in column_to_field:
                row.append(trace_id or "")
                continue
            name = column_to_field.get(column)
            if name is not None:
                value = _field_cell(event, name, mapping.timestamp_format)
            else:
                value = event.attributes.get(column)
            row.append(_render_cell(value, mapping.timestamp_format))
        writer.writerow(row)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Mapping files


def load_ini(text: str, kind: str, interpret: Callable):
    """Parse INI text and return what ``interpret`` makes of the parser.

    Keys keep their case and values are taken literally. Any syntax or
    value error, in parsing or in ``interpret``, is raised as a
    BadConfigError naming the ``kind`` of file.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
        return interpret(parser)
    except (configparser.Error, ValueError) as exc:
        raise BadConfigError(f"bad {kind} file: {exc}") from exc


def load_mapping(text: str) -> ColumnMapping:
    """Read a ColumnMapping from its INI form.

    Sections: ``[columns]`` maps model fields to column names,
    ``[options]`` may set ``timestamp_format`` and ``extras``, and
    ``[parsers]`` forces a parser ("plain", "map", "list", "auto") per
    column name.
    """
    return load_ini(text, "mapping", _mapping_from_ini)


def _mapping_from_ini(parser) -> ColumnMapping:
    assignments = {}
    if parser.has_section("columns"):
        for name, column in parser.items("columns"):
            if name not in FIELDS:
                raise ValueError(f"unknown model field {name!r} in [columns]")
            assignments[name] = column.strip()
    options = {}
    if parser.has_section("options"):
        for name, value in parser.items("options"):
            if name == "timestamp_format":
                options["timestamp_format"] = value.strip()
            elif name == "extras":
                options["extras"] = value.strip().lower()
            else:
                raise ValueError(f"unknown option {name!r} in [options]")
    parsers = {}
    if parser.has_section("parsers"):
        for column, kind in parser.items("parsers"):
            parsers[column] = kind.strip().lower()
    return ColumnMapping(**assignments, **options, value_parsers=parsers)
