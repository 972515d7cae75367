"""Ingestion of delimiter-separated UI logs via a declarative column map.

Raw recordings usually arrive as one CSV row per interaction. A
:class:`ColumnMapping` says which column feeds which model field; when no
mapping is given, :func:`infer_mapping` matches header names against a
synonym table. Cells may carry flat map and list literals in the shape
raw recorders tend to print::

    {username: pren, password: dts123}
    [keyword, keywords folder]

Cells are trimmed. Literal items are trimmed and stay text; a "," or ":"
that is part of an item is written doubled. A value cell (input value,
current state or extra attribute) between apostrophes, as in
``' padded '``, is text taken as it stands, never read as a literal.
:func:`write_table` is the inverse writer. It wraps in apostrophes
exactly the text values that would not read back as themselves: empty,
padded, literal-shaped or apostrophe-wrapped text. So text values
round-trip exactly, and so do lists and maps of trimmed items. A list or
map item is written as its own literal and reads back as that text,
which writes the same cell again. The writer reads each column by its
position, and writes the canonical column of any field an extra
attribute key is a synonym of, so the key reads back as an attribute.

Timestamps are optional throughout: many recorders omit them and rely
on row order, which the model supports.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    BadConfigError,
    BadLiteralError,
    MalformedDocumentError,
    MissingColumnError,
    NoUsableColumnsError,
    UnserializableValueError,
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

#: Per model field a column can feed, in canonical output order: the
#: header the writer gives its column and how to read it off an event.
_FIELDS = {
    "activity_name": ("Activity", lambda event: event.activity_name),
    "action_type": ("Action type", lambda event: event.action and event.action.action_type),
    "ui_element": ("UI element", lambda event: event.target and event.target.element),
    "ui_group_path": (
        "UI group",
        lambda event: join_group_path(event.target.groups)
        if event.target and event.target.groups else None,
    ),
    "application": ("Application", lambda event: event.target and event.target.application),
    "system": ("System", lambda event: event.target and event.target.system),
    "input_value": ("Input value", lambda event: event.input_value),
    "current_state": ("Current state", lambda event: event.current_state),
    "timestamp": ("Timestamp", lambda event: event.timestamp),
    "user": ("User", lambda event: event.user),
    "task": ("Task", lambda event: event.task),
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
        return {name: getattr(self, name) for name in _FIELDS if getattr(self, name) is not None}

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


#: One token of a literal's body: a doubled "," or ":", which stands for
#: the character itself, a lone separator, or a run of other characters.
_TOKEN = re.compile(r",,|::|[,:]|[^,:]+")


def _entries(body: str) -> list:
    """The tokens of each entry of a literal's body, split on lone commas."""
    entries = [[]]
    for token in _TOKEN.findall(body):
        if token == ",":
            entries.append([])
        else:
            entries[-1].append(token)
    return entries


def _escape(text: str, separators: str) -> str:
    for separator in separators:
        text = text.replace(separator, separator * 2)
    return text


def _unescaped(tokens: list, separators: str) -> str:
    """The trimmed text of an entry's tokens, each doubled separator in
    ``separators`` read as one; undoubling the joined text left to right
    pairs every run of a separator as the tokenizer did."""
    text = "".join(tokens)
    for separator in separators:
        text = text.replace(separator * 2, separator)
    return text.strip()


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
    for tokens in _entries(inner):
        if ":" not in tokens:
            raise BadLiteralError(f"map entry without key: {''.join(tokens).strip()!r}")
        colon = tokens.index(":")
        key = _unescaped(tokens[:colon], ",:")
        value = _unescaped(tokens[colon + 1 :], ",:")
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
    return [_unescaped(tokens, ",") for tokens in _entries(inner)]


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


# A value cell (input value, current state or extra attribute) between
# apostrophes is text, taken as it stands; any other is read by its
# column's parser, and "auto" reads a cell shaped like a literal as one.
# The writer wraps exactly the text that would not read back as itself.

#: The parser of each literal shape, by the first and last character.
_SHAPES = {"{}": parse_map_literal, "[]": parse_list_literal}


def _is_wrapped(text: str) -> bool:
    return len(text) > 1 and text[0] == text[-1] == "'"


def _parse_cell(text: str, parser: str):
    """The value of a trimmed, non-empty value cell."""
    if _is_wrapped(text):
        return text[1:-1]
    if parser == "auto":
        parse = _SHAPES.get(text[0] + text[-1])
        return parse(text) if parse else text
    if parser == "map":
        return parse_map_literal(text)
    if parser == "list":
        return parse_list_literal(text)
    return text


def _text_cell(text: str) -> str:
    """The cell of a text value: ``text``, or ``'text'`` when ``text`` is
    empty, padded, literal-shaped or wrapped in apostrophes itself."""
    if not text or text != text.strip() or text[0] + text[-1] in _SHAPES or _is_wrapped(text):
        return f"'{text}'"
    return text


def _plain_text(value) -> str:
    """The text of a value; a list or map is its literal."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, datetime):
        return _render_timestamp(value, None)
    if isinstance(value, (list, tuple)):
        return render_list_literal(value)
    if isinstance(value, (dict, Mapping)):  # the ABC check is slow, so it comes last
        return render_map_literal(value)
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
     state_at, timestamp_at, user_at, task_at) = (positions.get(name, width) for name in _FIELDS)
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


def _render_cell(value, ts_format, text_value: bool) -> str:
    """The cell of a field or attribute value; with ``text_value`` a
    text is written under the value cell escape."""
    if value is None:
        return ""
    if isinstance(value, str):  # most cells
        return _text_cell(value) if text_value else value
    if isinstance(value, datetime):
        return _render_timestamp(value, ts_format)
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
    every populated field and every field an extra attribute key is a
    synonym of, extra event attributes get their own columns, and traced
    logs gain a ``Trace`` column. The tabular format is text-typed:
    numbers, booleans, and timestamps become their printed form. A bad
    ``delimiter`` raises BadConfigError, and an attribute named "Trace"
    on a traced log raises UnserializableValueError.
    """
    _check_delimiter(delimiter)
    mapping = mapping or ColumnMapping()

    def rows():
        """(event, trace id or None) per row, in output order."""
        if log.traces is None:
            return ((event, None) for event in log.events)
        return ((log.events[i], trace.id) for trace in log.traces for i in trace.events)

    traced = log.traces is not None
    if mapping.source_columns:
        columns = list(mapping.source_columns)
        field_of = {column: name for name, column in mapping.mapped().items()}
        fields = [field_of.get(column) for column in columns]
    else:
        populated = {"activity_name"}
        extra_keys = {}
        for event, _ in rows():
            for name, (_, read) in _FIELDS.items():
                if name not in populated and read(event) is not None:
                    populated.add(name)
            extra_keys.update(dict.fromkeys(event.attributes))
        if traced and "Trace" in extra_keys:
            raise UnserializableValueError(
                "event attribute 'Trace' has no column: a traced log writes its trace ids there"
            )
        # The column of each field an extra key names comes first, so
        # infer_mapping reads the field from it and the key as an extra.
        populated.update(_SYNONYMS.get(_normalize_header(key)) for key in extra_keys)
        fields = [name for name in _FIELDS if name in populated]
        columns = [_FIELDS[name][0] for name in fields] + list(extra_keys)
        fields += [None] * len(extra_keys)
        if traced:
            columns.append("Trace")
            fields.append(None)

    # Per column position: how to read its value off an event, and whether
    # a text there is a value cell; None reads the row's trace id. An
    # untraced log keeps a "Trace" attribute, as ingest makes of a traced
    # table.
    readers = []
    for column, name in zip(columns, fields):
        if name is not None:
            readers.append((_FIELDS[name][1], name in ("input_value", "current_state")))
        elif column == "Trace" and traced:
            readers.append((None, False))
        else:
            readers.append((lambda event, key=column: event.attributes.get(key), True))

    buffer = io.StringIO()
    plain = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    quoted = csv.writer(buffer, delimiter=delimiter, lineterminator="\n", quoting=csv.QUOTE_ALL)

    def write_row(cells):
        # Before Python 3.13, csv leaves a field with a lone "\r" unquoted,
        # and the row cannot be read back; such a row is quoted in full.
        (quoted if "\r" in "".join(cells) else plain).writerow(cells)

    write_row(columns)
    ts_format = mapping.timestamp_format
    for event, trace_id in rows():
        write_row([
            (trace_id or "") if read is None else _render_cell(read(event), ts_format, text_value)
            for read, text_value in readers
        ])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Mapping files


def load_ini(text: str, kind: str, interpret: Callable):
    """Parse INI text and return what ``interpret`` makes of the parser.

    Keys keep their case and values are taken literally. Any syntax or
    value error, in parsing or in ``interpret``, is raised as a
    BadConfigError naming the ``kind`` of file.
    """
    import configparser  # only config files need it, so only their loads import it

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
            if name not in _FIELDS:
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
