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
An activity cell is never read as a literal either, but between
apostrophes it is likewise its text: ``'x'`` reads as ``x``, and ``''``
is the empty name, which is not replaced by a synthesized one.
:func:`write_table` is the inverse writer. It wraps in apostrophes
exactly the text that would not read back as itself: empty, padded or
apostrophe-wrapped text, and in a value cell literal-shaped text. So
activity names and text values round-trip exactly, and so do lists and
maps of trimmed items. A list or map item is written as its own
literal and reads back as that text, which writes the same cell
again. The writer has one column layout:
the canonical column of each populated field and of any field an
attribute key is a synonym of (so the key reads back as an attribute),
then the attribute keys in first-seen order. A traced log is written
trace by trace, and each row's trace id is its last attribute,
``Trace``, escaped like any value cell, so it reads back as that
attribute. Each column is read by its position.

Timestamps are optional throughout: many recorders omit them and rely
on row order, which the model supports. One byte order mark (U+FEFF) at
the start of the input, as spreadsheet "CSV UTF-8" exports write it, is
ignored.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from datetime import datetime, timezone
from typing import Iterable, Iterator, Mapping, Optional, Union

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
    _Record,
    _trace_events,
    _trusted,
    format_timestamp,
    join_group_path,
    load_ini,
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


class ColumnMapping(_Record):
    """Which source column feeds which model field.

    ``value_parsers`` forces how a column's cells are read ("plain",
    "map", "list", or the default "auto", which sniffs the literal
    braces). ``extras`` says what happens to unmapped columns: "keep"
    turns them into event attributes keyed by column name, "ignore"
    drops them.
    """

    __slots__ = ("activity_name", "action_type", "ui_element", "ui_group_path", "application",
                 "system", "input_value", "current_state", "timestamp", "user", "task",
                 "timestamp_format", "value_parsers", "extras")

    def __init__(self, activity_name: Optional[str] = None, action_type: Optional[str] = None,
                 ui_element: Optional[str] = None, ui_group_path: Optional[str] = None,
                 application: Optional[str] = None, system: Optional[str] = None,
                 input_value: Optional[str] = None, current_state: Optional[str] = None,
                 timestamp: Optional[str] = None, user: Optional[str] = None,
                 task: Optional[str] = None, timestamp_format: Optional[str] = None,
                 value_parsers: Optional[Mapping] = None, extras: str = "keep"):
        if extras not in ("keep", "ignore"):
            raise ValueError(f"extras must be 'keep' or 'ignore', got {extras!r}")
        value_parsers = dict(value_parsers or {})
        for column, parser in value_parsers.items():
            if parser not in ("plain", "map", "list", "auto"):
                raise ValueError(f"unknown value parser {parser!r} for column {column!r}")
        _Record.__init__(self, activity_name, action_type, ui_element, ui_group_path,
                         application, system, input_value, current_state, timestamp, user,
                         task, timestamp_format, value_parsers, extras)

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
            "mapping: must provide activity_name or action_type plus a target column"
        )


def infer_mapping(header: Iterable[str]) -> ColumnMapping:
    """Guess a ColumnMapping from header names via the synonym table.

    Matching is case-insensitive and tolerant of camel case, hyphens,
    and underscores. Unmatched columns fall to the extras policy. Raises
    NoUsableColumnsError, naming the columns, when nothing usable matches.
    """
    header = [column.strip() for column in header]
    assignments = {}
    for column in header:
        target_field = _SYNONYMS.get(_normalize_header(column))
        if target_field and target_field not in assignments:
            assignments[target_field] = column
    mapping = ColumnMapping(**assignments)
    try:
        mapping.check_usable()
    except NoUsableColumnsError:
        raise NoUsableColumnsError(
            f"header: no usable column in {header}; it needs an activity column, or an "
            "action type column and a target column"
        ) from None
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


def _parse_cell(text: str, parser: str):
    """The value of a trimmed, non-empty value cell."""
    if len(text) > 1 and text[0] == text[-1] == "'":
        return text[1:-1]
    if parser == "auto":
        parse = _SHAPES.get(text[0] + text[-1])
        return parse(text) if parse else text
    if parser == "map":
        return parse_map_literal(text)
    if parser == "list":
        return parse_list_literal(text)
    return text


def _render_cell(value, ts_format, shapes) -> str:
    """The cell of a field or attribute value. Unless ``shapes`` is None,
    a text is written ``'text'`` when it is empty, padded, wrapped in
    apostrophes itself or shaped like one of the literals in ``shapes``."""
    if value is None:
        return ""
    if isinstance(value, str):  # most cells
        if shapes is not None and (
            not value
            or value != value.strip()
            or value[0] + value[-1] in shapes
            or len(value) > 1 and value[0] == value[-1] == "'"
        ):
            return f"'{value}'"
        return value
    if isinstance(value, datetime):
        return _render_timestamp(value, ts_format)
    return _plain_text(value)


def _plain_text(value) -> str:
    """The text of a value; a list or map is its literal."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):  # many values; they skip the slow ABC check
        return str(value)
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


class IngestReport(_Record):
    """What :func:`ingest` read: the number of data rows, and, as
    ``"row N: ..."`` texts with N counting data rows from 1, the rows
    that produced no event and the warnings."""

    __slots__ = ("rows_read", "rows_skipped", "warnings")

    def __init__(self, rows_read: int = 0, rows_skipped: tuple = (), warnings: tuple = ()):
        _Record.__init__(self, rows_read, rows_skipped, warnings)


#: The byte order mark that spreadsheet "CSV UTF-8" exports start with;
#: :func:`ingest` ignores one at the start of its input.
_BOM = "\ufeff"


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
    first mention. One leading byte order mark is ignored. Rows whose
    timestamp does not parse are skipped (noise tolerance), cells whose
    literal does not parse are kept as raw text with a warning, non-empty
    cells beyond the header's width are dropped with a warning, and
    activity names are synthesized from action type and target id when no
    activity column is mapped. A row the csv module cannot split, or
    whose group path holds an empty id, raises a MalformedDocumentError
    naming the row; two kept extra columns of one name raise
    MissingColumnError naming both; a bad ``delimiter`` raises
    BadConfigError.
    """
    _check_delimiter(delimiter)
    if isinstance(source, str):
        lines = io.StringIO(source.removeprefix(_BOM))
    else:
        lines = iter(source)
        first = next(lines, None)
        if first is not None:
            lines = itertools.chain((first.removeprefix(_BOM),), lines)
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
        # An extra attribute is keyed by its column's name, so two named
        # alike would keep only the last cell.
        first_of = {}
        for i, column, _ in extra_columns:
            if column and first_of.setdefault(column, i) != i:
                raise MissingColumnError(
                    f"header: columns {first_of[column] + 1} and {i + 1} are both named "
                    f"{column!r}"
                )

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
    targets: dict = {}  # (system, application, group cell, element) -> Target
    actions: dict = {}
    users: dict = {}
    tasks: dict = {}
    events = []
    skipped = []
    warnings_out = []
    row_number = 0

    # Recordings repeat a few list and map cells (dropdown labels, form
    # fields), so each distinct one is parsed once per call. The first row
    # keeps what it parsed to, which nothing changes while ingest runs, and
    # each later row gets its own shallow copy of it; items are text. A bad
    # literal is parsed, and warns, on each row.
    parsed = {}  # (cell, parser) -> the list or map the first row with it got

    def literal(text: str, parser: str, row_number: int):
        value = parsed.get((text, parser))
        if value is not None:
            return value.copy()
        try:
            value = _parse_cell(text, parser)
        except BadLiteralError as exc:
            warnings_out.append(f"row {row_number}: {exc}; kept as text")
            return text
        if type(value) is not str:
            parsed[text, parser] = value
        return value

    for row_number, row in rows:
        row = list(map(str.strip, row))
        if not any(row):
            skipped.append(f"row {row_number}: empty row")
            continue
        if len(row) > width and any(row[width:]):
            warnings_out.append(
                f"row {row_number}: cells beyond the header's {width} column(s) are not kept; "
                "ignored"
            )
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
        application = row[application_at] or None
        system = row[system_at] or None

        target = None
        if element or group_cell or application or system:
            location = (system, application, group_cell, element)
            target = targets.get(location)
            if target is None:
                try:
                    target = targets[location] = builder.chain(
                        system=system, application=application,
                        groups=split_group_path(group_cell), element=element,
                    )
                except ValueError as exc:  # an empty group id, as in "a//b"
                    raise MalformedDocumentError(f"row {row_number}: {exc}") from None

        action_type = row[action_at] or None
        name = row[name_at]
        if len(name) > 1 and name[0] == name[-1] == "'":
            name = name[1:-1]  # text as it stands; '' is the empty name
        elif not name:
            if target is None:
                skipped.append(f"row {row_number}: no activity name and no target to name it by")
                continue
            name = make_activity_name(action_type, target.most_specific_id)

        action = None
        if action_type is not None:
            action = actions.get(action_type) or actions.setdefault(
                action_type, _trusted(Action, action_type, {})
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

        events.append(_trusted(InteractionEvent, name, action, target, input_value,
                               current_state, timestamp, user, task, attributes))

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


def write_table(
    log: UILog,
    mapping: Optional[ColumnMapping] = None,
    *,
    delimiter: str = ",",
) -> str:
    """Render a log back to delimiter-separated text.

    One row per event; a traced log writes its events trace by trace,
    and each row's trace id is its last attribute, ``Trace``. The
    columns are the canonical column of every populated field and of
    every field an attribute key is a synonym of, then the attribute
    keys in first-seen order. The tabular format is text-typed:
    numbers, booleans, and timestamps become their printed form. An
    event attribute ``Trace`` whose cell is not its trace id's, or an
    attribute key that is padded or blank, which its header cell would
    not read back as, raises UnserializableValueError, a trace index
    that names no event InvalidLogError, and a bad ``delimiter``
    BadConfigError.
    """
    _check_delimiter(delimiter)
    ts_format = mapping.timestamp_format if mapping else None
    traced = log.traces is not None
    if traced:
        rows = [
            (event, {**event.attributes, "Trace": trace.id})
            for trace in log.traces
            for event in _trace_events(log, trace)
        ]
    else:
        rows = [(event, event.attributes) for event in log.events]

    keys = {}
    for event, attributes in rows:
        keys.update(attributes)
        if traced and "Trace" in event.attributes:
            own = _render_cell(event.attributes["Trace"], ts_format, _SHAPES)
            cell = _render_cell(attributes["Trace"], ts_format, _SHAPES)
            if own != cell:
                raise UnserializableValueError(
                    f"event attribute 'Trace' {own!r} is not its trace id {cell!r}"
                )
    for key in keys:  # ingest strips each header cell
        if key != key.strip():
            raise UnserializableValueError(f"event attribute key {key!r} is padded or blank")
    # Activity heads even an empty table. The column of each field a key
    # names comes first, so infer_mapping reads the field from it and the
    # key as an attribute.
    named = {"activity_name", *(_SYNONYMS.get(_normalize_header(key)) for key in keys)}
    fields = [
        name for name, (_, read) in _FIELDS.items()
        if name in named or any(read(event) is not None for event, _ in rows)
    ]
    # Per column: how to read its value off an event, or the key of the
    # row attribute it holds, and the literal shapes a text there must
    # not take (None: the cell is raw). The activity cell is never read
    # as a literal, so it takes only the text half of the escape.
    escapes = {"activity_name": (), "input_value": _SHAPES, "current_state": _SHAPES}
    readers = [(_FIELDS[name][1], None, escapes.get(name)) for name in fields]
    readers += [(None, key, _SHAPES) for key in keys]

    buffer = io.StringIO()
    plain = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    quoted = csv.writer(buffer, delimiter=delimiter, lineterminator="\n", quoting=csv.QUOTE_ALL)

    def write_row(cells):
        # Before Python 3.13, csv leaves a field with a lone "\r" unquoted,
        # and the row cannot be read back; such a row is quoted in full.
        (quoted if "\r" in "".join(cells) else plain).writerow(cells)

    write_row([_FIELDS[name][0] for name in fields] + list(keys))
    for event, attributes in rows:
        write_row([
            _render_cell(read(event) if read else attributes.get(key), ts_format, shapes)
            for read, key, shapes in readers
        ])
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Mapping files


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
