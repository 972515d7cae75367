"""Ingestion of delimiter-separated UI logs via a declarative column map.

Raw recordings usually arrive as one CSV row per interaction. A
:class:`ColumnMapping` says which column feeds which model field; when no
mapping is given, :func:`infer_mapping` matches header names against a
synonym table. Cells may carry map and list literals in the shape raw
recorders tend to print::

    {username: pren, password: dts123}
    [keyword, keywords folder]

Cells are trimmed. Any cell between apostrophes, as in ``' padded '``,
is the text between them, taken as it stands. Otherwise a value cell
(input value, current state or extra attribute) may hold a literal;
every other cell is text. A literal's item is a list or map where it
opens with "[" or "{" (a key never does), nesting up to
MAX_NESTING_DEPTH levels; text between apostrophes, ``''`` standing for
one; or any other run, trimmed, up to a ",", its literal's closer or,
for a key, ":". An empty or ``''`` id, action type, user or task cell
records nothing; an empty activity cell is synthesized, and ``''`` is
the empty name. A ``uilog:abstracted`` cell ``true`` or ``false`` is
that boolean, as the uilog extension declares the marker, so a log
``abstract`` made converts to XES from a table too.
:func:`write_table` is the inverse writer, in one dialect that
:func:`ingest` reads with no mapping. It quotes exactly
the text that would not read back as itself: a cell that is empty,
padded, between apostrophes or, in a value cell, literal-shaped, and a
literal's text item or key that is empty or padded or holds one of
``' [ ] { } , :``. So names, ids, keys and text values round-trip, and
so do lists and maps of text at any depth, in cells as long as their
text. The writer has one column layout: the canonical column of each
populated field and of any field an attribute key is a synonym of (so
the key reads back as an attribute), then the attribute keys in
first-seen order. A traced log is written trace by trace, and each
row's trace id is its last attribute, ``Trace``, escaped like any value
cell, so it reads back as that attribute. Each column is read by its
position.

Timestamps are optional throughout: many recorders omit them and rely
on row order, which the model supports. A mapping's ``timestamp_format``
is read only by :func:`ingest`; the writer writes ISO 8601. One byte
order mark (U+FEFF) at the start of the input, as spreadsheet "CSV
UTF-8" exports write it, is ignored.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from datetime import datetime
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    BadConfigError,
    BadLiteralError,
    MalformedDocumentError,
    MissingColumnError,
    NoUsableColumnsError,
    UnserializableValueError,
)
from .extension import KEY_ABSTRACTED
from .model import (
    MAX_NESTING_DEPTH,
    Action,
    HierarchyBuilder,
    InteractionEvent,
    UILog,
    _Record,
    _check_id,
    _trace_events,
    _trusted,
    format_timestamp,
    join_group_path,
    load_ini,
    make_activity_name,
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
    """Which column of a recording being read feeds which model field.

    Only :func:`ingest` reads a mapping. ``timestamp_format`` is a
    strptime pattern for timestamp cells, which are otherwise ISO 8601.
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
        has_target = any(getattr(self, name) is not None
                         for name in ("ui_element", "ui_group_path", "application", "system"))
        if self.activity_name is None and (self.action_type is None or not has_target):
            raise NoUsableColumnsError(
                "mapping: must provide activity_name or action_type plus a target column"
            )


def infer_mapping(header: Iterable[str]) -> ColumnMapping:
    """Guess a ColumnMapping from header names via the synonym table.

    A header cell is trimmed, and between apostrophes is the text between
    them. Matching is case-insensitive and tolerant of camel case,
    hyphens, and underscores. Unmatched columns fall to the extras policy.
    Raises NoUsableColumnsError, naming the columns, when nothing usable
    matches.
    """
    texts = _Texts()
    header = [texts[cell.strip()] for cell in header]
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


#: An item's run up to what ends it: a "," or the closer of its literal, ":" after a key.
_RUNS = {"]": re.compile(r"[^,\]]*"), "}": re.compile(r"[^,}]*"), ":": re.compile(r"[^,:}]*"),
         "": re.compile(r"(?s).*")}  # the whole text, around the outermost literal
_QUOTED = re.compile(r"'([^']*(?:''[^']*)*)'")
#: What a text item or map key holds that makes the writer quote it.
_RESERVED = re.compile(r"['\[\]{},:]")


def _item(text: str, at: int, ends: str, depth: int) -> tuple:
    """The item at ``text[at]``, inside ``depth`` literals, and the index of
    the "," or of ``ends`` (see ``_RUNS``) that ends it."""
    run = _RUNS[ends].match(text, at).group()
    item = run.strip()
    if not item or item[0] not in "'[{" or item[0] != "'" and ends == ":":
        return item, at + len(run)
    at += len(run) - len(run.lstrip())
    if item[0] == "'":
        quoted = _QUOTED.match(text, at)
        if quoted is None:
            raise BadLiteralError(f"unclosed apostrophe in {text!r}")
        item, at = quoted.group(1).replace("''", "'"), quoted.end()
    else:
        if depth >= MAX_NESTING_DEPTH:
            raise BadLiteralError(f"literal nests deeper than {MAX_NESTING_DEPTH}")
        closer = "]" if item[0] == "[" else "}"
        item = [] if closer == "]" else {}
        end = _RUNS[closer].match(text, at + 1).end()
        if text[end:end + 1] == closer and not text[at + 1:end].strip():
            at = end  # [], [ ] or {}
        while text[at:at + 1] != closer:
            if at == len(text):
                raise BadLiteralError(f"unclosed literal: {text!r}")
            if closer == "]":
                value, at = _item(text, at + 1, closer, depth + 1)
                item.append(value)
                continue
            key, at = _item(text, at + 1, ":", depth + 1)
            if text[at:at + 1] != ":":
                raise BadLiteralError(f"map entry without key: {key!r}")
            if not key:
                raise BadLiteralError(f"empty key in map literal: {text!r}")
            if key in item:
                raise BadLiteralError(f"duplicate key {key!r} in map literal")
            item[key], at = _item(text, at + 1, closer, depth + 1)
        at += 1
    run = _RUNS[ends].match(text, at).group()
    if run.strip():
        raise BadLiteralError(f"text after an item: {run.strip()!r}")
    return item, at + len(run)


def _parsed(text: str, shape: str, kind: str):
    body = text.strip()
    if body[:1] + body[-1:] != shape:
        raise BadLiteralError(f"not a {kind} literal: {text!r}")
    return _item(body, 0, "", 0)[0]


def parse_map_literal(text: str) -> dict:
    """Parse "{k: v, k: v}" into a map, read as the module docstring says."""
    return _parsed(text, "{}", "map")


def parse_list_literal(text: str) -> list:
    """Parse "[v, v]" into a list, read as the module docstring says."""
    return _parsed(text, "[]", "list")


#: The parser of each literal shape, by the first and last character, and
#: of each parser a column may be given but "plain" and "auto".
_SHAPES = {"{}": parse_map_literal, "[]": parse_list_literal}
_PARSERS = {"map": parse_map_literal, "list": parse_list_literal}


#: The cells of the event marker ``uilog:abstracted``, which the uilog
#: extension declares as a boolean, as :func:`write_table` writes them.
_MARKS = {"true": True, "false": False}


def _wrapped(cell: str) -> bool:
    """Whether a trimmed cell is between apostrophes, standing for the text between."""
    return len(cell) > 1 and cell[0] == cell[-1] == "'"


class _Texts(dict):
    """Trimmed cell never read as a literal → its text, read once per cell."""

    def __missing__(self, cell: str) -> str:
        text = self[cell] = cell[1:-1] if _wrapped(cell) else cell
        return text


class _Cells(dict):
    """Text → its cell, escaped once: ``'text'`` where the text is empty,
    padded, wrapped in apostrophes itself or shaped like one of ``shapes``."""

    def __init__(self, shapes):
        self.shapes = shapes

    def __missing__(self, text: str) -> str:
        wrap = (not text or text != text.strip() or _wrapped(text)
                or text[0] + text[-1] in self.shapes)
        cell = self[text] = f"'{text}'" if wrap else text
        return cell


class _Items(dict):
    """Text → its item or map key in a literal, quoted once: bare where it
    reads back as itself, else between apostrophes with each ``'`` doubled."""

    def __missing__(self, text: str) -> str:
        bare = text and text == text.strip() and not _RESERVED.search(text)
        item = self[text] = text if bare else "'" + text.replace("'", "''") + "'"
        return item


def _parse_cell(text: str, parser: str):
    """The value of a trimmed, non-empty value cell."""
    if _wrapped(text):
        return text[1:-1]
    parse = _SHAPES.get(text[0] + text[-1]) if parser == "auto" else _PARSERS.get(parser)
    return parse(text) if parse else text


def _plain_text(value, key, items: _Items, depth: int = 0) -> str:
    """The text of a value of column ``key``, ``depth`` lists and maps deep: a list or
    map as its literal, a text item or map key quoted by ``items`` and a time in ISO
    8601 by ``model.format_timestamp``. What :func:`write_table` refuses raises
    UnserializableValueError."""
    if isinstance(value, str):
        return items[value] if depth else value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):  # many values; they skip the slow ABC check
        return str(value)
    if isinstance(value, datetime):
        text = format_timestamp(value, key)
        return items[text] if depth else text
    if not isinstance(value, (list, dict, Mapping)):  # the ABC check is slow, so it comes last
        kind = type(value).__name__
        raise UnserializableValueError(f"attribute {key!r} has unsupported type {kind}")
    if depth >= MAX_NESTING_DEPTH:
        raise UnserializableValueError(f"attribute {key!r} nests deeper than {MAX_NESTING_DEPTH}")
    depth, texts = depth + 1, []
    if isinstance(value, list):
        for item in value:
            texts.append(_plain_text(item, key, items, depth))
        return "[" + ", ".join(texts) + "]"
    for name, item in value.items():
        name = items[_check_id(name, "attribute keys", UnserializableValueError)]
        texts.append(f"{name}: {_plain_text(item, key, items, depth)}")
    return "{" + ", ".join(texts) + "}"


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
    for number in itertools.count():
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            where = f"row {number}" if number else "header"
            raise MalformedDocumentError(f"{where}: {exc}") from None
        yield number, cells


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
    first mention. A cell is trimmed, and between apostrophes is the text
    between them; an empty or ``''`` id, action type, user or task cell
    records nothing. One leading byte order mark is ignored. Rows whose
    timestamp does not parse are skipped, cells whose literal does not
    parse are kept as text with a warning, non-empty cells beyond the
    header's width are dropped with a warning, and activity names are
    synthesized from action type and target id when no activity column
    is mapped. A row the csv module cannot split, or whose group path
    holds an empty id, raises a MalformedDocumentError naming the row;
    two kept extra columns of one name raise MissingColumnError naming
    both; a bad ``delimiter`` raises BadConfigError.
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
        cells = next(rows)[1]
    except StopIteration:
        raise NoUsableColumnsError("input has no header row") from None
    texts = _Texts()  # of every cell that is never read as a literal
    header = [texts[cell.strip()] for cell in cells]

    if mapping is None:
        mapping = infer_mapping(cells)
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
    targets: dict = {}  # (system, application, group, element cell) -> Target or None
    actions: dict = {}
    events = []
    skipped = []
    warnings_out = []
    row_number = 0

    # Recordings repeat a few flat list and map cells (dropdown labels,
    # form fields), so each distinct one is parsed once per call. The first
    # row keeps what it parsed to, which nothing changes while ingest runs,
    # and each later row gets its own shallow copy of it. A literal with a
    # list or map inside, whose rows would share it, and a bad literal,
    # which warns, are parsed on each row.
    parsed = {}  # (cell, parser) -> the flat list or map the first row with it got

    def literal(text: str, parser: str, row_number: int):
        value = parsed.get((text, parser))
        if value is not None:
            return value.copy()
        try:
            value = _parse_cell(text, parser)
        except BadLiteralError as exc:
            warnings_out.append(f"row {row_number}: {exc}; kept as text")
            return text
        items = value.values() if type(value) is dict else value
        if type(value) is not str and all(type(item) is str for item in items):
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
                timestamp, truncated = parse_timestamp(raw_ts, timestamp_format)
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

        location = (row[system_at], row[application_at], row[groups_at], row[element_at])
        target = targets.get(location, False)
        if target is False:
            system, application, group_path, element = (texts[cell] or None for cell in location)
            try:
                target = targets[location] = builder.chain(
                    system=system, application=application,
                    groups=split_group_path(group_path), element=element,
                ) if system or application or group_path or element else None
            except ValueError as exc:  # an empty group id, as in "a//b"
                raise MalformedDocumentError(f"row {row_number}: {exc}") from None

        action_type = texts[row[action_at]] or None
        name = row[name_at]
        if not name and target is None:
            skipped.append(f"row {row_number}: no activity name and no target to name it by")
            continue
        # A cell '' is the empty name; only an empty cell is synthesized.
        name = texts[name] if name else make_activity_name(action_type, target.most_specific_id)

        action = None
        if action_type is not None:
            action = actions.get(action_type) or actions.setdefault(
                action_type, _trusted(Action, action_type, {})
            )

        user = texts[row[user_at]] or None
        task = texts[row[task_at]] or None

        attributes = {}
        for index, column, parser in extra_columns:
            text = row[index]
            if text:
                if not column:
                    raise MissingColumnError(
                        f"row {row_number}: column {index + 1} holds {text!r} but has no name"
                    )
                value = literal(text, parser, row_number)
                attributes[column] = _MARKS.get(text, value) if column == KEY_ABSTRACTED else value

        events.append(_trusted(InteractionEvent, name, action, target, input_value,
                               current_state, timestamp, user, task, attributes))

    log = UILog(events, builder.build(), {event.user: {} for event in events if event.user},
                {event.task: {} for event in events if event.task})
    return log, IngestReport(row_number, tuple(skipped), tuple(warnings_out))


# ---------------------------------------------------------------------------
# Inverse writer


def write_table(log: UILog, *, delimiter: str = ",") -> str:
    """Render a log back to delimiter-separated text that :func:`ingest` reads with no mapping.

    One row per event; a traced log writes its events trace by trace, and
    each row's trace id is its last attribute, ``Trace``. The columns are
    the canonical column of every populated field and of every field an
    attribute key is a synonym of, then the attribute keys in first-seen
    order. Numbers, booleans and times (in ISO 8601 to the millisecond by
    ``model.format_timestamp``, a naive time as UTC) become their printed
    form, and lists and maps their literals. A text, a header's too, and
    a literal's text item or key are quoted as the module docstring says,
    exactly where they would not read back as themselves. A key
    that is not non-empty text, nesting deeper than MAX_NESTING_DEPTH, a
    type XES cannot hold (a set, tuple, bytes or other object) or a time
    outside the datetime range in UTC, at any depth, or an event attribute
    ``Trace`` whose cell is not its trace id's raises
    UnserializableValueError naming the key, and so does a cell longer than
    the csv module reads, naming its column's header; a trace index that
    names no event raises InvalidLogError, and a bad ``delimiter``
    BadConfigError.
    """
    _check_delimiter(delimiter)
    traced = log.traces is not None
    if traced:
        rows = [
            (event, {**event.attributes, "Trace": trace.id})
            for trace in log.traces
            for event in _trace_events(log, trace)
        ]
    else:
        rows = [(event, event.attributes) for event in log.events]

    texts, values = _Cells(()), _Cells(_SHAPES)  # the cells of text and of value columns
    items = _Items()  # the text of each text item and map key inside a literal
    keys = {}
    for event, attributes in rows:
        keys.update(attributes)
        if traced and "Trace" in event.attributes:
            own = event.attributes["Trace"]
            own = (values[own] if isinstance(own, str)
                   else _plain_text(own, "Trace", items))
            cell = values[attributes["Trace"]]
            if own != cell:
                raise UnserializableValueError(
                    f"event attribute 'Trace' {own!r} is not its trace id {cell!r}"
                )
    for key in keys:
        _check_id(key, "attribute keys", UnserializableValueError)
    # Activity heads even an empty table. The column of each field a key
    # names comes first, so infer_mapping reads the field from it and the
    # key as an attribute.
    named = {"activity_name", *(_SYNONYMS.get(_normalize_header(key)) for key in keys)}
    fields = [
        name for name, (_, read) in _FIELDS.items()
        if name in named or any(read(event) is not None for event, _ in rows)
    ]
    # Per column: how to read its value off an event, or None for a row
    # attribute; its header, which is the attribute's key; and its cells.
    cells_of = {"input_value": values, "current_state": values}
    readers = [(_FIELDS[name][1], _FIELDS[name][0], cells_of.get(name, texts)) for name in fields]
    readers += [(None, key, values) for key in keys]

    buffer = io.StringIO()
    plain = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    quoted = csv.writer(buffer, delimiter=delimiter, lineterminator="\n", quoting=csv.QUOTE_ALL)
    limit = csv.field_size_limit()

    def write_row(cells):
        text = "".join(cells)
        if len(text) > limit:  # a cell may be longer than csv reads
            for (_, key, _), cell in zip(readers, cells):
                if len(cell) > limit:
                    raise UnserializableValueError(
                        f"column {key!r}: a cell of {len(cell)} characters is too long for csv"
                    )
        # Before Python 3.13, csv leaves a field with a lone "\r" unquoted,
        # and the row cannot be read back; such a row is quoted in full.
        (quoted if "\r" in text else plain).writerow(cells)

    write_row([texts[key] for _, key, _ in readers])
    for event, attributes in rows:
        write_row([
            "" if value is None
            else column[value] if isinstance(value, str)
            else _plain_text(value, key, items)
            for read, key, column in readers
            for value in (read(event) if read else attributes.get(key),)
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
    texts = _Texts()  # a column is named as its header cell reads
    assignments = {}
    if parser.has_section("columns"):
        for name, column in parser.items("columns"):
            if name not in _FIELDS:
                raise ValueError(f"unknown model field {name!r} in [columns]")
            assignments[name] = texts[column.strip()]
    options = {}
    if parser.has_section("options"):
        for name, value in parser.items("options"):
            if name not in ("timestamp_format", "extras"):
                raise ValueError(f"unknown option {name!r} in [options]")
            options[name] = value.strip() if name == "timestamp_format" else value.strip().lower()
    parsers = {}
    if parser.has_section("parsers"):
        for column, kind in parser.items("parsers"):
            parsers[texts[column.strip()]] = kind.strip().lower()
    return ColumnMapping(**assignments, **options, value_parsers=parsers)
