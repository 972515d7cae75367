"""XES serialization of UI logs.

The writer produces an IEEE 1849-2016 style document (log/trace/event
with typed attributes) in which the activity name and timestamp travel
in the standard concept/time extensions and everything else travels in
event-level attributes of the "uilog" extension. The reader is the exact
inverse: it rebuilds hierarchy nodes on demand from those attributes.

XES event attributes are flat, so the group nesting of a target is
encoded in ``uilog:ui-group-path`` as a "/"-separated id path, outermost
group first (a literal "/" in an id is escaped as "\\/"). Hierarchy
context is repeated on every event; that redundancy is the price of the
flat format and is accepted deliberately.

Logs without traces are wrapped in a single artificial trace, marked by
the log-level boolean ``uilog:untraced`` so the reader can undo it.

The writer emits the document as text in one pass: each element is
appended to one list of pieces, indented from a precomputed table and
escaped as ElementTree escapes attribute values, and the list is joined
once; the context of each distinct target, and the group path element of
each distinct group path, is rendered once per document, and each event
writes its own element state into its target's context.

The reader parses incrementally: it feeds the text to an ElementTree
parser in 64 KiB slices and, after each slice, reads the children of
``<log>`` and of the open ``<trace>`` that the parser has finished and
deletes them from the tree, so the tree holds about one slice of the
document rather than all of it. It checks and normalizes each value
where it types it, so the model is built without a second pass.
"""

from __future__ import annotations

import re
import warnings
from datetime import datetime
from typing import Mapping, Optional
from xml.etree import ElementTree as ET

from .errors import (
    InvalidLogError,
    MalformedDocumentError,
    MissingConceptNameError,
    UnserializableValueError,
)
from .model import (
    Action,
    HierarchyBuilder,
    InteractionEvent,
    MAX_NESTING_DEPTH,
    Target,
    Trace,
    UILog,
    _INT64_MAX,
    _INT64_MIN,
    _check_id,
    _trusted,
    format_timestamp,
    join_group_path,
    parse_timestamp,
    split_group_path,
)
from .validation import validate

CONCEPT_URI = "http://www.xes-standard.org/concept.xesext"
TIME_URI = "http://www.xes-standard.org/time.xesext"
UILOG_URI = "http://www.xes-standard.org/uilog.xesext"

KEY_CONCEPT_NAME = "concept:name"
KEY_TIMESTAMP = "time:timestamp"

KEY_ACTION_TYPE = "uilog:action-type"
KEY_INPUT_VALUE = "uilog:input-value"
KEY_UI_ELEMENT = "uilog:ui-element"
KEY_UI_ELEMENT_STATE = "uilog:ui-element-state"
KEY_UI_GROUP_PATH = "uilog:ui-group-path"
KEY_APPLICATION = "uilog:application"
KEY_SYSTEM = "uilog:system"
KEY_USER = "uilog:user"
KEY_TASK = "uilog:task"
KEY_UNTRACED = "uilog:untraced"

#: The event-level vocabulary of the uilog extension, in canonical order.
EXTENSION_KEYS = (
    KEY_ACTION_TYPE,
    KEY_INPUT_VALUE,
    KEY_UI_ELEMENT,
    KEY_UI_ELEMENT_STATE,
    KEY_UI_GROUP_PATH,
    KEY_APPLICATION,
    KEY_SYSTEM,
    KEY_USER,
    KEY_TASK,
)

# Canonical extension declaration. Keys that admit more than one XES type
# (input values may be plain strings or maps; element states are often
# lists) are declared once per admitted type.
_EXTENSION_DEFINITION = """<?xml version="1.0" encoding="UTF-8"?>
<xesextension name="UILog" prefix="uilog" uri="http://www.xes-standard.org/uilog.xesext">
  <log>
    <boolean key="untraced"/>
  </log>
  <trace/>
  <event>
    <string key="action-type"/>
    <string key="input-value"/>
    <container key="input-value"/>
    <string key="ui-element"/>
    <string key="ui-element-state"/>
    <list key="ui-element-state"/>
    <string key="ui-group-path"/>
    <string key="application"/>
    <string key="system"/>
    <string key="user"/>
    <string key="task"/>
  </event>
</xesextension>
"""


def emit_extension_definition() -> str:
    """The uilog XES extension declaration; byte-stable across runs."""
    return _EXTENSION_DEFINITION


# ---------------------------------------------------------------------------
# Writing


# Indentation by element depth, deep enough for values nested MAX_NESTING_DEPTH levels.
_INDENT = tuple("\n" + "  " * depth for depth in range(2 * MAX_NESTING_DEPTH + 8))

# Characters that need escaping or that XML 1.0 forbids; then only those it forbids.
_SPECIAL = re.compile('[\x00-\x1f"&<>\ud800-\udfff\ufffe\uffff]')
_NOT_XML_CHAR = re.compile('[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]')

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<log xes.version="1849-2016" xes.features="nested-attributes">'
    f'\n  <extension name="Concept" prefix="concept" uri="{CONCEPT_URI}" />'
    f'\n  <extension name="Time" prefix="time" uri="{TIME_URI}" />'
    f'\n  <extension name="UILog" prefix="uilog" uri="{UILOG_URI}" />'
)


def _escape(text: str, key: str) -> str:
    """``text`` as an XML attribute value, escaped as ElementTree does."""
    if _SPECIAL.search(text) is None:
        return text
    if _NOT_XML_CHAR.search(text) is not None:
        raise UnserializableValueError(f"attribute {key!r} holds text outside XML 1.0")
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def _attribute(out: list, depth: int, key: str, value, nested=None, nesting: int = 0) -> None:
    """Append one attribute element; a string value carries ``nested`` attributes."""
    if nesting > MAX_NESTING_DEPTH:
        raise UnserializableValueError(f"attribute {key!r} nests deeper than {MAX_NESTING_DEPTH}")
    pad, name, children = _INDENT[depth], _escape(key, key), None
    if isinstance(value, str):
        tag, text, children = "string", _escape(value, key), nested
    elif isinstance(value, list):
        inner = _INDENT[depth + 1]
        if not value:
            return out.append(f'{pad}<list key="{name}">{inner}<values />{pad}</list>')
        out.append(f'{pad}<list key="{name}">{inner}<values>')
        for position, item in enumerate(value):
            _attribute(out, depth + 2, str(position), item, None, nesting + 1)
        return out.append(f"{inner}</values>{pad}</list>")
    elif isinstance(value, bool):
        tag, text = "boolean", "true" if value else "false"
    elif isinstance(value, int):
        tag, text = "int", str(value)
    elif isinstance(value, float):
        tag, text = "float", repr(value)
    elif isinstance(value, datetime):
        tag, text = "date", format_timestamp(value)
    elif isinstance(value, (dict, Mapping)):
        tag, text, children, nesting = "container", None, value, nesting + 1
    else:
        raise UnserializableValueError(
            f"attribute {key!r} has unsupported type {type(value).__name__}"
        )
    head = f'{pad}<{tag} key="{name}"' + ("" if text is None else f' value="{text}"')
    if not children:
        return out.append(head + " />")
    out.append(head + ">")
    for child_key, item in children.items():
        _attribute(out, depth + 1, child_key, item, None, nesting)
    out.append(f"{pad}</{tag}>")


def _context(target: Target, hierarchy, contexts: dict) -> tuple:
    """The elements recording ``target`` and its nodes' attributes, kept in
    ``contexts``: the element's, and the rest; an event's state goes between."""
    head, rest = [], []
    element, _, application, system = hierarchy.lookup(target)
    if target.element is not None:
        _attribute(head, 3, KEY_UI_ELEMENT, target.element, element and element.attributes)
    if target.groups:  # shared by the targets in one group path
        scope = (target.system, target.application, target.groups)
        rest.append(contexts.get(scope) or _group_path(scope, hierarchy, contexts))
    for key, recorded, node in ((KEY_APPLICATION, target.application, application),
                                (KEY_SYSTEM, target.system, system)):
        if recorded is not None:
            _attribute(rest, 3, key, recorded, node and node.attributes)
    parts = contexts[target] = ("".join(head), "".join(rest))
    return parts


def _group_path(scope: tuple, hierarchy, contexts: dict) -> str:
    """The group path element of (system, application, groups), kept in ``contexts``."""
    system, application, groups = scope
    nested = {}  # a container per attributed group; they do not count as nesting
    for depth in range(1, len(groups) + 1):
        prefix = Target(groups=groups[:depth], application=application, system=system)
        group = hierarchy.lookup(prefix)[1]
        if group is not None and group.attributes:
            nested[join_group_path(prefix.groups)] = group.attributes
    out = []
    _attribute(out, 3, KEY_UI_GROUP_PATH, join_group_path(groups), nested, -1)
    text = contexts[scope] = "".join(out)
    return text


def _event(out: list, event: InteractionEvent, log: UILog, contexts: dict) -> None:
    out.append("\n    <event>")
    _attribute(out, 3, KEY_CONCEPT_NAME, event.activity_name)
    if event.timestamp is not None:
        _attribute(out, 3, KEY_TIMESTAMP, event.timestamp)
    if event.action is not None:
        _attribute(out, 3, KEY_ACTION_TYPE, event.action.action_type, event.action.attributes)
    if event.input_value is not None:
        _attribute(out, 3, KEY_INPUT_VALUE, event.input_value)
    head = rest = ""
    target = event.target
    if target is not None and not target.is_empty:
        head, rest = contexts.get(target) or _context(target, log.hierarchy, contexts)
    out.append(head)
    if event.current_state is not None:
        _attribute(out, 3, KEY_UI_ELEMENT_STATE, event.current_state)
    out.append(rest)
    if event.user is not None:
        _attribute(out, 3, KEY_USER, event.user, log.users.get(event.user))
    if event.task is not None:
        _attribute(out, 3, KEY_TASK, event.task, log.tasks.get(event.task))
    for key, value in event.attributes.items():
        _attribute(out, 3, key, value)
    out.append("\n    </event>")


def write_xes(log: UILog, *, check: bool = True) -> str:
    """Serialize a log to XES XML text.

    With ``check`` (the default) the log must validate cleanly;
    InvalidLogError carries the report otherwise. Output is deterministic
    for a given log: fixed key order, fixed formatting. Text outside the
    XML 1.0 character set raises UnserializableValueError.
    """
    if check and not (report := validate(log)).ok:
        count = len(report.violations)
        raise InvalidLogError(f"log failed validation with {count} violation(s)", report=report)
    out = [_HEADER]
    for key, value in log.attributes.items():
        _attribute(out, 1, key, value)
    traces = [(stored.id, stored.attributes, stored.events) for stored in log.traces or ()]
    if log.traces is None and log.events:
        out.append(f'\n  <boolean key="{KEY_UNTRACED}" value="true" />')
        traces = [("all-events", {}, range(len(log.events)))]
    contexts = {}  # rendered context parts by distinct target, group path element by scope
    for trace_id, attributes, indices in traces:
        out.append("\n  <trace>")
        for key, value in ((KEY_CONCEPT_NAME, trace_id), *attributes.items()):
            _attribute(out, 2, key, value)
        for index in indices:
            _event(out, log.events[index], log, contexts)
        out.append("\n  </trace>")
    out.append("\n</log>\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Reading


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1] if "}" in tag else tag


def _parse_timestamp(text: str, where: str) -> datetime:
    try:
        value, truncated = parse_timestamp(text)
    except ValueError as exc:
        raise MalformedDocumentError(f"{where}: bad timestamp {text.strip()!r}") from exc
    if truncated:
        warnings.warn(
            f"{where}: timestamp {text.strip()!r} truncated to millisecond precision",
            stacklevel=2,
        )
    return value


def _parse_attribute(element: ET.Element, where: str, depth: int = 0):
    """Return (key, value, nested) for one attribute element.

    The value is checked and normalized here, once, as the model's
    ``normalize_value`` would: ``depth`` counts the lists and containers
    around the element, and every key must be non-empty. ``nested`` is
    the element itself when it is an elementary value with child
    attributes (XES allows attributes on attributes; read them with
    :func:`_parse_map` where they are kept), else None; the children of
    lists and containers are the value itself.
    """
    tag = _local_name(element.tag)
    key = element.get("key")
    if not key:
        if key is None:
            raise MalformedDocumentError(f"{where}: attribute element without key")
        raise MalformedDocumentError(f"{where}: attribute keys must be non-empty text, got ''")
    if tag == "list" or tag == "container":
        if depth >= MAX_NESTING_DEPTH:
            raise MalformedDocumentError(
                f"{where}: attribute nesting deeper than {MAX_NESTING_DEPTH}"
            )
        if tag == "container":
            return key, _parse_map(element, where, depth + 1), None
        values = [child for child in element if _local_name(child.tag) == "values"]
        children = values[0] if values else element
        items = [
            _parse_attribute(child, where, depth + 1)[1]
            for child in children
            if _local_name(child.tag) != "values"
        ]
        return key, items, None
    raw = element.get("value")
    if raw is None:
        raise MalformedDocumentError(f"{where}: {tag} attribute {key!r} without value")
    if tag == "string" or tag == "id":
        value = raw
    elif tag == "int" or tag == "float":
        try:
            value = int(raw) if tag == "int" else float(raw)
        except ValueError as exc:
            raise MalformedDocumentError(f"{where}: {exc}") from None
        if tag == "int" and not _INT64_MIN <= value <= _INT64_MAX:
            raise MalformedDocumentError(
                f"{where}: integer attribute out of 64-bit range: {value}"
            )
    elif tag == "boolean":
        value = raw.strip().lower() == "true"
    elif tag == "date":
        value = _parse_timestamp(raw, where)
    else:
        raise MalformedDocumentError(f"{where}: unknown attribute type {tag!r}")
    return key, value, element if len(element) else None


def _parse_map(element: ET.Element, where: str, depth: int = 0) -> dict:
    """The child attributes of ``element`` as a key -> value map, each at
    ``depth``; of a repeated key the last one is kept, with a warning."""
    mapping = {}
    for child in element:
        key, value, _ = _parse_attribute(child, where, depth)
        if key in mapping:
            warnings.warn(f"{where}: duplicate map key {key!r}; keeping the last")
        mapping[key] = value
    return mapping


def _read_event(
    element: ET.Element,
    where: str,
    builder: HierarchyBuilder,
    users: dict,
    tasks: dict,
    lenient_names: bool,
) -> InteractionEvent:
    fields = {}
    nested_by_key = {}
    extras = {}
    for child in element:
        key, value, nested = _parse_attribute(child, where)
        if key in _EVENT_FIELD_KEYS:
            fields[key] = value
            nested_by_key[key] = nested
        else:
            extras[key] = value
    # The attributes nested on field values; group containers do not count as nesting.
    nested_by_key = {
        key: _parse_map(nested, where, -1 if key == KEY_UI_GROUP_PATH else 0)
        for key, nested in nested_by_key.items()
        if nested is not None
    }

    name = fields.get(KEY_CONCEPT_NAME)
    if name is None:
        if not lenient_names:
            raise MissingConceptNameError(f"{where}: event has no {KEY_CONCEPT_NAME}")
        name = ""
    if not isinstance(name, str):
        name = str(name)

    timestamp = fields.get(KEY_TIMESTAMP)
    if timestamp is not None and not isinstance(timestamp, datetime):
        timestamp = _parse_timestamp(str(timestamp), where)

    action = None
    if KEY_ACTION_TYPE in fields:
        action_type = str(fields[KEY_ACTION_TYPE])
        if not action_type:
            raise ValueError("action_type must be non-empty text")
        action = _trusted(
            Action, action_type=action_type, attributes=nested_by_key.get(KEY_ACTION_TYPE, {})
        )

    element_id = fields.get(KEY_UI_ELEMENT)
    groups = split_group_path(str(fields[KEY_UI_GROUP_PATH])) if KEY_UI_GROUP_PATH in fields else ()
    application = fields.get(KEY_APPLICATION)
    system = fields.get(KEY_SYSTEM)
    state = fields.get(KEY_UI_ELEMENT_STATE)
    if state is not None and element_id is None:
        warnings.warn(f"{where}: {KEY_UI_ELEMENT_STATE} without {KEY_UI_ELEMENT}; ignored")
        state = None

    target = None
    if element_id is not None or groups or application is not None or system is not None:
        group_attributes = {
            split_group_path(k): v
            for k, v in nested_by_key.get(KEY_UI_GROUP_PATH, {}).items()
            if isinstance(v, dict)
        }
        target = builder.chain(
            system=str(system) if system is not None else None,
            application=str(application) if application is not None else None,
            groups=groups,
            element=str(element_id) if element_id is not None else None,
            system_attributes=nested_by_key.get(KEY_SYSTEM),
            application_attributes=nested_by_key.get(KEY_APPLICATION),
            group_attributes=group_attributes,
            element_attributes=nested_by_key.get(KEY_UI_ELEMENT),
        )

    return _trusted(
        InteractionEvent,
        activity_name=name,
        action=action,
        target=target,
        input_value=fields.get(KEY_INPUT_VALUE),
        current_state=state,
        timestamp=timestamp,
        user=_merge_ref(users, fields.get(KEY_USER), nested_by_key.get(KEY_USER, {})),
        task=_merge_ref(tasks, fields.get(KEY_TASK), nested_by_key.get(KEY_TASK, {})),
        attributes=extras,
    )


def _merge_ref(registry: dict, ref, attributes: dict) -> Optional[str]:
    """Record a user or task id and merge one event's attributes for it."""
    if ref is None:
        return None
    ref = str(ref)
    _check_id(ref)
    registry.setdefault(ref, {}).update(attributes)
    return ref


_EVENT_FIELD_KEYS = frozenset(
    {KEY_CONCEPT_NAME, KEY_TIMESTAMP} | set(EXTENSION_KEYS)
)

_STRUCTURAL_TAGS = frozenset({"extension", "global", "classifier"})

#: Characters of the document fed to the parser at a time.
_CHUNK = 64 * 1024


class _LogReader:
    """What one :func:`read_xes` call has read of its document so far.

    :meth:`take` reads, in document order, the children of ``<log>`` that
    the parser has finished, and of the last one, when it is a trace
    still open, its finished children; it deletes what it read from the
    tree. Only :meth:`finish` decides what needs the whole document.
    """

    def __init__(self, lenient_names: bool):
        self.lenient_names = lenient_names
        self.builder = HierarchyBuilder()
        self.users: dict = {}
        self.tasks: dict = {}
        self.attributes = {}
        self.events = []
        self.traces = []
        self.untraced = False
        self.stray = None  # where the first event directly under <log> is
        self.position = 0  # of the next trace or event directly under <log>
        # The trace element being read, its position and what it has given so far.
        self.open = None
        self.trace_position, self.trace_id, self.trace_attributes, self.indices = 0, None, {}, []

    def take(self, holder: ET.Element, complete: bool) -> None:
        """Read what the parser has finished below ``holder``, the parent of
        ``<log>``; with ``complete`` the parser has finished the document."""
        if not len(holder):
            return
        log = holder[0]
        if _local_name(log.tag) != "log":
            raise MalformedDocumentError(
                f"expected a <log> document, found <{_local_name(log.tag)}>"
            )
        done = len(log) if complete else len(log) - 1  # the last child may still be open
        for child in log[:done]:
            self._child(child)
        del log[:done]
        if not complete and len(log) and _local_name(log[0].tag) == "trace":
            self._trace(log[0], False)

    def _child(self, element: ET.Element) -> None:
        tag = _local_name(element.tag)
        if tag == "trace":
            self._trace(element, True)
        elif tag == "event":
            where = f"log event {len(self.events)}"
            self.stray = self.stray or where
            self.position += 1
            self._event(element, where)
        elif tag not in _STRUCTURAL_TAGS:
            key, value, _ = _parse_attribute(element, "log")
            if key == KEY_UNTRACED:
                if not isinstance(value, bool):
                    raise MalformedDocumentError(
                        f"log: {KEY_UNTRACED} must be a boolean, got {value!r}"
                    )
                self.untraced = value
            else:
                self.attributes[key] = value

    def _trace(self, element: ET.Element, complete: bool) -> None:
        if element is not self.open:
            self.open, self.trace_position = element, self.position
            self.trace_id, self.trace_attributes, self.indices = None, {}, []
            self.position += 1
        where = f"trace {self.trace_position}"
        done = len(element) if complete else len(element) - 1
        for child in element[:done]:
            tag = _local_name(child.tag)
            if tag == "event":
                self._event(child, f"{where}, event {len(self.indices)}")
                self.indices.append(len(self.events) - 1)
            elif tag not in _STRUCTURAL_TAGS:
                key, value, _ = _parse_attribute(child, where)
                if key == KEY_CONCEPT_NAME:
                    self.trace_id = str(value)
                else:
                    self.trace_attributes[key] = value
        del element[:done]
        if not complete:
            return
        self.open = None
        try:
            self.traces.append(
                Trace(
                    id=self.trace_id if self.trace_id else f"trace_{self.trace_position}",
                    events=tuple(self.indices),
                    attributes=self.trace_attributes,
                )
            )
        except ValueError as exc:
            raise MalformedDocumentError(f"{where}: {exc}") from exc

    def _event(self, element: ET.Element, where: str) -> None:
        try:
            self.events.append(
                _read_event(element, where, self.builder, self.users, self.tasks,
                            self.lenient_names)
            )
        except ValueError as exc:  # an empty id or key, nesting too deep
            raise MalformedDocumentError(f"{where}: {exc}") from exc

    def finish(self) -> UILog:
        # A document written untraced holds one wrapping trace, which is
        # folded away here; otherwise its traces partition the events.
        traced = bool(self.traces) and not self.untraced
        if traced and self.stray is not None:
            # Tolerated only without traces: here no trace would cover it.
            raise MalformedDocumentError(f"{self.stray}: an event outside every trace")
        try:
            return UILog(
                events=tuple(self.events),
                hierarchy=self.builder.build(),
                users=self.users,
                tasks=self.tasks,
                attributes=self.attributes,
                traces=tuple(self.traces) if traced else None,
            )
        except ValueError as exc:
            raise MalformedDocumentError(f"log: {exc}") from exc


def read_xes(source: str, *, lenient_names: bool = False) -> UILog:
    """Parse XES XML text into a UILog.

    Hierarchy nodes are rebuilt on demand from the event-level uilog
    attributes; chains that share a path share nodes, while identical
    element ids under different group paths become distinct siblings.
    With ``lenient_names`` an event without
    concept:name loads with an empty activity name (so validation can
    report it) instead of raising MissingConceptNameError.

    The document is read as it is parsed, so errors come in document
    order: a syntax error late in a document does not pre-empt a fault
    in an earlier event or attribute, unless that is the last one the
    parser finished before the error. Only an event directly under
    ``<log>`` beside traces is reported at the end, since
    ``uilog:untraced`` may follow it.
    """
    reader = _LogReader(lenient_names)
    tree = ET.TreeBuilder()
    holder = tree.start("", {})  # <log> is holder[0] while it is parsed
    parser = ET.XMLParser(target=tree)
    try:
        for start in range(0, len(source), _CHUNK):
            parser.feed(source[start : start + _CHUNK])
            reader.take(holder, False)
        parser.close()
    except (ET.ParseError, ValueError) as exc:
        if isinstance(exc, UnicodeEncodeError):  # a lone surrogate, located in its slice
            exc.object, exc.start, exc.end = source, start + exc.start, start + exc.end
        reader.take(holder, False)  # what the parser finished before the error comes first
        raise MalformedDocumentError(f"not well-formed XML: {exc}") from exc
    reader.take(holder, True)
    return reader.finish()
