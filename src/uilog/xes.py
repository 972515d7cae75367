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
flat format and is accepted deliberately, but neither side pays it per
event: the reader types and the writer renders each distinct context
once per document. The keys, URIs and extension declaration live in
:mod:`uilog.extension` and are re-exported here.

Logs without traces are wrapped in a single artificial trace, marked by
the log-level boolean ``uilog:untraced`` so the reader can undo it,
with a warning where that drops more traces, trace ids or attributes.

The writer emits the document as text in one pass: each element is
appended to one list of pieces, indented from a precomputed table and
escaped as ElementTree escapes attribute values, and the list is joined
once. The element of each distinct target object, the group path,
application and system elements of each distinct (system, application,
group path) scope, each user, task and action element, and the name
and element state elements of each distinct activity name and state
are rendered once per document; an event's state goes between its
element and the rest of its scope.

The reader has three layers, and imports ElementTree only when it runs,
so writing loads no XML parser. :func:`_finished` feeds the text to the
parser in 64 KiB slices and yields, in document order, what the parser
has finished of ``<log>`` and of each ``<trace>``, deleting it from the
tree, so the tree holds about one slice of the document. :class:`_LogReader`
types attributes, checking and normalizing each value where it types it,
and builds events, so the model is built without a second pass.
:func:`read_xes` is one loop over :func:`_finished` that keeps the log
and trace attributes, the trace ids and the events under ``<log>``.
The nested attributes of a group path, application, system, user, task or
action type are typed once per distinct subtree and shared by every
event that repeats it, and a document holds one :class:`Action` per
distinct action; a subtree whose typing warned is typed again where it
recurs, so each occurrence warns with its own location. An event's
children are read in one pass, each field's nested attributes typed
where the field is, so faults and warnings come in document order within
an event too. By one rule, a key repeated in the log, a trace, an event
or a map keeps its last value and warns where it repeats, and attributes
nested anywhere but on those six fields and the UI element, or on an
occurrence of them that is not the last, are typed, so a malformed one
fails, then ignored; both warn. A value carrying attributes that are
ignored counts as one level of nesting. What else the model does not
hold warns too: a ``<global>``, a ``<classifier>``, the declaration of
an extension other than concept, time and uilog, and an ``<id>``
attribute, read as text.
"""

from __future__ import annotations

import re
import warnings
from datetime import datetime
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import (
    InvalidLogError,
    MalformedDocumentError,
    MissingConceptNameError,
    UnserializableValueError,
)
from .extension import (  # re-exported: the XES vocabulary is public here too
    CONCEPT_URI,
    EXTENSION_KEYS,
    KEY_ACTION_TYPE,
    KEY_APPLICATION,
    KEY_CONCEPT_NAME,
    KEY_INPUT_VALUE,
    KEY_SYSTEM,
    KEY_TASK,
    KEY_TIMESTAMP,
    KEY_UI_ELEMENT,
    KEY_UI_ELEMENT_STATE,
    KEY_UI_GROUP_PATH,
    KEY_UNTRACED,
    KEY_USER,
    TIME_URI,
    UILOG_URI,
    emit_extension_definition,
)
from .extension import _allows
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
    _trace_events,
    _trusted,
    format_timestamp,
    join_group_path,
    parse_timestamp,
    split_group_path,
)
from .validation import validate

if TYPE_CHECKING:
    from xml.etree import ElementTree as ET

# ---------------------------------------------------------------------------
# Writing


# Indentation by element depth, deep enough for values nested MAX_NESTING_DEPTH levels.
_INDENT = tuple("\n" + "  " * depth for depth in range(2 * MAX_NESTING_DEPTH + 8))

# Characters that need escaping or that XML 1.0 forbids; then only those it forbids.
_SPECIAL = re.compile('[\x00-\x1f"&<>\ud800-\udfff\ufffe\uffff]')
_NOT_XML_CHAR = re.compile('[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]')

#: (name, prefix, URI) of each extension the writer declares.
_EXTENSIONS = (("Concept", "concept", CONCEPT_URI), ("Time", "time", TIME_URI),
               ("UILog", "uilog", UILOG_URI))
_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<log xes.version="1849-2016" xes.features="nested-attributes">'
) + "".join(f'\n  <extension name="{name}" prefix="{prefix}" uri="{uri}" />'
            for name, prefix, uri in _EXTENSIONS)
#: The id of the one trace an untraced log is written in.
_WRAPPER_ID = "all-events"


#: The keys of event fields: the writer writes no event attribute under
#: them, and the reader reads them as fields.
_EVENT_FIELD_KEYS = frozenset({KEY_CONCEPT_NAME, KEY_TIMESTAMP} | set(EXTENSION_KEYS))


def _escape(text: str, key: str) -> str:
    """``text`` as an XML attribute value, escaped as ElementTree does."""
    if _SPECIAL.search(text) is None:
        return text
    if _NOT_XML_CHAR.search(text) is not None:
        raise UnserializableValueError(f"attribute {key!r} holds text outside XML 1.0")
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("\r", "&#13;").replace("\n", "&#10;")
            .replace("\t", "&#09;"))


def _attribute(out: list, keys: dict, depth: int, key: str, value, nested=None, nesting=0) -> str:
    """Append one attribute element and return its XES type; a string value
    carries ``nested`` attributes."""
    if nesting > MAX_NESTING_DEPTH:
        raise UnserializableValueError(f"attribute {key!r} nests deeper than {MAX_NESTING_DEPTH}")
    pad, name, children = _INDENT[depth], keys.get(key), None
    if name is None:
        name = keys[key] = _escape(_check_id(key, "attribute keys", UnserializableValueError), key)
    if isinstance(value, str):
        tag, text, children = "string", _escape(value, key), nested
    elif isinstance(value, list):
        inner = _INDENT[depth + 1]
        if not value:
            out.append(f'{pad}<list key="{name}">{inner}<values />{pad}</list>')
            return "list"
        out.append(f'{pad}<list key="{name}">{inner}<values>')
        for position, item in enumerate(value):
            _attribute(out, keys, depth + 2, str(position), item, None, nesting + 1)
        out.append(f"{inner}</values>{pad}</list>")
        return "list"
    elif isinstance(value, bool):
        tag, text = "boolean", "true" if value else "false"
    elif isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise UnserializableValueError(f"attribute {key!r} is out of 64-bit range: {value}")
        tag, text = "int", str(value)
    elif isinstance(value, float):
        tag, text = "float", repr(value)
    elif isinstance(value, datetime):
        tag, text = "date", format_timestamp(value, key)
    elif isinstance(value, (dict, Mapping)):
        tag, text, children, nesting = "container", None, value, nesting + 1
    else:
        raise UnserializableValueError(
            f"attribute {key!r} has unsupported type {type(value).__name__}"
        )
    head = f'{pad}<{tag} key="{name}"' + ("" if text is None else f' value="{text}"')
    if not children:
        out.append(head + " />")
        return tag
    out.append(head + ">")
    for child_key, item in children.items():
        _attribute(out, keys, depth + 1, child_key, item, None, nesting)
    out.append(f"{pad}</{tag}>")
    return tag


def _undeclared(place: str, key: str, kind: str, level: str) -> UnserializableValueError:
    """The refusal of a ``level`` attribute that the uilog extension does not allow."""
    return UnserializableValueError(f"{place}: attribute {key!r} of type {kind} is not declared "
                                    f"by the uilog extension at {level} level")


def _rendered(keys: dict, key: str, value, nested=None) -> str:
    """One event-level attribute element as text."""
    out = []
    _attribute(out, keys, 3, key, value, nested)
    return "".join(out)


def _context(target: Target, hierarchy, contexts: dict, keys: dict) -> tuple:
    """The elements recording ``target`` and its nodes' attributes, kept in
    ``contexts`` by the target's id: the element's, and the rest; an event's
    state goes between. The rest is rendered once per (system, application,
    groups) scope."""
    head = ""
    if target.element is not None:
        element = hierarchy.lookup(target)[0]
        head = _rendered(keys, KEY_UI_ELEMENT, target.element, element and element.attributes)
    scope = (target.system, target.application, target.groups)
    rest = contexts.get(scope)
    if rest is None:
        rest = contexts[scope] = _scope(scope, hierarchy, keys)
    contexts[id(target)] = head, rest
    return head, rest


def _scope(scope: tuple, hierarchy, keys: dict) -> str:
    """The group path, application and system elements of (system,
    application, groups)."""
    system, application, groups = scope
    out = []
    if groups:
        nested = {}  # a container per attributed group; they do not count as nesting
        for depth in range(1, len(groups) + 1):
            prefix = Target(groups=groups[:depth], application=application, system=system)
            group = hierarchy.lookup(prefix)[1]
            if group is not None and group.attributes:
                nested[join_group_path(prefix.groups)] = group.attributes
        _attribute(out, keys, 3, KEY_UI_GROUP_PATH, join_group_path(groups), nested, -1)
    _, _, application_node, system_node = hierarchy.lookup(
        Target(application=application, system=system)
    )
    for key, recorded, node in ((KEY_APPLICATION, application, application_node),
                                (KEY_SYSTEM, system, system_node)):
        if recorded is not None:
            _attribute(out, keys, 3, key, recorded, node and node.attributes)
    return "".join(out)


def _event(out: list, index: int, event: InteractionEvent, log: UILog, memo: tuple) -> None:
    """Append the element of ``event``, the log's event ``index``.

    ``memo`` holds what earlier events rendered, four maps that live for
    one :func:`write_xes` call: ``keys`` each attribute key, checked and
    escaped; ``contexts`` the context parts by target and action id (the
    log keeps each alive for the call), by scope, and by (key, id) of each
    user and task; ``names`` the name element by name; ``states`` the
    state element by text, or by type and ``repr`` for other values, which
    tells [1] from [True], [1.0] and ["1"].
    """
    keys, contexts, names, states = memo
    name = event.activity_name
    text = names.get(name)
    if text is None:
        text = names[name] = _rendered(keys, KEY_CONCEPT_NAME, name)
    out.append("\n    <event>" + text)
    timestamp = event.timestamp
    if timestamp is not None:
        text = format_timestamp(timestamp, KEY_TIMESTAMP)
        out.append(f'\n      <date key="{KEY_TIMESTAMP}" value="{text}" />')
    action = event.action
    if action is not None:
        text = contexts.get(id(action))
        if text is None:
            text = contexts[id(action)] = _rendered(
                keys, KEY_ACTION_TYPE, action.action_type, action.attributes
            )
        out.append(text)
    if event.input_value is not None:
        _attribute(out, keys, 3, KEY_INPUT_VALUE, event.input_value)
    head = rest = ""
    target = event.target
    if target is not None:
        head, rest = contexts.get(id(target)) or _context(target, log.hierarchy, contexts, keys)
    out.append(head)
    state = event.current_state
    if state is not None:
        key = state if type(state) is str else (type(state), repr(state))
        text = states.get(key)
        if text is None:
            text = states[key] = _rendered(keys, KEY_UI_ELEMENT_STATE, state)
        out.append(text)
    out.append(rest)
    for key, ref, registry in ((KEY_USER, event.user, log.users),
                               (KEY_TASK, event.task, log.tasks)):
        if ref is not None:
            text = contexts.get((key, ref))
            if text is None:
                text = contexts[key, ref] = _rendered(keys, key, ref, registry.get(ref))
            out.append(text)
    for key, value in event.attributes.items():
        if key in _EVENT_FIELD_KEYS:
            raise UnserializableValueError(
                f"event {index}: attribute {key!r} has the key of an event field"
            )
        kind = _attribute(out, keys, 3, key, value)
        # ":" first: most keys have none, and a call per attribute shows in write_xes's time.
        if ":" in key and not _allows("event", key, kind):
            raise _undeclared(f"event {index}", key, kind, "event")
    out.append("\n    </event>")


def write_xes(log: UILog, *, check: bool = True) -> str:
    """Serialize a log to XES XML text.

    With ``check`` (the default) the log must validate cleanly;
    InvalidLogError carries the report otherwise; without it, a trace
    index that names no event still raises InvalidLogError. Output is
    deterministic for a given log: fixed key order, fixed formatting. A
    time is written by ``model.format_timestamp``, a naive one as UTC, as
    the model reads it. What the model and the reader refuse raises
    UnserializableValueError naming the key: a key that is not non-empty
    text, nesting deeper than MAX_NESTING_DEPTH, an integer outside 64
    bits, a time outside the datetime range in UTC, text outside XML 1.0.
    So does a key the writer gives its own content, which would read
    back as that content: an event attribute keyed ``concept:name``,
    ``time:timestamp`` or one of the event keys of the uilog extension
    (``uilog:action-type``, ``uilog:user`` and the others in
    ``EXTENSION_KEYS``), a trace attribute ``concept:name``, or a log
    attribute ``uilog:untraced``; and a log, trace or event attribute
    under a ``uilog:`` key that the extension does not declare at that
    level in the value's XES type. Those errors name the event index,
    the trace id or ``log`` too.

    Each distinct target, scope, action, user, task, activity name and
    element state is rendered once per call and the text reused.
    """
    if check and not (report := validate(log)).ok:
        count = len(report.violations)
        raise InvalidLogError(f"log failed validation with {count} violation(s)", report=report)
    if KEY_UNTRACED in log.attributes:
        raise UnserializableValueError(
            f"log: attribute {KEY_UNTRACED!r} has the key that marks an untraced log"
        )
    out = [_HEADER]
    memo = (keys := {}, {}, {}, {})  # see _event
    for key, value in log.attributes.items():
        kind = _attribute(out, keys, 1, key, value)
        if not _allows("log", key, kind):
            raise _undeclared("log", key, kind, "log")
    traces = [
        (stored.id, stored.attributes, zip(stored.events, _trace_events(log, stored)))
        for stored in log.traces or ()
    ]
    if log.traces is None and log.events:
        out.append(f'\n  <boolean key="{KEY_UNTRACED}" value="true" />')
        traces = [(_WRAPPER_ID, {}, enumerate(log.events))]
    for trace_id, attributes, events in traces:
        if KEY_CONCEPT_NAME in attributes:
            raise UnserializableValueError(
                f"trace {trace_id!r}: attribute {KEY_CONCEPT_NAME!r} has the key of the trace id"
            )
        out.append("\n  <trace>")
        for key, value in ((KEY_CONCEPT_NAME, trace_id), *attributes.items()):
            kind = _attribute(out, keys, 2, key, value)
            if not _allows("trace", key, kind):
                raise _undeclared(f"trace {trace_id!r}", key, kind, "trace")
        for index, event in events:
            _event(out, index, event, log, memo)
        out.append("\n  </trace>")
    out.append("\n</log>\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Reading


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1] if "}" in tag else tag


def _merge_ref(registry: dict, ref, attributes: dict) -> Optional[str]:
    """Record a user or task id and merge one event's attributes for it."""
    if ref is None:
        return None
    ref = str(ref)
    _check_id(ref)
    registry.setdefault(ref, {}).update(attributes)
    return ref


#: Event fields whose nested attributes recur from event to event; each
#: distinct subtree under one of them is typed once per document. With
#: the UI element they are the attributes whose nested ones are kept.
_CONTEXT_KEYS = frozenset(
    {KEY_ACTION_TYPE, KEY_UI_GROUP_PATH, KEY_APPLICATION, KEY_SYSTEM, KEY_USER, KEY_TASK}
)
_KEEPS_NESTED = _CONTEXT_KEYS | {KEY_UI_ELEMENT}

_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}

_STRUCTURAL_TAGS = frozenset({"extension", "global", "classifier"})
#: The prefixes of the extensions write_xes declares; other declarations warn.
_WRITTEN_PREFIXES = frozenset(prefix for _, prefix, _ in _EXTENSIONS)

#: Characters of the document fed to the parser at a time.
_CHUNK = 64 * 1024


class _LogReader:
    """What one :func:`read_xes` call has typed: its events, hierarchy and registries.

    ``contexts`` holds each distinct context subtree typed (see
    :meth:`_context`); ``warned`` counts the warnings :meth:`_warn` has
    issued, so a subtree whose typing warned is left out of it and warns
    again, with its own location, wherever it recurs.
    """

    def __init__(self, lenient_names: bool):
        self.lenient_names = lenient_names
        self.builder = HierarchyBuilder()
        self.users: dict = {}
        self.tasks: dict = {}
        self.events = []
        self.contexts = {}  # raw context subtree -> what it types to
        self.warned = 0

    def _event(self, element: ET.Element, where: str) -> None:
        try:
            self.events.append(self._read_event(element, where))
        except ValueError as exc:  # an empty id or key, nesting too deep
            raise MalformedDocumentError(f"{where}: {exc}") from exc

    def _timestamp(self, text: str, where: str) -> datetime:
        try:
            value, truncated = parse_timestamp(text)
        except ValueError as exc:
            raise MalformedDocumentError(f"{where}: bad timestamp {text.strip()!r}") from exc
        if truncated:
            self._warn(where, f"timestamp {text.strip()!r} truncated to milliseconds")
        return value

    def _warn(self, where: str, text: str) -> None:
        self.warned += 1
        warnings.warn(f"{where}: {text}")

    def _keep(self, mapping: dict, key: str, value, where: str, level: str) -> None:
        """Store ``value`` under ``key``; a repeated key keeps its last value
        and warns where it repeats."""
        if key in mapping:
            self._warn(where, f"duplicate {level} key {key!r}; keeping the last")
        mapping[key] = value

    def _attribute(self, element: ET.Element, where: str, depth: int = 0, kept=()):
        """Return (key, value, nested) for one attribute element.

        The value is checked and normalized here, once, as the model's
        ``normalize_value`` would: ``depth`` counts the lists, containers and
        dropped values around the element, and every key must be non-empty.
        ``nested`` is the element itself when it is an elementary value keyed
        in ``kept`` with child attributes, else None; on other values those
        are typed one level deeper, as a container's would be, so a malformed
        or too deep one fails, and dropped with a warning. The children of
        lists and containers are the value itself.
        """
        tag = _local_name(element.tag)
        key = element.get("key")
        if not key:
            if key is None:
                raise MalformedDocumentError(f"{where}: attribute element without key")
            raise MalformedDocumentError(f"{where}: attribute keys must be non-empty text, got ''")
        if depth >= MAX_NESTING_DEPTH and (len(element) or tag == "list" or tag == "container"):
            raise MalformedDocumentError(  # each of those nests one level
                f"{where}: attribute nesting deeper than {MAX_NESTING_DEPTH}"
            )
        if tag == "list" or tag == "container":
            if tag == "container":
                return key, self._map(element, where, depth + 1), None
            values = [child for child in element if _local_name(child.tag) == "values"]
            children = values[0] if values else element
            items = [self._attribute(child, where, depth + 1)[1]
                     for child in children if _local_name(child.tag) != "values"]
            return key, items, None
        raw = element.get("value")
        if raw is None:
            raise MalformedDocumentError(f"{where}: {tag} attribute {key!r} without value")
        if tag == "string":
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
        elif tag == "boolean":  # xs:boolean; true and false in any case
            value = _BOOLEANS.get(raw.strip().lower())
            if value is None:
                raise MalformedDocumentError(
                    f"{where}: boolean attribute {key!r} must be true, false, 1 or 0, got {raw!r}"
                )
        elif tag == "date":
            value = self._timestamp(raw, where)
        elif tag == "id":
            value = raw
            self._warn(where, f"id attribute {key!r} is read as text")
        else:
            raise MalformedDocumentError(f"{where}: unknown attribute type {tag!r}")
        nested = element if len(element) else None
        if nested is not None and key not in kept:  # typed as one more level, then dropped
            self._map(nested, where, depth + 1)
            self._warn(where, f"attributes nested on {key} are not kept; ignored")
            return key, value, None
        return key, value, nested

    def _map(self, element: ET.Element, where: str, depth: int = 0) -> dict:
        """The child attributes of ``element`` as a key -> value map, each at
        ``depth``; of a repeated key the last one is kept, with a warning."""
        mapping = {}
        for child in element:
            key, value, _ = self._attribute(child, where, depth)
            self._keep(mapping, key, value, where, "map")
        return mapping

    def _context(self, key: str, value, nested: Optional[ET.Element], where: str):
        """The attributes nested on the event field ``key`` = ``value``, typed.

        A group path gives its group attribute sets by group id path, an
        action type its :class:`Action` (None for an empty type), the
        other fields their map. A document repeats these on every event,
        so each distinct subtree is typed once: it is known by its raw
        elements, (tag, key, value, child count) in document order, which
        is all that typing reads, and a bare action type by its text.
        """
        if nested is None:
            raw = (key, str(value))  # its text: True == 1, yet they print apart
        else:
            raw = tuple([(e.tag, e.get("key"), e.get("value"), len(e)) for e in nested.iter()])
        typed = self.contexts.get(raw)
        if typed is not None:
            return typed
        warned = self.warned
        typed = {}
        if nested is not None:  # group containers do not count as nesting
            typed = self._map(nested, where, -1 if key == KEY_UI_GROUP_PATH else 0)
        if key == KEY_UI_GROUP_PATH:
            typed = self._group_attributes(split_group_path(str(value)), typed, where)
        elif key == KEY_ACTION_TYPE:
            if not str(value):
                return None  # the event fails where it checks its action
            typed = _trusted(Action, str(value), typed)
        if self.warned == warned:
            self.contexts[raw] = typed
        return typed

    def _group_attributes(self, groups: tuple, nested: dict, where: str) -> dict:
        """Of the attributes nested on the group path ``groups``, the
        containers of its groups by group id path; the rest warn."""
        typed = {}
        for path, attributes in nested.items():
            ids = split_group_path(path)
            if isinstance(attributes, dict) and ids == groups[:len(ids)]:
                typed[ids] = attributes
            else:
                fault = "names no group on its path" if isinstance(attributes, dict) \
                    else "is not a container"
                self._warn(where, f"attribute {path!r} nested on {KEY_UI_GROUP_PATH} "
                                  f"{fault}, so it is not kept; ignored")
        return typed

    def _read_event(self, element: ET.Element, where: str) -> InteractionEvent:
        fields, typed, extras = {}, {}, {}
        for child in element:
            key, value, nested = self._attribute(child, where, 0, _KEEPS_NESTED)
            if key not in _EVENT_FIELD_KEYS:
                self._keep(extras, key, value, where, "event")
                continue
            # What a kept field nests is typed as it is read, each context once
            # per document; a later occurrence replaces or drops the earlier one's.
            if nested is None and key != KEY_ACTION_TYPE:
                typed.pop(key, None)
            elif key == KEY_UI_ELEMENT:
                typed[key] = self._map(nested, where)
            else:
                typed[key] = self._context(key, value, nested, where)
            self._keep(fields, key, value, where, "event")

        name = fields.get(KEY_CONCEPT_NAME)
        if name is None:
            if not self.lenient_names:
                raise MissingConceptNameError(f"{where}: event has no {KEY_CONCEPT_NAME}")
            name = ""
        if not isinstance(name, str):
            name = str(name)

        timestamp = fields.get(KEY_TIMESTAMP)
        if timestamp is not None and not isinstance(timestamp, datetime):
            timestamp = self._timestamp(str(timestamp), where)

        action = typed.get(KEY_ACTION_TYPE)
        if action is None and KEY_ACTION_TYPE in fields:
            raise ValueError("action_type must be non-empty text")

        element_id = fields.get(KEY_UI_ELEMENT)
        groups = split_group_path(str(fields[KEY_UI_GROUP_PATH])) if KEY_UI_GROUP_PATH in fields else ()
        application = fields.get(KEY_APPLICATION)
        system = fields.get(KEY_SYSTEM)

        target = None
        if element_id is not None or groups or application is not None or system is not None:
            target = self.builder.chain(
                system=str(system) if system is not None else None,
                application=str(application) if application is not None else None,
                groups=groups,
                element=str(element_id) if element_id is not None else None,
                system_attributes=typed.get(KEY_SYSTEM),
                application_attributes=typed.get(KEY_APPLICATION),
                group_attributes=typed.get(KEY_UI_GROUP_PATH),
                element_attributes=typed.get(KEY_UI_ELEMENT),
            )

        user = _merge_ref(self.users, fields.get(KEY_USER), typed.get(KEY_USER, {}))
        task = _merge_ref(self.tasks, fields.get(KEY_TASK), typed.get(KEY_TASK, {}))
        return _trusted(InteractionEvent, name, action, target, fields.get(KEY_INPUT_VALUE),
                        fields.get(KEY_UI_ELEMENT_STATE), timestamp, user, task, extras)


#: What :func:`_finished` yields where a trace starts and where it ends.
_OPEN, _CLOSE = "<trace>", "</trace>"


def _finished(source: str):
    """Yield, in document order, what the parser finishes of ``source``, fed
    in ``_CHUNK`` slices: each child of ``<log>`` as a 1-tuple, and of each
    trace ``_OPEN``, its children in lists and ``_CLOSE``. Each is deleted
    from the tree once read, and comes before a syntax error found later."""
    from xml.etree import ElementTree as ET  # only a command that reads XES loads the parser

    tree = ET.TreeBuilder()
    holder = tree.start("", {})  # <log> is holder[0] while it is parsed
    parser = ET.XMLParser(target=tree)
    trace = error = None  # trace: the open <trace>, once _OPEN is yielded for it
    for start in range(0, len(source) + _CHUNK, _CHUNK):  # the last slice is empty: close
        complete = start >= len(source)
        try:
            parser.feed(source[start : start + _CHUNK])
            if complete:
                parser.close()
        except (ET.ParseError, ValueError) as exc:
            if isinstance(exc, UnicodeEncodeError):  # a lone surrogate, located in its slice
                exc.object, exc.start, exc.end = source, start + exc.start, start + exc.end
            error, complete = exc, False
        if len(holder):
            log = holder[0]
            if _local_name(log.tag) != "log":
                raise MalformedDocumentError(
                    f"log: expected <log> as the document element, found <{_local_name(log.tag)}>"
                )
            done = len(log) if complete else len(log) - 1  # the last child may still be open
            for index, child in enumerate(log[:]):
                ended = index < done
                if _local_name(child.tag) != "trace":
                    if ended:
                        yield child,
                    continue
                if child is not trace:
                    trace = child
                    yield _OPEN
                batch = child[:] if ended else child[:-1]  # an open trace's last child may be open
                del child[:len(batch)]
                yield batch
                batch.clear()  # read by now: free it before the next slice is parsed
                if ended:
                    trace = None
                    yield _CLOSE
            del log[:done]
        if error is not None:
            raise MalformedDocumentError(f"not well-formed XML: {error}") from error


def read_xes(source: str, *, lenient_names: bool = False) -> UILog:
    """Parse XES XML text into a UILog.

    Hierarchy nodes are rebuilt on demand from the event-level uilog
    attributes; chains that share a path share nodes, while identical
    element ids under different group paths become distinct siblings.
    With ``lenient_names`` an event without
    concept:name loads with an empty activity name (so validation can
    report it) instead of raising MissingConceptNameError.

    The document is read as it is parsed, so errors and warnings come in
    document order, within an event too: a syntax error late in a
    document does not pre-empt a fault in an earlier event or attribute,
    unless that is the last one the parser finished before the error.
    Only an event directly under ``<log>`` beside traces is reported at
    the end, since ``uilog:untraced`` may follow it. A repeated key keeps
    its last value and warns where it repeats, and attributes nested on
    other than the event's UI element and context fields (see the module
    docstring), or on a repeat of them overwritten, are typed, then
    ignored; both warn.
    """
    reader = _LogReader(lenient_names)
    events, attributes, traces = reader.events, {}, []
    trace = stray = None  # the attributes of the open trace; the first event under <log>
    where, position, named = "log", 0, 0  # position: of the next trace or event under <log>
    for children in _finished(source):
        if children is _OPEN:
            trace, where, first = {}, f"trace {position}", len(events)
            position += 1
        elif children is _CLOSE:  # nothing under <log> has moved position since _OPEN
            trace_id = str(trace.pop(KEY_CONCEPT_NAME, ""))
            named += trace_id not in ("", _WRAPPER_ID) or bool(trace)
            traces.append(_trusted(Trace, trace_id or f"trace_{position - 1}",
                                   tuple(range(first, len(events))), trace))
            trace, where = None, "log"
        else:
            for child in children:
                tag = _local_name(child.tag)
                if tag == "event" and trace is not None:
                    reader._event(child, f"{where}, event {len(events) - first}")
                elif tag == "event":
                    stray, position = stray or f"log event {len(events)}", position + 1
                    reader._event(child, f"log event {len(events)}")
                elif tag in _STRUCTURAL_TAGS:
                    if tag != "extension" or child.get("prefix") not in _WRITTEN_PREFIXES:
                        reader._warn(where, f"<{tag}> is not kept; ignored")
                elif trace is not None:
                    key, value, _ = reader._attribute(child, where)
                    reader._keep(trace, key, value, where, "trace")
                else:
                    key, value, _ = reader._attribute(child, "log")
                    if key == KEY_UNTRACED and not isinstance(value, bool):
                        raise MalformedDocumentError(f"log: {key} must be a boolean, got {value!r}")
                    reader._keep(attributes, key, value, "log", "log")
    # A document written untraced holds one wrapping trace, which is
    # folded away here; otherwise its traces partition the events.
    untraced = attributes.pop(KEY_UNTRACED, False)
    if untraced and (len(traces) > 1 or named):
        reader._warn("log", f"{KEY_UNTRACED} is true, so its {len(traces)} trace(s) are "
                            "folded into one untraced log, without their ids and attributes")
    traced = not untraced and bool(traces)
    if traced and stray is not None:
        # Tolerated only without traces: here no trace would cover it.
        raise MalformedDocumentError(f"{stray}: an event outside every trace")
    return _trusted(UILog, tuple(events), reader.builder.build(), reader.users, reader.tasks,
                    attributes, tuple(traces) if traced else None)
