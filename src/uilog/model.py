"""Core data model for user-interaction logs.

A log is an ordered sequence of interaction events. Each event names an
activity and may additionally record what the user did (an action), where
they did it (a target location inside the UI hierarchy), an input value,
a timestamp, and references to a user and a task. Everything except the
activity name is optional, and every component can carry arbitrary extra
attributes.

The UI hierarchy is a composition forest with four levels: systems hold
applications, applications hold UI groups and UI elements, and UI groups
nest other groups and elements. ``_PARENT_TYPES`` states these rules
once, for the location index, the builder and validation alike. Node ids
only need to be unique among siblings, so the same element id may exist
under different groups (think of cell "A1" on two spreadsheet tabs).
Events therefore record their location as the full id chain
(:class:`Target`), and :meth:`UIHierarchy.resolve` maps that chain to
the most specific node.

Every record is a plain class whose ``__slots__`` are its fields (see
:class:`_Record`). Records are immutable after construction; operations
return new values.
"""

from __future__ import annotations

import enum
import re
from datetime import datetime, timezone
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    BadConfigError,
    CycleError,
    DanglingReferenceError,
    InvalidLogError,
    NoTargetError,
    UnserializableValueError,
)

#: Maximum nesting depth of list/map attribute values.
MAX_NESTING_DEPTH = 32

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# An attribute value is plain data: text, a 64-bit integer, a float, a
# boolean, a UTC timestamp, an ordered list of values, or a map with text
# keys. Containers may nest up to MAX_NESTING_DEPTH levels.
AttributeValue = Union[str, int, float, bool, datetime, list, dict]


def normalize_timestamp(value: datetime) -> datetime:
    """Coerce a timestamp to UTC and truncate it to millisecond precision.

    Naive datetimes are taken to already denote UTC. Raises ValueError
    for a time whose UTC form falls outside the datetime range.
    """
    if not isinstance(value, datetime):
        raise TypeError(f"expected datetime, got {type(value).__name__}")
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    else:
        try:
            value = value.astimezone(timezone.utc)
        except OverflowError:
            raise ValueError(f"{value.isoformat()} is outside the datetime range in UTC") from None
    return value.replace(microsecond=value.microsecond - value.microsecond % 1000)


def format_timestamp(value: datetime, key) -> str:
    """Attribute ``key``'s time as normalize_timestamp reads it, in ISO 8601 to the millisecond,
    the one form both writers write; outside the datetime range in UTC, UnserializableValueError."""
    if value.tzinfo is not timezone.utc:  # what the model made is UTC already
        try:
            value = normalize_timestamp(value)
        except ValueError as exc:
            raise UnserializableValueError(f"attribute {key!r}: {exc}") from None
    return value.isoformat("T", "milliseconds")


# ISO 8601 calendar date, optionally followed by a time of day (after any
# one separator character) and a UTC offset. Date, time and offset are
# each either basic (no separators) or extended; fractions take "." or ",".
_ISO_TIMESTAMP = re.compile(
    r"(\d{4})(-?)(\d{2})\2(\d{2})"
    r"(?:\D(\d{2})(?:(:?)(\d{2})(?:\6(\d{2})(?:[.,](\d+))?)?)?"
    r"(?:[Zz]|([+-])(\d{2})(?:(:?)(\d{2})(?:\12(\d{2}))?)?)?)?",
    re.ASCII,
)

# Exactly what format_timestamp writes.
_CANONICAL_TIMESTAMP = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}\+00:00", re.ASCII)


def parse_timestamp(text: str, pattern: Optional[str] = None) -> tuple:
    """Parse ISO 8601 text, or by the strptime ``pattern``, into (timestamp, truncated?).

    "Z" denotes UTC and text without an offset is taken as UTC; fractions
    may have any length, and ``truncated`` says the text was more precise
    than a millisecond. Only the canonical extended form of a match
    reaches ``datetime.fromisoformat``, so every supported Python accepts
    the same texts; text :func:`format_timestamp` wrote is already in that
    form and goes there directly. Raises ValueError for anything else.
    """
    if pattern:
        parsed = datetime.strptime(text, pattern)
        return normalize_timestamp(parsed), parsed.microsecond % 1000 != 0
    if _CANONICAL_TIMESTAMP.fullmatch(text):
        try:
            return datetime.fromisoformat(text), False  # in UTC, to the millisecond
        except ValueError:
            pass  # no such date or time; the general path reports it
    match = _ISO_TIMESTAMP.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an ISO 8601 timestamp: {text.strip()!r}")
    year, _, month, day, hour, _, minute, second, digits, sign, oh, _, om, osec = (
        match.groups("")
    )
    offset = f"{sign}{oh}:{om or '00'}:{osec or '00'}" if sign else ""
    value = datetime.fromisoformat(
        f"{year}-{month}-{day}T{hour or '00'}:{minute or '00'}:{second or '00'}"
        f".{digits[:6].ljust(6, '0')}{offset}"
    )
    return normalize_timestamp(value), digits[3:].strip("0") != ""


def normalize_value(value: AttributeValue, _depth: int = 0) -> AttributeValue:
    """Validate an attribute value and return its normalized copy.

    Timestamps are normalized to UTC milliseconds, tuples become lists,
    and arbitrary mappings become plain dicts. Raises TypeError for
    unsupported types and ValueError for out-of-range integers, map keys
    that are not non-empty text, or nesting deeper than MAX_NESTING_DEPTH.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ValueError(f"integer attribute out of 64-bit range: {value}")
        return value
    if isinstance(value, (str, float)):
        return value
    if isinstance(value, datetime):
        return normalize_timestamp(value)
    if isinstance(value, (list, tuple, Mapping)):
        if _depth >= MAX_NESTING_DEPTH:
            raise ValueError(f"attribute nesting deeper than {MAX_NESTING_DEPTH}")
        if isinstance(value, Mapping):
            return normalize_attributes(value, _depth + 1)
        return [normalize_value(item, _depth + 1) for item in value]
    raise TypeError(f"unsupported attribute value type: {type(value).__name__}")


def normalize_attributes(attributes: Optional[Mapping], _depth: int = 0) -> dict:
    """Normalize an attribute set (key → value), or a map ``_depth`` deep."""
    if not attributes:
        return {}
    out = {}
    for key, value in attributes.items():
        _check_id(key, "attribute keys")
        out[key] = normalize_value(value, _depth)
    return out


def _check_id(value, what: str = "id", error: type = ValueError) -> str:
    """``value`` if it is non-empty text, as ids, action types and attribute
    keys must be, else ``error`` naming it; both writers check keys by this."""
    if not isinstance(value, str) or not value:
        raise error(f"{what} must be non-empty text, got {value!r}")
    return value


class _Record:
    """Base of every record: a plain class whose ``__slots__`` are its
    fields, in order. Each class's ``__init__`` checks and normalizes its
    arguments and hands them to this one, which fills the slots. A record
    compares, hashes, prints, copies and pickles by its fields, and
    refuses to set or delete them."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values):
        for set_value, value in zip(self._setters, values):
            set_value(self, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _trusted, (type(self), *self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _trusted(cls, *values):
    """A ``cls`` record holding ``values``, one per field in order, as given.

    Skips the checks of ``cls.__init__``: for the loaders, the builder and
    unpickling only, which pass values checked and normalized already.
    Fills the slots through their descriptors as :class:`_Record` does,
    but inline, since every loaded event pays for this call.
    """
    record = object.__new__(cls)
    for set_value, value in zip(cls._setters, values):
        set_value(record, value)
    return record


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


# ---------------------------------------------------------------------------
# UI hierarchy


class Level(enum.IntEnum):
    """Hierarchy levels, ordered from least to most specific."""

    SYSTEM = 1
    APPLICATION = 2
    GROUP = 3
    ELEMENT = 4


class _Node(_Record):
    """What every hierarchy node checks: a non-empty text id, and its
    attribute set normalized. ``parent`` is the node it hangs under."""

    __slots__ = ()

    def __init__(self, id: str, parent: Optional[_Node] = None,
                 attributes: Optional[Mapping] = None):
        _check_id(id)
        _Record.__init__(self, id, parent, normalize_attributes(attributes))


class SystemNode(_Node):
    """Root of a composition tree: the machine or environment observed."""

    __slots__ = ("id", "attributes")

    def __init__(self, id: str, attributes: Optional[Mapping] = None):
        _check_id(id)
        _Record.__init__(self, id, normalize_attributes(attributes))


class ApplicationNode(_Node):
    """A single program instance, optionally running on a system."""

    __slots__ = ("id", "system", "attributes")

    def __init__(self, id: str, system: Optional[SystemNode] = None,
                 attributes: Optional[Mapping] = None):
        _Node.__init__(self, id, system, attributes)


class UIGroupNode(_Node):
    """A named part of an interface; groups nest inside groups or apps."""

    __slots__ = ("id", "parent", "attributes")


class UIElementNode(_Node):
    """An atomic widget (button, text box, dropdown); always a leaf.

    What a stateful widget showed is recorded per interaction, on the
    :class:`InteractionEvent`, not on the node.
    """

    __slots__ = ("id", "parent", "attributes")


#: Any node a resolved target may point at.
TargetNode = Union[UIElementNode, UIGroupNode, ApplicationNode, SystemNode]

#: The composition rules, stated once: each node type, in level order,
#: and the node types it may hang under.
_PARENT_TYPES = {
    SystemNode: (),
    ApplicationNode: (SystemNode,),
    UIGroupNode: (UIGroupNode, ApplicationNode),
    UIElementNode: (UIGroupNode, ApplicationNode),
}

_LEVEL_BY_TYPE = dict(zip(_PARENT_TYPES, Level))


def level_of(node: TargetNode) -> Level:
    """Return the hierarchy level of a node."""
    try:
        return _LEVEL_BY_TYPE[type(node)]
    except KeyError:
        raise TypeError(f"not a hierarchy node: {type(node).__name__}") from None


def parent_of(node):
    """Return the composition parent of a node, or None at a root.

    Total: anything that is not a hierarchy node is treated as a root,
    so walks over defective hierarchies terminate and validation can
    report the breach instead of crashing.
    """
    if isinstance(node, ApplicationNode):
        return node.system
    if isinstance(node, (UIGroupNode, UIElementNode)):
        return node.parent
    return None


# ---------------------------------------------------------------------------
# Group path encoding (shared by the XES and tabular formats)


def join_group_path(ids: Iterable[str]) -> str:
    """Join group ids, outermost first, into a "/"-separated path.

    Literal slashes and backslashes inside ids are escaped so the joined
    form stays unambiguous.
    """
    return "/".join(i.replace("\\", "\\\\").replace("/", "\\/") for i in ids)


def split_group_path(text: str) -> tuple:
    """Inverse of :func:`join_group_path`; "" yields the empty path."""
    if not text:
        return ()
    if "\\" not in text:
        return tuple(text.split("/"))
    parts = []
    current = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text) and text[i + 1] in "\\/":
            current.append(text[i + 1])
            i += 2
        elif ch == "/":
            parts.append("".join(current))
            current = []
            i += 1
        else:
            current.append(ch)
            i += 1
    parts.append("".join(current))
    return tuple(parts)


# ---------------------------------------------------------------------------
# Targets


class Target(_Record):
    """The UI location recorded for one event, as an id chain.

    Each field holds what the recorder captured at that level; ``None``
    (or an empty group path) means the level was not recorded, in which
    case the chain is rooted at the highest recorded level below it. The
    one exception is a recorded system with no recorded application:
    composition only links applications to systems, so such a system is
    kept as a free-standing association next to the group/element chain.
    """

    __slots__ = ("element", "groups", "application", "system")

    def __init__(self, element: Optional[str] = None, groups: Iterable[str] = (),
                 application: Optional[str] = None, system: Optional[str] = None):
        groups = tuple(groups)
        for gid in groups:
            _check_id(gid)
        for value in (element, application, system):
            if value is not None:
                _check_id(value)
        _Record.__init__(self, element, groups, application, system)

    @property
    def is_empty(self) -> bool:
        return not (self.element or self.groups or self.application or self.system)

    @property
    def most_specific_id(self) -> Optional[str]:
        if self.element is not None:
            return self.element
        if self.groups:
            return self.groups[-1]
        if self.application is not None:
            return self.application
        return self.system


class UIHierarchy(_Record):
    """The registered node sets of one log's UI composition forest."""

    # The instance dict holds the location index, built on first use.
    __slots__ = ("systems", "applications", "ui_groups", "ui_elements", "__dict__")

    def __init__(self, systems: Iterable = (), applications: Iterable = (),
                 ui_groups: Iterable = (), ui_elements: Iterable = ()):
        _Record.__init__(self, tuple(systems), tuple(applications), tuple(ui_groups),
                         tuple(ui_elements))

    def all_nodes(self) -> Iterator[TargetNode]:
        yield from self.systems
        yield from self.applications
        yield from self.ui_groups
        yield from self.ui_elements

    @property
    def node_count(self) -> int:
        return (
            len(self.systems)
            + len(self.applications)
            + len(self.ui_groups)
            + len(self.ui_elements)
        )

    @cached_property
    def _located(self) -> dict:
        """id of each member → (system id, application id, group id path,
        element id), or None where its chain leaves the hierarchy, cycles
        or links types that :data:`_PARENT_TYPES` does not admit.

        A node's location is its parent's with its own id added.
        """
        located = dict.fromkeys(map(id, self.all_nodes()))
        pending = [node for node in self.all_nodes() if type(node) in _PARENT_TYPES]
        while pending:
            waiting = []
            for node in pending:
                kind = type(node)
                parent = parent_of(node)
                if parent is None:
                    above = _NOWHERE
                elif located.get(id(parent)) and type(parent) in _PARENT_TYPES[kind]:
                    above = located[id(parent)]
                else:
                    waiting.append(node)
                    continue
                located[id(node)] = _extend(above, kind, node.id)
            if len(waiting) == len(pending):
                break
            pending = waiting
        return located

    @cached_property
    def _locations(self) -> dict:
        """Location (see :attr:`_located`) → first node registered there."""
        located = self._located
        index = {}
        for node in self.all_nodes():
            location = located.get(id(node))
            if location is not None:
                index.setdefault(location, node)
        return index

    def __contains__(self, node) -> bool:
        return id(node) in self._located

    def lookup(self, target: Target) -> tuple:
        """The nodes a target addresses: (element, group, application, system).

        ``group`` is the node at the full recorded group path. An entry is
        None where its level is not recorded or not found. Only
        applications hang under a system (:data:`_PARENT_TYPES`), so a
        system recorded without an application does not scope the
        group/element chain, as :class:`Target` states.
        """
        get = self._locations.get
        element, path, application, system = (
            target.element, target.groups, target.application, target.system
        )
        scope = system if application is not None else None
        return (
            None if element is None else get((scope, application, path, element)),
            get((scope, application, path, None)) if path else None,
            None if application is None else get((system, application, (), None)),
            None if system is None else get((system, None, (), None)),
        )

    def _recorded(self, target: Target) -> list:
        """(level, node or None) per recorded level, most specific first."""
        element, group, application, system = self.lookup(target)
        levels = (
            (Level.ELEMENT, target.element, element),
            (Level.GROUP, target.groups, group),
            (Level.APPLICATION, target.application, application),
            (Level.SYSTEM, target.system, system),
        )
        return [(level, node) for level, recorded, node in levels if recorded]

    def check_target(self, target: Target) -> None:
        """Verify that every level the target records exists here; the
        most specific missing level is the one reported."""
        for level, node in self._recorded(target):
            if node is None:
                raise _not_found(target, level)

    def resolve(self, target: Optional[Target]) -> TargetNode:
        """Return the node for the most specific recorded level."""
        if target is None or target.is_empty:
            raise NoTargetError("event has no UI hierarchy association")
        level, node = self._recorded(target)[0]
        if node is None:
            raise _not_found(target, level)
        return node

    def ancestors(self, node: TargetNode) -> list:
        """Parents of a member node, nearest first; CycleError if the
        chain holds more parents than the hierarchy has nodes."""
        if node not in self:
            raise DanglingReferenceError(
                f"node {node.id!r} is not part of this hierarchy", node_id=node.id
            )
        chain = []
        current = parent_of(node)
        cap = self.node_count + 1
        while current is not None:
            chain.append(current)
            if len(chain) > cap:
                raise CycleError(f"parent chain from {node.id!r} does not terminate")
            current = parent_of(current)
        return chain

    def location_of(self, node: TargetNode) -> Target:
        """The Target chain that addresses a member node.

        Raises DanglingReferenceError for a foreign node or a broken
        parent chain (see :attr:`_located`).
        """
        location = self._located.get(id(node))
        if location is None:
            raise DanglingReferenceError(
                f"node {node.id!r} has no location in this hierarchy", node_id=node.id
            )
        system, application, groups, element = location
        return Target(element=element, groups=groups, application=application, system=system)


_NOWHERE = (None, None, (), None)


def _extend(location: tuple, kind: type, node_id: str) -> tuple:
    """The location of a ``kind`` node ``node_id`` under the node at ``location``."""
    system, application, groups, element = location
    if kind is UIElementNode:
        return system, application, groups, node_id
    if kind is UIGroupNode:
        return system, application, groups + (node_id,), None
    if kind is ApplicationNode:
        return system, node_id, (), None
    return node_id, None, (), None


def _not_found(target: Target, level: Level) -> DanglingReferenceError:
    path = join_group_path(target.groups)
    if level is Level.ELEMENT:
        message = f"element {target.element!r} not found under group path {path!r}"
        return DanglingReferenceError(message, node_id=target.element)
    if level is Level.GROUP:
        return DanglingReferenceError(f"group path {path!r} not found", node_id=target.groups[-1])
    node_id = target.application if level is Level.APPLICATION else target.system
    return DanglingReferenceError(f"{level.name.lower()} {node_id!r} not found", node_id=node_id)


# ---------------------------------------------------------------------------
# Hierarchy construction


class HierarchyBuilder:
    """Incremental constructor for a UIHierarchy.

    :meth:`chain` declares one recorded location at a time and makes each
    node the first time a location reaches it; later calls reuse it,
    which is what ingestion wants when every row repeats its context.
    Chains only link levels the composition rules admit, so the result
    is well-formed by construction. Node attributes are checked and
    normalized once, in :meth:`build`, which hands the nodes over and
    empties the builder.
    """

    def __init__(self):
        self._nodes = {}  # location, as UIHierarchy.lookup keys nodes -> node
        self._chains = {}  # (system, application, groups, element) -> (Target, nodes)
        self._prefixes = {}  # (system, application, groups) -> (nodes, last one, its location)

    def chain(
        self,
        *,
        system: Optional[str] = None,
        application: Optional[str] = None,
        groups: Iterable[str] = (),
        element: Optional[str] = None,
        system_attributes: Optional[Mapping] = None,
        application_attributes: Optional[Mapping] = None,
        group_attributes: Optional[Mapping] = None,
        element_attributes: Optional[Mapping] = None,
    ) -> Target:
        """Ensure the nodes for one recorded location exist; return it.

        Attribute mappings are merged into the nodes as given (later
        values win), and ``group_attributes`` maps group id paths
        (tuples) to attribute sets. Values are checked when :meth:`build`
        hands the nodes over, so an unsupported or too deeply nested
        attribute value raises TypeError or ValueError from there; an
        empty id raises ValueError here. Each distinct location is walked
        once, and later calls for it reuse its Target and nodes; a walk
        reuses the nodes of its (system, application, groups) prefix
        where an earlier walk made them.
        """
        groups = tuple(groups)
        key = (system, application, groups, element)
        try:
            known = self._chains.get(key)
        except TypeError:  # an unhashable id, which _walk rejects
            known = None
        if known is None:
            known = self._chains[key] = self._walk(*key)
        target, system_node, app_node, group_nodes, element_node = known
        _merge(system_node, system_attributes)
        _merge(app_node, application_attributes)
        if group_attributes:
            for depth, group_node in enumerate(group_nodes, start=1):
                _merge(group_node, group_attributes.get(groups[:depth]))
        _merge(element_node, element_attributes)
        return target

    def _walk(self, system, application, groups, element) -> tuple:
        """(Target, system, application, group and element nodes) of a
        location, making the nodes it lacks. The nodes down to its group
        path are kept per (system, application, groups) prefix, so a new
        element under a known prefix makes its own node only."""
        prefix = (system, application, groups)
        try:
            above = self._prefixes.get(prefix)
        except TypeError:  # an unhashable id, which _node rejects
            above = None
        if above is None:
            nodes, parent, location = [], None, _NOWHERE
            levels = [(SystemNode, system), (ApplicationNode, application)]
            levels += [(UIGroupNode, gid) for gid in groups]
            for kind, node_id in levels:
                if node_id is None:
                    nodes.append(None)
                    continue
                parent, location = self._node(parent, location, kind, node_id)
                nodes.append(parent)
            above = self._prefixes[prefix] = (nodes, parent, location)
        nodes, parent, location = above
        element_node = None
        if element is not None:
            element_node = self._node(parent, location, UIElementNode, element)[0]
        target = _trusted(Target, element, groups, application, system)
        system_node, app_node, *group_nodes = nodes
        return target, system_node, app_node, group_nodes, element_node

    def _node(self, parent, location: tuple, kind: type, node_id) -> tuple:
        """(node, location) of a ``kind`` node ``node_id`` below ``parent``
        at ``location``, made if new, with an empty attribute set. It
        hangs there where :data:`_PARENT_TYPES` admits it, else is a root."""
        _check_id(node_id)
        if type(parent) not in _PARENT_TYPES[kind]:
            parent, location = None, _NOWHERE
        location = _extend(location, kind, node_id)
        node = self._nodes.get(location)
        if node is None:
            link = () if kind is SystemNode else (parent,)
            node = self._nodes[location] = _trusted(kind, node_id, *link, {})
        return node, location

    def build(self) -> UIHierarchy:
        """The hierarchy of the nodes chained so far, grouped by type, with
        their attributes normalized in place; a bad value raises TypeError
        or ValueError. It hands the nodes over and empties the builder, so
        a later :meth:`chain` starts a new hierarchy."""
        nodes = self._nodes.values()
        self.__init__()
        levels = {kind: [] for kind in _PARENT_TYPES}  # in UIHierarchy's field order
        for node in nodes:
            if node.attributes:
                node.attributes.update(normalize_attributes(node.attributes))
            levels[type(node)].append(node)
        return UIHierarchy(*levels.values())


def _merge(node: Optional[_Node], attributes: Optional[Mapping]) -> None:
    if node is not None and attributes:
        node.attributes.update(attributes)


# ---------------------------------------------------------------------------
# Context components and events


class Action(_Record):
    """What the user did. The type domain is open ("left click", "input",
    "KEY_F5", ...); the literal "none" is a real value used by abstracted
    events and is distinct from an absent action."""

    __slots__ = ("action_type", "attributes")

    def __init__(self, action_type: str, attributes: Optional[Mapping] = None):
        _check_id(action_type, "action_type")
        _Record.__init__(self, action_type, normalize_attributes(attributes))


class InteractionEvent(_Record):
    """One activity instance.

    Only the activity name is mandatory, and even that is checked by
    validation rather than at construction so that defective logs can be
    represented and reported. Without a timestamp an event is ordered by
    its position in the log. The element state is the one the target
    element showed at this interaction; for list and dropdown elements
    the convention is a list of selectable labels. ``user`` and ``task``
    are ids into the owning log's registries. An empty target records no
    location, so it is stored as None, as both readers read it back.
    """

    __slots__ = ("activity_name", "action", "target", "input_value", "current_state",
                 "timestamp", "user", "task", "attributes")

    def __init__(self, activity_name: str, action: Optional[Action] = None,
                 target: Optional[Target] = None, input_value: Optional[AttributeValue] = None,
                 current_state: Optional[AttributeValue] = None,
                 timestamp: Optional[datetime] = None, user: Optional[str] = None,
                 task: Optional[str] = None, attributes: Optional[Mapping] = None):
        if not isinstance(activity_name, str):
            raise TypeError("activity_name must be text")
        timestamp = None if timestamp is None else normalize_timestamp(timestamp)
        _Record.__init__(
            self, activity_name, action, None if target is None or target.is_empty else target,
            None if input_value is None else normalize_value(input_value),
            None if current_state is None else normalize_value(current_state),
            timestamp, user, task, normalize_attributes(attributes),
        )


class Trace(_Record):
    """One case of a partitioned log: an ordered group of event indices."""

    __slots__ = ("id", "events", "attributes")

    def __init__(self, id: str, events: Iterable[int] = (),
                 attributes: Optional[Mapping] = None):
        _check_id(id)
        _Record.__init__(self, id, tuple(events), normalize_attributes(attributes))


class UILog(_Record):
    """An ordered event sequence plus its hierarchy and registries.

    The registries map ids that events reference to attribute sets:
    ``users`` the entities (human or bot) that initiated interactions,
    ``tasks`` the higher-level tasks or routines they belong to. The log
    itself has no case notion; ``traces``, when present, is a partition
    of event indices produced by segmentation (or read from an
    interchange document) and must cover every event exactly once.
    """

    __slots__ = ("events", "hierarchy", "users", "tasks", "attributes", "traces")

    def __init__(self, events: Iterable[InteractionEvent] = (),
                 hierarchy: Optional[UIHierarchy] = None, users: Optional[Mapping] = None,
                 tasks: Optional[Mapping] = None, attributes: Optional[Mapping] = None,
                 traces: Optional[Iterable[Trace]] = None):
        _Record.__init__(
            self, tuple(events), UIHierarchy() if hierarchy is None else hierarchy,
            _registry(users), _registry(tasks), normalize_attributes(attributes),
            None if traces is None else tuple(traces),
        )


def _registry(entries: Optional[Mapping]) -> dict:
    """id → normalized attribute set; ids must be non-empty text."""
    out = {}
    for entry_id, attributes in (entries or {}).items():
        _check_id(entry_id)
        out[entry_id] = normalize_attributes(attributes)
    return out


def _out_of_range(trace: Trace, index) -> str:
    return f"trace {trace.id!r} references event index {index}, which is out of range"


def _trace_events(log: UILog, trace: Trace) -> list:
    """The events of ``trace``, in its order. An index that names no
    event raises InvalidLogError, with the message validation gives."""
    events = log.events
    for index in trace.events:
        if not 0 <= index < len(events):
            raise InvalidLogError(_out_of_range(trace, index))
    return [events[index] for index in trace.events]


# ---------------------------------------------------------------------------
# Activity naming


def make_activity_name(action_type: Optional[str], target_id: str) -> str:
    """Join action type and target id into an activity name.

    An empty or None action type is treated as the literal "none".
    Deterministic: equal inputs always produce the same name.
    """
    _check_id(target_id)
    return f"{action_type or 'none'} {target_id}"
