"""The XES vocabulary of UI logs: extension URIs, attribute keys and the
declaration of the "uilog" extension, read off one table of every key
uilog writes under its prefix with the XES types it is declared in.

Reading and writing XES (:mod:`uilog.xes`) and :func:`uilog.transform.abstract`
take their keys from here. This module imports nothing, so a command that
only needs the vocabulary loads neither the model nor an XML parser.
"""

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
KEY_ABSTRACTED = "uilog:abstracted"
KEY_UNTRACED = "uilog:untraced"

_TEXT = ("string",)
_ANY = ("string", "int", "float", "boolean", "date", "list", "container")

#: Every key uilog writes under its prefix, by level and in canonical order,
#: with the XES types it is declared in: the event fields, the marker of an
#: event that :func:`uilog.transform.abstract` made and that of an untraced log.
_VOCABULARY = {
    "log": {KEY_UNTRACED: ("boolean",)},
    "trace": {},
    "event": {
        KEY_ACTION_TYPE: _TEXT,
        KEY_INPUT_VALUE: _ANY,
        KEY_UI_ELEMENT: _TEXT,
        KEY_UI_ELEMENT_STATE: _ANY,
        KEY_UI_GROUP_PATH: _TEXT,
        KEY_APPLICATION: _TEXT,
        KEY_SYSTEM: _TEXT,
        KEY_USER: _TEXT,
        KEY_TASK: _TEXT,
        KEY_ABSTRACTED: ("boolean",),
    },
}

#: The event fields of the uilog extension, in canonical order.
EXTENSION_KEYS = tuple(key for key in _VOCABULARY["event"] if key != KEY_ABSTRACTED)


def emit_extension_definition() -> str:
    """The uilog XES extension declaration; byte-stable across runs."""
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<xesextension name="UILog" prefix="uilog" uri="{UILOG_URI}">']
    for level, keys in _VOCABULARY.items():
        declared = [f'    <{kind} key="{key.partition(":")[2]}"/>'
                    for key, kinds in keys.items() for kind in kinds]
        lines += [f"  <{level}>", *declared, f"  </{level}>"] if declared else [f"  <{level}/>"]
    return "\n".join(lines + ["</xesextension>", ""])
