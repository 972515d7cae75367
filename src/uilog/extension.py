"""The XES vocabulary of UI logs: extension URIs, attribute keys and the
declaration of the "uilog" extension.

Reading and writing XES (:mod:`uilog.xes`) take their keys from here,
and ``uilog extension`` prints the declaration. This module imports
nothing, so a command that only needs the vocabulary loads neither the
model nor an XML parser.
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
