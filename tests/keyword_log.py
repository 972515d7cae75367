"""Hand transcription of the keyword-creation example log.

Everything here is built with the core model only, so tests can
cross-check the CSV ingestion path against an independently constructed
log and against hand-counted expectations.
"""

from uilog import Action, HierarchyBuilder, InteractionEvent, UILog

# (activity, action type, ui element, ui group, input value, current state)
ROWS = [
    ("A_Login", "none", None, "login mask",
     {"username": "pren", "password": "dts123"}, None),
    ("A_Profile Selection", "none", None, "user select client",
     {"client": "base", "profile": "author"}, None),
    ("click content", "left click", "content", "dashboard ov", None, None),
    ("click masterdata", "left click", "masterdata", "explorer tree", None, None),
    ("click masterdata node expand", "left click", "masterdata node expand",
     "explorer tree", None, None),
    ("click keywords node expand", "left click", "keywords node expand",
     "explorer tree", None, None),
    ("rclick keywords", "right click", "keywords", "explorer tree", None, None),
    ("click ppanel new", "left click", "ppanel new", "explorer tree", None, None),
    ("click new information object", "left click", "new information object",
     "explorer tree", None, None),
    ("click name", "left click", "name", "fpanel keyword", None, None),
    ("input name", "input", "name", "fpanel keyword", "MyKeyword", None),
    ("click dd type", "left click", "dd type", "fpanel keyword", None,
     ["keyword", "keywords folder"]),
    ("click dd type", "left click", "dd type", "fpanel keyword", "keyword",
     ["keyword", "keywords folder"]),
    ("click dd linksto", "left click", "dd linksto", "fpanel keyword", None,
     ["linksto"]),
    ("click dd linksto", "left click", "dd linksto", "fpanel keyword", "linksto",
     ["linksto"]),
    ("click confirm", "left click", "confirm", "fpanel keyword", None, None),
    ("click keywords node expand", "left click", "keywords node expand",
     "explorer tree", None, None),
    ("KEY_F5 explorer tree", "KEY_F5", None, "explorer tree", None, None),
    ("click logout", "left click", "logout", "explorer tree", None, None),
    ("click confirm", "left click", "confirm", "dialog logout", None, None),
]

GROUPS = [
    "login mask",
    "user select client",
    "dashboard ov",
    "explorer tree",
    "fpanel keyword",
    "dialog logout",
]

# Hand counts over ROWS, frozen as oracle values.
EVENTS = 20
DISTINCT_ACTIVITIES = 16          # four names repeat once each
DISTINCT_ACTION_TYPES = 5
ELEMENT_NODES = 13
WITH_INPUT_VALUE = 5
WITH_ELEMENT = 17                 # absent for the two A_ rows and the KEY_F5 row
WITH_CURRENT_STATE = 4            # the dd type / dd linksto rows
NONE_ACTIONS = 2


def build_by_hand() -> UILog:
    builder = HierarchyBuilder()
    events = []
    for activity, action, element, group, value, state in ROWS:
        target = builder.chain(groups=(group,), element=element)
        events.append(
            InteractionEvent(
                activity_name=activity,
                action=Action(action),
                target=target,
                input_value=value,
                current_state=state,
            )
        )
    return UILog(events=tuple(events), hierarchy=builder.build())
