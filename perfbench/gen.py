"""Seeded input generators and command sequences for the three workloads.

Every generator draws from one ``random.Random`` seeded with the workload
name and the seed, so one seed always yields byte-identical files. Besides the files, each generator
returns the CLI command groups that run over them and the outcome every
command must have; the expectations are derived from what the generator
wrote, never from running uilog.

- ``erp_csv``: medium CSV recordings of an ERP keyword-creation workflow.
- ``sheet_xes``: large traced XES documents from a spreadsheet-like UI.
- ``session_burst``: tiny CSV recordings from the ``erp_csv`` generator.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from xml.sax.saxutils import quoteattr

WORKLOADS = ("erp_csv", "sheet_xes", "session_burst")

# Sizes are fixed so that different seeds give inputs of the same shape;
# only the content varies with the seed.
ERP_RECORDINGS = 10
ERP_ROWS = 3000
SHEET_DOCUMENTS = 3
SHEET_EVENTS = 3000
BURST_RECORDINGS = 40
BURST_ROWS = 45

LOGIN_GROUP = "login mask"
LOGIN_TRIGGER = "click login"
LOGIN_NAME = "A_Login"
GAP_SECONDS = 300
RULES_FILE = "login.rules"
NOTION_FILE = "case.notion"

RULES_TEXT = f"""[rule:login]
group = {LOGIN_GROUP}
trigger = {LOGIN_TRIGGER}
name = {LOGIN_NAME}
collect = username, password
drop_noise = true
"""

NOTION_TEXT = f"""[notion:user]
kind = attribute
key = user

[notion:gap]
kind = gap
threshold = {GAP_SECONDS // 60}m
"""

_EPOCH = datetime(2023, 5, 4, 8, 0, 0, tzinfo=timezone.utc)
_CSV_HEADER = (
    "Activity", "Action type", "UI element", "UI group",
    "Input value", "Current state", "Timestamp", "User",
)


@dataclass
class Command:
    """One CLI invocation and the outcome it must have.

    ``argv`` follows ``python -m uilog``; ``{out}`` in an argument is the
    directory that receives outputs. Every command must exit with 0, and
    ``check`` names what its output must contain (see ``checks.py``).
    """

    name: str
    argv: list
    events_in: int
    output: str | None = None
    check: dict = field(default_factory=dict)

    def args(self, out: str) -> list:
        return [a.replace("{out}", out) for a in self.argv]

    def output_in(self, out: str) -> str | None:
        return self.output.replace("{out}", out) if self.output else None


@dataclass
class Group:
    """The commands that run over one generated input, in order."""

    label: str
    commands: list


@dataclass
class Workload:
    name: str
    groups: list
    properties: dict


# ---------------------------------------------------------------------------
# ERP-like CSV recordings


def _bundled_templates(src: Path):
    """Session rows of keyword_creation.csv, with raw_login.csv in place
    of its pre-abstracted A_Login row."""
    data = src / "uilog" / "data"
    with open(data / "keyword_creation.csv", encoding="utf-8", newline="") as handle:
        keyword = list(csv.DictReader(handle))
    with open(data / "raw_login.csv", encoding="utf-8", newline="") as handle:
        login = list(csv.DictReader(handle))
    if not keyword or keyword[0]["Activity"] != LOGIN_NAME or len(login) != 4:
        raise ValueError("bundled session templates have an unexpected shape")
    return login, keyword[1:]


@dataclass
class _Row:
    activity: str
    action: str
    element: str
    group: str
    value: str = ""
    state: str = ""
    timestamp: str = ""
    user: str = ""
    accepted: bool = True
    kept_as_text: bool = False


_DD_TYPE_STATES = (
    "[keyword, keywords folder]",
    "[keyword, keywords folder, tag]",
    "[keyword, tag]",
)
_DD_LINKSTO_STATES = ("[linksto]", "[linksto, relatedto]", "[relatedto]")
_CLIENTS = ("base", "north", "south", "retail")
_PROFILES = ("author", "approver", "admin")
_WORDS = ("invoice", "order", "supplier", "asset", "ledger", "contract", "memo", "batch")


def _template(row: dict, **overrides) -> _Row:
    out = _Row(
        activity=row["Activity"],
        action=row["Action type"],
        element=row["UI element"],
        group=row["UI group"],
        value=row["Input value"],
        state=row["Current state"],
    )
    for key, value in overrides.items():
        setattr(out, key, value)
    return out


def _session(rng: random.Random, user: str, login: list, body: list) -> list:
    rows = []
    username, wrong_password, password, click_login = login
    if rng.random() < 0.1:
        # An abandoned attempt: the login run never reaches its trigger.
        rows.append(_template(username, value=user))
        rows.append(_template(wrong_password, value=f"pw{rng.randrange(1000)}"))
        rows.append(_Row("click close", "left click", "close", "window frame"))
    rows.append(_template(username, value=user))
    for _ in range(rng.choice((0, 0, 1, 2))):
        rows.append(_template(wrong_password, value=f"pw{rng.randrange(1000)}"))
    rows.append(_template(password, value=f"{user}-{rng.randrange(100)}"))
    rows.append(_template(click_login))

    profile, *navigation = body[:5]
    rows.append(
        _template(
            profile,
            value=f"{{client: {rng.choice(_CLIENTS)}, profile: {rng.choice(_PROFILES)}}}",
        )
    )
    rows.extend(_template(row) for row in navigation)
    creation = body[5:16]
    for _ in range(rng.randrange(1, 5)):
        for row in creation:
            activity = row["Activity"]
            out = _template(row)
            if activity == "input name":
                out.value = f"{rng.choice(_WORDS)}{rng.randrange(10000)}"
                if rng.random() < 0.05:
                    out.value = "{tbd}"  # a map literal without keys: kept as text
                    out.kept_as_text = True
            elif activity == "click dd type":
                out.state = rng.choice(_DD_TYPE_STATES)
                if out.value:
                    out.value = rng.choice(("keyword", "keywords folder"))
            elif activity == "click dd linksto":
                out.state = rng.choice(_DD_LINKSTO_STATES)
            rows.append(out)
    rows.extend(_template(row) for row in body[16:])
    return rows


def _format_erp_timestamp(rng: random.Random, moment: datetime, row: _Row) -> str:
    draw = rng.random()
    if draw < 0.012:
        row.accepted = False
        return rng.choice(("n/a", "04/05/2023 12:00:01", "--:--", "2023-13-45T25:61:00"))
    millis = f"{moment:%Y-%m-%dT%H:%M:%S}.{moment.microsecond // 1000:03d}"
    if draw < 0.03:
        # Sub-millisecond digits, which ingest truncates with a warning.
        return f"{millis}{rng.randrange(1, 1000):03d}+00:00"
    if draw < 0.08:
        return millis + "Z"
    if draw < 0.11:
        return millis.replace("T", " ")
    return millis + "+00:00"


def _erp_recording(rng: random.Random, templates, size: int) -> list:
    """Sessions of several users, one after another, cut to ``size`` rows.

    The cut keeps every recording of a workload the same size, so that
    events per second does not vary with the seed; a session it cuts
    short may end in a login run that never reaches its trigger.
    """
    login, body = templates
    users = [f"user{n:02d}" for n in rng.sample(range(1, 40), rng.randrange(3, 6))]
    rows = []
    moment = _EPOCH + timedelta(days=rng.randrange(300), seconds=rng.randrange(3600))
    while len(rows) < size:
        user = rng.choice(users)
        for row in _session(rng, user, login, body):
            moment += timedelta(milliseconds=rng.randrange(150, 9000))
            row.timestamp = _format_erp_timestamp(rng, moment, row)
            row.user = user
            rows.append(row)
        moment += timedelta(minutes=rng.randrange(1, 30))
    return rows[:size]


def _csv_text(rows: list) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for row in rows:
        writer.writerow(
            (row.activity, row.action, row.element, row.group,
             row.value, row.state, row.timestamp, row.user)
        )
    return buffer.getvalue()


def _parse_list(text: str):
    if not text:
        return None
    return [item.strip() for item in text.strip()[1:-1].split(",")]


def _abstracted_count(accepted: list) -> tuple:
    """(events out, fired runs) of the login rule.

    Mirrors the rule's contract: a run is a maximal stretch of
    consecutive login-mask events; it collapses into one event when it
    reaches the trigger and passes through otherwise.
    """
    out = fired = run = 0
    for row in accepted:
        if row.group == LOGIN_GROUP:
            run += 1
            if row.activity == LOGIN_TRIGGER:
                out += 1
                fired += 1
                run = 0
            continue
        out += run + 1
        run = 0
    return out + run, fired


def _recording_expectations(rows: list) -> dict:
    accepted = [r for r in rows if r.accepted]
    events_out, fired = _abstracted_count(accepted)
    return {
        "rows": len(rows),
        "accepted": len(accepted),
        "abstracted": events_out,
        "fired": fired,
        "states": [_parse_list(r.state) for r in accepted],
        "profile": {
            "events": len(accepted),
            "distinct_activities": len({r.activity for r in accepted}),
            "distinct_action_types": len({r.action for r in accepted if r.action}),
            "systems": 0,
            "applications": 0,
            "ui_groups": len({r.group for r in accepted if r.group}),
            "ui_elements": len({(r.group, r.element) for r in accepted if r.element}),
            "traces": None,
        },
        "targets": len({(r.group, r.element) for r in accepted}),
        "nested": sum(
            1 for r in accepted
            if r.state or (r.value.startswith("{") and not r.kept_as_text)
        ),
    }


def _xes_check(events: int, **extra) -> dict:
    return {"kind": "xes", "events": events, **extra}


def _erp_like(name, rng, templates, directory, count, size, commands_for) -> Workload:
    groups = []
    totals = {"events": 0, "targets": 0, "nested": 0, "rows": 0, "skipped": 0}
    for index in range(count):
        rows = _erp_recording(rng, templates, size)
        path = directory / f"{name}-{index:03d}.csv"
        path.write_text(_csv_text(rows), encoding="utf-8")
        expect = _recording_expectations(rows)
        groups.append(Group(path.stem, commands_for(path, expect)))
        totals["events"] += expect["accepted"]
        totals["targets"] += expect["targets"]
        totals["nested"] += expect["nested"]
        totals["rows"] += expect["rows"]
        totals["skipped"] += expect["rows"] - expect["accepted"]
    return Workload(
        name,
        groups,
        {
            "input_events": totals["events"],
            "target_reuse": totals["events"] / totals["targets"],
            "typed_or_nested_share": totals["nested"] / totals["events"],
            "traced_share": 0.0,
            "bad_timestamp_share": totals["skipped"] / totals["rows"],
        },
    )


def _erp_commands(path: Path, expect: dict) -> list:
    n = expect["accepted"]
    stem = path.stem
    rules = str(path.parent / RULES_FILE)
    path = str(path)
    return [
        Command(
            "convert",
            ["convert", "--strict", "-i", path, "-o", f"{{out}}/{stem}.conv.xes"],
            n,
            output=f"{{out}}/{stem}.conv.xes",
            check=_xes_check(n, states=expect["states"]),
        ),
        Command(
            "abstract",
            ["abstract", "--rules", rules, "-i", path, "-o", f"{{out}}/{stem}.abs.xes"],
            n,
            output=f"{{out}}/{stem}.abs.xes",
            check=_xes_check(expect["abstracted"], named={LOGIN_NAME: expect["fired"]}),
        ),
        Command(
            "stats",
            ["stats", "-i", path, "--report", f"{{out}}/{stem}.stats.json"],
            n,
            output=f"{{out}}/{stem}.stats.json",
            check={"kind": "stats", "profile": expect["profile"]},
        ),
    ]


def _burst_commands(path: Path, expect: dict) -> list:
    n = expect["accepted"]
    converted = f"{{out}}/{path.stem}.xes"
    return [
        Command(
            "convert",
            ["convert", "-i", str(path), "-o", converted],
            n,
            output=converted,
            check=_xes_check(n, states=expect["states"]),
        ),
        Command(
            "validate",
            ["validate", "-i", converted],
            n,
            check={"kind": "validate", "events": n},
        ),
    ]


# ---------------------------------------------------------------------------
# Spreadsheet-like traced XES documents


_COLUMNS = "ABCDEFGH"
_ACTIONS = ("input", "left click", "KEY_ENTER", "double click")
_DEPTS = ("finance", "sales", "ops", "audit")


def _ts(moment: datetime) -> str:
    return f"{moment:%Y-%m-%dT%H:%M:%S}.{moment.microsecond // 1000:03d}+00:00"


def _attr(kind: str, key: str, value) -> str:
    return f"<{kind} key={quoteattr(key)} value={quoteattr(str(value))}/>"


def _sheet_document(rng: random.Random, events_wanted: int):
    """(xes text, per-event (user, time, state), distinct targets, nested events)."""
    users = [f"analyst{n:02d}" for n in rng.sample(range(1, 60), 6)]
    books = [f"book-{n}" for n in rng.sample(range(1, 90), 2)]
    user_info = {
        u: (rng.choice(_DEPTS), rng.randrange(1, 5), rng.random() < 0.3, f"ws-{rng.randrange(100):02d}")
        for u in users
    }
    # Sessions: per user, back to back, then ordered by start time.
    sessions = []
    remaining = events_wanted
    starts = {u: _EPOCH + timedelta(minutes=rng.randrange(600)) for u in users}
    while remaining > 0:
        user = rng.choice(users)
        length = min(remaining, rng.randrange(150, 500))
        remaining -= length
        moments = []
        moment = starts[user]
        for _ in range(length):
            if rng.random() < 0.02:
                moment += timedelta(seconds=rng.randrange(GAP_SECONDS + 60, 1500))
            else:
                moment += timedelta(milliseconds=rng.randrange(300, 40000))
            moments.append(moment)
        starts[user] = moment + timedelta(minutes=rng.randrange(30, 120))
        sessions.append((moments[0], user, moments))
    sessions.sort(key=lambda s: (s[0], s[1]))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<log xes.version="1849-2016" xes.features="nested-attributes">',
        '  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>',
        '  <extension name="Time" prefix="time" uri="http://www.xes-standard.org/time.xesext"/>',
        '  <extension name="UILog" prefix="uilog" uri="http://www.xes-standard.org/uilog.xesext"/>',
        "  " + _attr("string", "source", "sheet-recorder"),
        "  " + _attr("int", "schema", rng.randrange(3, 9)),
        '  <container key="recorder">' + _attr("string", "version", f"2.{rng.randrange(20)}")
        + _attr("float", "sample-rate", repr(round(rng.uniform(0.5, 2.0), 3))) + "</container>",
    ]
    per_event = []
    targets = set()
    nested_events = 0
    for number, (start, user, moments) in enumerate(sessions):
        dept, level, admin, station = user_info[user]
        lines.append("  <trace>")
        lines.append("    " + _attr("string", "concept:name", f"session-{number:04d}"))
        lines.append("    " + _attr("date", "session-start", _ts(start)))
        lines.append("    " + _attr("boolean", "complete", "true" if rng.random() < 0.9 else "false"))
        lines.append("    " + _attr("int", "window-count", rng.randrange(1, 4)))
        lines.append(
            '    <list key="tags"><values>'
            + "".join(_attr("string", str(i), t) for i, t in enumerate(rng.sample(_WORDS, 2)))
            + "</values></list>"
        )
        for moment in moments:
            book = rng.choice(books)
            tab = rng.randrange(1, 7)
            column = rng.choice(_COLUMNS)
            row = rng.randrange(1, 61)
            cell = f"{column}{row}"
            action = rng.choice(_ACTIONS)
            parts = [
                "    <event>",
                _attr("string", "concept:name", f"{action} {cell}"),
                _attr("date", "time:timestamp", _ts(moment)),
                _attr("string", "uilog:action-type", action),
            ]
            nested = False
            if action == "input":
                if rng.random() < 0.4:
                    nested = True
                    parts.append(
                        '<container key="uilog:input-value">'
                        + _attr("string", "formula", f"=SUM({column}1:{cell})")
                        + _attr("float", "result", repr(round(rng.uniform(-1e4, 1e4), 2)))
                        + "</container>"
                    )
                else:
                    parts.append(_attr("string", "uilog:input-value", str(rng.randrange(10**6))))
            parts.append(
                f'<string key="uilog:ui-element" value="{cell}">'
                + _attr("int", "row", row) + _attr("string", "column", column) + "</string>"
            )
            state = None
            if column == "H" and rng.random() < 0.5:
                # Dropdown cells: the offered options change between events.
                nested = True
                state = sorted(rng.sample(("open", "closed", "pending", "void"), rng.randrange(1, 4)))
                parts.append(
                    '<list key="uilog:ui-element-state"><values>'
                    + "".join(_attr("string", str(i), s) for i, s in enumerate(state))
                    + "</values></list>"
                )
            path = f"{book}/Sheet{tab}"
            targets.add((path, cell))
            parts.append(
                f'<string key="uilog:ui-group-path" value="{path}">'
                f'<container key="{book}">' + _attr("string", "file", f"{book}.xlsx") + "</container>"
                f'<container key="{path}">' + _attr("int", "index", tab)
                + _attr("boolean", "hidden", "false") + "</container></string>"
            )
            parts.append(
                '<string key="uilog:application" value="Calc">'
                + _attr("string", "version", "7.5") + "</string>"
            )
            parts.append(
                f'<string key="uilog:system" value="{station}">'
                + _attr("string", "os", "linux") + "</string>"
            )
            parts.append(
                f'<string key="uilog:user" value="{user}">'
                + _attr("string", "dept", dept) + _attr("int", "level", level)
                + _attr("boolean", "admin", "true" if admin else "false") + "</string>"
            )
            if rng.random() < 0.6:
                nested = True
                parts.append(_attr("int", "sequence", rng.randrange(10**9)))
                parts.append(_attr("float", "zoom", repr(rng.choice((0.75, 1.0, 1.25, 1.5)))))
                parts.append(_attr("boolean", "autosave", "true" if rng.random() < 0.5 else "false"))
                parts.append(_attr("date", "recorded-at", _ts(moment + timedelta(milliseconds=rng.randrange(5, 900)))))
                parts.append(
                    '<list key="selection"><values>'
                    + _attr("string", "0", cell) + _attr("string", "1", f"{column}{row + 1}")
                    + "</values></list>"
                )
                parts.append(
                    '<container key="viewport">' + _attr("int", "top", max(1, row - 10))
                    + '<container key="scroll">' + _attr("float", "x", repr(round(rng.random(), 3)))
                    + _attr("float", "y", repr(round(rng.random(), 3))) + "</container></container>"
                )
            if nested:
                nested_events += 1
            parts.append("</event>")
            lines.append("".join(parts))
            per_event.append((user, moment, state))
        lines.append("  </trace>")
    lines.append("</log>")
    return "\n".join(lines) + "\n", per_event, len(targets), nested_events


def _segment_order(per_event: list) -> list:
    """Event indices of segment's output traces: by user, then gaps."""
    by_user = {}
    for index, (user, _, _) in enumerate(per_event):
        by_user.setdefault(user, []).append(index)
    threshold = timedelta(seconds=GAP_SECONDS)
    traces = []
    for indices in by_user.values():
        current = [indices[0]]
        for previous, index in zip(indices, indices[1:]):
            if per_event[index][1] - per_event[previous][1] > threshold:
                traces.append(current)
                current = []
            current.append(index)
        traces.append(current)
    return traces


def _sheet(rng: random.Random, directory: Path) -> Workload:
    groups = []
    events = targets = nested = 0
    notion = str(directory / NOTION_FILE)
    for index in range(SHEET_DOCUMENTS):
        text, per_event, distinct_targets, nested_events = _sheet_document(rng, SHEET_EVENTS)
        path = directory / f"sheet-{index:02d}.xes"
        path.write_text(text, encoding="utf-8")
        n = len(per_event)
        order = _segment_order(per_event)
        flat = [i for trace in order for i in trace]
        stem = path.stem
        groups.append(
            Group(
                stem,
                [
                    Command("validate", ["validate", "-i", str(path)], n,
                            check={"kind": "validate", "events": n}),
                    Command(
                        "segment",
                        ["segment", "--notion", notion, "-i", str(path),
                         "-o", f"{{out}}/{stem}.seg.xes"],
                        n,
                        output=f"{{out}}/{stem}.seg.xes",
                        check=_xes_check(n, traces=len(order),
                                         states=[per_event[i][2] for i in flat]),
                    ),
                    Command(
                        "convert",
                        ["convert", "-i", str(path), "-o", f"{{out}}/{stem}.csv"],
                        n,
                        output=f"{{out}}/{stem}.csv",
                        check={"kind": "csv_rows", "rows": n},
                    ),
                ],
            )
        )
        events += n
        targets += distinct_targets
        nested += nested_events
    return Workload(
        "sheet_xes",
        groups,
        {
            "input_events": events,
            "target_reuse": events / targets,
            "typed_or_nested_share": nested / events,
            "traced_share": 1.0,
        },
    )


# ---------------------------------------------------------------------------


def generate(name: str, seed: int, directory: Path, src: Path) -> Workload:
    """Write one workload's inputs for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / RULES_FILE).write_text(RULES_TEXT, encoding="utf-8")
    (directory / NOTION_FILE).write_text(NOTION_TEXT, encoding="utf-8")
    # Each workload draws from its own stream, so workloads do not shift
    # one another's inputs.
    rng = random.Random(f"{name}:{seed}")
    if name == "erp_csv":
        workload = _erp_like(name, rng, _bundled_templates(src), directory,
                             ERP_RECORDINGS, ERP_ROWS, _erp_commands)
    elif name == "sheet_xes":
        workload = _sheet(rng, directory)
    elif name == "session_burst":
        workload = _erp_like(name, rng, _bundled_templates(src), directory,
                             BURST_RECORDINGS, BURST_ROWS, _burst_commands)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return workload
