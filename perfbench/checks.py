"""Output checks for the benchmark's CLI commands.

The checks read outputs with the standard library only, so they do not
depend on the code under test. A failed check makes the command count as
failed. Known defects of uilog that do not make a command wrong are
returned as named counts instead (``xes.state_mismatch_events``).
"""

from __future__ import annotations

import csv
import json
from xml.etree import ElementTree as ET

STATE_KEY = "uilog:ui-element-state"


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _value(element):
    tag = _local(element.tag)
    if tag == "list":
        values = next((c for c in element if _local(c.tag) == "values"), element)
        return [_value(c) for c in values if _local(c.tag) != "values"]
    if tag == "container":
        return {c.get("key"): _value(c) for c in element}
    return element.get("value")


def _scan_xes(path: str, want_states: bool):
    """(events, traces, names by count, per-event states or None)."""
    events = traces = 0
    names = {}
    states = [] if want_states else None
    depth = 0
    for kind, element in ET.iterparse(path, events=("start", "end")):
        tag = _local(element.tag)
        if kind == "start":
            depth += 1
            continue
        depth -= 1
        if tag == "event":
            events += 1
            state = None
            for child in element:
                key = child.get("key")
                if key == "concept:name":
                    name = child.get("value")
                    names[name] = names.get(name, 0) + 1
                elif key == STATE_KEY and states is not None:
                    state = _value(child)
            if states is not None:
                states.append(state)
            element.clear()
        elif tag == "trace" and depth == 1:
            traces += 1
            element.clear()
    return events, traces, names, states


def check(spec: dict, output: str | None, stdout: bytes) -> tuple:
    """Return (problem or None, named counts) for one command's outputs."""
    kind = spec.get("kind")
    counts = {}
    try:
        if kind == "xes":
            want = spec.get("states")
            events, traces, names, states = _scan_xes(output, want is not None)
            if events != spec["events"]:
                return f"{events} events in output, expected {spec['events']}", counts
            if "traces" in spec and traces != spec["traces"]:
                return f"{traces} traces in output, expected {spec['traces']}", counts
            for name, expected in spec.get("named", {}).items():
                if names.get(name, 0) != expected:
                    return f"{names.get(name, 0)} {name!r} events, expected {expected}", counts
            if want is not None:
                counts["xes.state_mismatch_events"] = sum(
                    1 for got, expected in zip(states, want) if got != expected
                )
        elif kind == "csv_rows":
            with open(output, encoding="utf-8", newline="") as handle:
                rows = sum(1 for _ in csv.reader(handle)) - 1
            if rows != spec["rows"]:
                return f"{rows} csv rows, expected {spec['rows']}", counts
        elif kind == "stats":
            with open(output, encoding="utf-8") as handle:
                profile = json.load(handle)["profile"]
            if profile != spec["profile"]:
                return f"stats profile {profile} differs from {spec['profile']}", counts
        elif kind == "validate":
            head = stdout.decode("utf-8").partition("\n")[0]
            if not head.startswith(f"0 violations ({spec['events']} events,"):
                return f"validate reported {head!r}", counts
        else:
            return f"unknown check {kind!r}", counts
    except (OSError, ET.ParseError, ValueError, KeyError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc}", counts
    return None, counts
