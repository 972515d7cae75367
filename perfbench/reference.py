"""A fixed task that samples how fast the machine runs Python right now.

The timed run starts this file as a child between CLI commands and
scales each command's time by the reference children that ran close to
it (see README.md, "Machine speed"). It does work of the kind the uilog
commands do, with the standard library alone: writing and reading CSV,
parsing timestamps, building, serialising and parsing an XML tree. It
never imports uilog, so a change to uilog cannot change its time, and it
reads and writes no file.
"""

import csv
import io
from datetime import datetime, timedelta
from xml.etree import ElementTree as ET

ROWS = 1500


def main() -> None:
    moment = datetime(2023, 5, 4, 8)
    rows = []
    for i in range(ROWS):
        moment += timedelta(milliseconds=1337 * (i % 7 + 1))
        rows.append([f"act {i % 13}", "left click", f"el{i % 40}", f"group {i % 5}",
                     f"{{'k': {i}}}", "enabled", moment.isoformat(), f"u{i % 3}"])
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    events = [
        (row[0], datetime.fromisoformat(row[6]), (row[3], row[2]))
        for row in csv.reader(io.StringIO(buffer.getvalue()))
    ]
    log = ET.Element("log")
    for name, stamp, _ in events:
        event = ET.SubElement(log, "event")
        ET.SubElement(event, "string", key="concept:name", value=name)
        ET.SubElement(event, "date", key="time:timestamp", value=stamp.isoformat())
    if len(ET.fromstring(ET.tostring(log))) != len(events):
        raise SystemExit("reference task: XML round trip lost events")


if __name__ == "__main__":
    main()
