"""Text-mutation oracle: malformed input gives a located UILogError.

Seeded ``genlogs.random_log`` logs are written as XES and as CSV, and
each document is given one to three random edits: a span deleted,
duplicated or copied elsewhere, one character replaced, or one whole
XES event or CSV row moved to another element or line boundary, such as
directly under ``<log>`` or after a ``</trace>``. For every mutated
document:

- reading it (``read_xes(..., lenient_names=True)`` or ``ingest``),
  ``validate``, ``coverage``, ``profile``, both writers, reading their
  output again, and ``segment`` by an attribute, a time gap and a marker
  raise nothing but UILogError;
- an error or a warning of the reader names its place: a line and
  column (or, for a lone surrogate, a character position), a trace, an
  event, a row, the header, or the log;
- a document that reads writes the same bytes when it is written, read
  and written again in its own format;
- ``cli.main`` on a sample of the documents returns 0, 1 or 2 and prints
  no traceback.

The module needs only the standard library; without pytest, run it as a
script, optionally with the number of seeds (default 120)::

    PYTHONPATH=src:tests python3 tests/test_mutations.py [SEEDS]
"""

import contextlib
import io
import random
import re
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

from uilog import (
    ByAttribute,
    ByMarker,
    ByTimeGap,
    UILogError,
    coverage,
    ingest,
    profile,
    read_xes,
    segment,
    validate,
    write_table,
    write_xes,
)
from uilog.cli import main

import genlogs

SEEDS = 120
MUTANTS = 6  # per seed and format
MAX_EVENTS = 12
CLI_EVERY = 8  # cli.main runs on every CLI_EVERY-th mutated document

#: Where a reader error or warning may say it is.
PLACE = re.compile(
    r"line \d+, column \d+|\bposition \d+|\btrace \d+|\bevent \d+|\brow \d+|\bheader\b|^log:"
)

#: Characters a replacement draws from besides the document's own.
ODD = '<>&"\'/=,;:{}[]\\\n\r\t \x00\xe9\ufeff\ud800#'

#: A whole XES event, its indent and line end included, and the element
#: boundaries a moved one may go to: before a trace, event or log tag.
EVENT = re.compile(r"^[ \t]*<event>.*?</event>\n", re.M | re.S)
BOUNDARY = re.compile(r"^(?=[ \t]*</?(?:trace|event|log)>)", re.M)


def _read_csv(text):
    return ingest(text)[0]


def _read_xes(text):
    return read_xes(text, lenient_names=True)


def _write_xes(log):
    return write_xes(log, check=False)


#: Per format: how to write a log and how to read a document back.
FORMATS = {"xes": (_write_xes, _read_xes), "csv": (write_table, _read_csv)}


def mutate(rng, text):
    """``text`` with one to three random edits, and the edits' names."""
    names = []
    for _ in range(rng.randint(1, 3)):
        if not text:
            text, names = rng.choice(ODD), names + ["insert"]
            continue
        start = rng.randrange(len(text))
        end = min(len(text), start + rng.choice((1, 2, 5, 20, 80)))
        edit = rng.choice(("delete", "duplicate", "copy", "replace", "move"))
        if edit == "move":
            text = _move(rng, text)
        elif edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "duplicate":
            text = text[:end] + text[start:end] + text[end:]
        elif edit == "copy":
            at = rng.randrange(len(text) + 1)
            text = text[:at] + text[start:end] + text[at:]
        else:
            char = rng.choice(ODD) if rng.random() < 0.5 else rng.choice(text)
            text = text[:start] + char + text[start + 1:]
        names.append(edit)
    return text, names


def _move(rng, text):
    """``text`` with one whole XES event moved to another element boundary,
    or, in a document without one, a line (a CSV row) moved to another line."""
    units = [m.span() for m in EVENT.finditer(text)]
    places = BOUNDARY if units else re.compile("^", re.M)
    units = units or [m.span() for m in re.finditer(r"^.*\n", text, re.M)]
    if not units:
        return text
    start, end = rng.choice(units)
    rest = text[:start] + text[end:]
    at = rng.choice([m.start() for m in places.finditer(rest)] or [0])
    return rest[:at] + text[start:end] + rest[at:]


def _located(exc) -> bool:
    return PLACE.search(str(exc)) is not None


def check_document(fmt, text, problems, where):
    """Append to ``problems`` what the oracle finds wrong with ``text``."""
    write, read = FORMATS[fmt]
    log = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            log = read(text)
        except UILogError as exc:
            if not _located(exc):
                problems.append(f"{where}: unlocated {type(exc).__name__}: {exc}")
        except Exception:
            problems.append(f"{where}: reading raised {traceback.format_exc(limit=-2)}")
    problems += [f"{where}: unlocated warning: {item.message}"
                 for item in caught if not _located(item.message)]
    if log is None:
        return
    steps = [
        ("validate", lambda: validate(log)),
        ("coverage", lambda: coverage(log)),
        ("profile", lambda: profile(log)),
        ("segment by user", lambda: segment(log, ByAttribute("user"))),
        ("segment by gap", lambda: segment(log, ByTimeGap(60))),
        ("segment by marker", lambda: segment(
            log, ByMarker({log.events[0].activity_name if log.events else "x"}))),
    ]
    for other, (write_other, read_other) in FORMATS.items():
        steps.append((f"write and read {other}", lambda w=write_other, r=read_other: r(w(log))))
    for name, step in steps:
        try:
            step()
        except UILogError:
            pass
        except Exception:
            problems.append(f"{where}: {name} raised {traceback.format_exc(limit=-2)}")
    try:
        first = write(log)
        second = write(read(first))
    except UILogError:
        return
    except Exception:
        problems.append(f"{where}: rewriting raised {traceback.format_exc(limit=-2)}")
        return
    if first != second:
        problems.append(f"{where}: written, read and written again gives other bytes")


#: CLI commands run on a sampled document; {src}, {out} and {notion} are paths.
COMMANDS = (
    ("validate", "-i", "{src}"),
    ("stats", "-i", "{src}"),
    ("convert", "-i", "{src}", "-o", "{out}"),
    ("segment", "--notion", "{notion}", "-i", "{src}", "-o", "{out}"),
)


def check_cli(fmt, text, directory, rng, problems, where):
    """Run one sampled CLI command on ``text``; append any problem."""
    source = directory / f"doc.{fmt}"
    source.write_text(text, encoding="utf-8", errors="surrogatepass", newline="")
    paths = {"src": source, "out": directory / ("out.csv" if fmt == "xes" else "out.xes"),
             "notion": directory / "user.notion"}
    argv = [part.format(**paths) for part in rng.choice(COMMANDS)]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except BaseException:
        problems.append(f"{where}: {argv[0]} raised {traceback.format_exc(limit=-2)}")
        return
    if code not in (0, 1, 2) or "Traceback" in err.getvalue():
        problems.append(f"{where}: {argv[0]} returned {code!r}: {err.getvalue()!r}")


def run(seeds) -> list:
    """The problems found over ``seeds``, each naming its seed, format
    and mutant."""
    problems = []
    count = 0
    with tempfile.TemporaryDirectory() as name, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # only the reader's warnings are checked
        directory = Path(name)
        (directory / "user.notion").write_text("[notion]\nkind = attribute\nkey = user\n")
        for seed in seeds:
            rng = random.Random(seed)
            log = genlogs.random_log(rng, MAX_EVENTS)
            for fmt, (write, _) in FORMATS.items():
                text = write(log)
                for mutant in range(MUTANTS):
                    mutated, edits = mutate(rng, text)
                    where = f"seed {seed}, {fmt}, mutant {mutant} ({', '.join(edits)})"
                    check_document(fmt, mutated, problems, where)
                    count += 1
                    if count % CLI_EVERY == 0:
                        check_cli(fmt, mutated, directory, rng, problems, where)
    return problems


def test_mutated_documents_fail_only_with_located_errors():
    problems = run(range(SEEDS))
    assert problems == [], "\n".join(problems[:10])


if __name__ == "__main__":
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else SEEDS
    found = run(range(seeds))
    print("\n".join(found))
    print(f"{seeds * len(FORMATS) * MUTANTS} mutated documents, {len(found)} problem(s)")
    sys.exit(1 if found else 0)
