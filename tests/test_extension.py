"""The uilog extension declares every key and type that uilog writes.

Over ``genlogs.random_log`` seeds 0-299, and over ``abstract`` of the
bundled ``raw_login`` fixture with ``login.rules``, every element that
``write_xes`` writes under a ``uilog:`` key is declared by
``emit_extension_definition`` at its level (that of the log, trace or
event it is in) with its XES type; ``genlogs`` puts no ``uilog:`` key in
attributes, so each such element is the writer's own. Together these
documents write every declared key in every declared type, so the
declaration states no more than uilog writes either. Conversely,
``write_xes`` refuses a log, trace or event attribute under a ``uilog:``
key that is not declared at its level in its type, and ``convert`` to
XES exits 1 naming it, while a document holding one still reads and
converts to CSV. The module needs only the standard library; without
pytest, run it as a script::

    PYTHONPATH=src:tests python3.10 tests/test_extension.py
"""

import contextlib
import io
import random
import tempfile
from pathlib import Path
from xml.etree import ElementTree as ET

from uilog.cli import main
from uilog.errors import UnserializableValueError
from uilog.extension import emit_extension_definition
from uilog.fixtures import login_rule, raw_login_log
from uilog.model import InteractionEvent, Trace, UILog
from uilog.transform import abstract
from uilog.xes import write_xes

import genlogs

SEEDS = range(300)


def declared() -> set:
    """(level, key, XES type) of each declaration of the uilog extension."""
    root = ET.fromstring(emit_extension_definition())
    prefix = root.get("prefix")
    return {(level.tag, f"{prefix}:{child.get('key')}", child.tag)
            for level in root for child in level}


def written(document: str) -> set:
    """(level, key, XES type) of each element of ``document`` under a
    ``uilog:`` key, its level being that of the log, trace or event it is in."""
    found = set()

    def walk(element, level):
        for child in element:
            if child.tag in ("trace", "event"):
                walk(child, child.tag)
                continue
            if child.get("key", "").startswith("uilog:"):
                found.add((level, child.get("key"), child.tag))
            walk(child, level)

    walk(ET.fromstring(document), "log")
    return found


def documents():
    """(name, XES text) of each document the property is checked on."""
    for seed in SEEDS:
        yield f"seed {seed}", write_xes(genlogs.random_log(random.Random(seed)))
    yield "abstracted raw_login", write_xes(abstract(raw_login_log(), login_rule()))


def undeclared() -> tuple:
    """What each document writes that the declaration does not declare,
    and everything that the documents write."""
    vocabulary, problems, seen = declared(), [], set()
    for name, document in documents():
        found = written(document)
        seen |= found
        problems += [f"{name}: {element} is not declared" for element in sorted(found - vocabulary)]
    return problems, seen


def test_the_declaration_states_every_key_and_type_uilog_writes():
    problems, seen = undeclared()
    assert problems == []
    assert seen == declared()


def event_log(**attributes) -> UILog:
    return UILog(events=(InteractionEvent("a"), InteractionEvent("b", attributes=attributes)))


#: Logs with one attribute under a uilog: key that the extension does not
#: declare at its level in its type, and the refusal each one gets.
UNDECLARED = (
    (event_log(**{"uilog:abstracted": "yes"}),
     "event 1: attribute 'uilog:abstracted' of type string is not declared by the uilog "
     "extension at event level"),
    (event_log(**{"uilog:foo": 1}),
     "event 1: attribute 'uilog:foo' of type int is not declared by the uilog extension "
     "at event level"),
    (event_log(**{"uilog:untraced": True}),
     "event 1: attribute 'uilog:untraced' of type boolean is not declared by the uilog "
     "extension at event level"),
    (UILog(events=(InteractionEvent("a"),), traces=(Trace("t", (0,), {"uilog:user": "u"}),)),
     "trace 't': attribute 'uilog:user' of type string is not declared by the uilog "
     "extension at trace level"),
    (UILog(events=(InteractionEvent("a"),), attributes={"uilog:task": ["x"]}),
     "log: attribute 'uilog:task' of type list is not declared by the uilog extension "
     "at log level"),
)


def test_write_xes_refuses_a_uilog_key_the_extension_does_not_declare():
    for log, message in UNDECLARED:
        try:
            write_xes(log)
        except UnserializableValueError as exc:
            assert str(exc) == message, exc
        else:
            raise AssertionError(f"written: {message}")
    # Declared keys in their types are written, and nested values are free.
    write_xes(event_log(**{"uilog:abstracted": True, "k": {"uilog:foo": [1]}}))


def test_convert_to_xes_names_the_undeclared_key():
    document = ('<log><trace><event><string key="concept:name" value="a"/>'
                '<int key="uilog:foo" value="1"/></event></trace></log>')
    with tempfile.TemporaryDirectory() as directory:
        source = Path(directory, "in.xes")
        source.write_text(document, encoding="utf-8")
        codes, errors = [], io.StringIO()
        with contextlib.redirect_stderr(errors):
            for output in (Path(directory, "out.csv"), Path(directory, "out.xes")):
                codes.append(main(["convert", "-i", str(source), "-o", str(output)]))
        assert codes == [0, 1], codes
        assert "attribute 'uilog:foo' of type int is not declared" in errors.getvalue()
        assert Path(directory, "out.csv").read_text(encoding="utf-8").count("uilog:foo") == 1


if __name__ == "__main__":
    test_write_xes_refuses_a_uilog_key_the_extension_does_not_declare()
    test_convert_to_xes_names_the_undeclared_key()
    print(f"{len(UNDECLARED)} undeclared uilog: keys refused")
    problems, seen = undeclared()
    for problem in problems:
        print(problem)
    unwritten = sorted(declared() - seen)
    print(f"{len(SEEDS) + 1} documents: {len(problems)} undeclared elements; "
          f"{len(unwritten)} declarations never written {unwritten}")
    assert not problems and not unwritten
