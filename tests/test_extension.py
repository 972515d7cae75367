"""The uilog extension declares every key and type that uilog writes.

Over ``genlogs.random_log`` seeds 0-299, and over ``abstract`` of the
bundled ``raw_login`` fixture with ``login.rules``, every element that
``write_xes`` writes under a ``uilog:`` key is declared by
``emit_extension_definition`` at its level (that of the log, trace or
event it is in) with its XES type; ``genlogs`` puts no ``uilog:`` key in
attributes, so each such element is the writer's own. Together these
documents write every declared key in every declared type, so the
declaration states no more than uilog writes either. The module needs
only the standard library; without pytest, run it as a script::

    PYTHONPATH=src:tests python3.10 tests/test_extension.py
"""

import random
from xml.etree import ElementTree as ET

from uilog.extension import emit_extension_definition
from uilog.fixtures import login_rule, raw_login_log
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


if __name__ == "__main__":
    problems, seen = undeclared()
    for problem in problems:
        print(problem)
    unwritten = sorted(declared() - seen)
    print(f"{len(SEEDS) + 1} documents: {len(problems)} undeclared elements; "
          f"{len(unwritten)} declarations never written {unwritten}")
    assert not problems and not unwritten
