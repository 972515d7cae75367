"""How ``HierarchyBuilder`` makes nodes: once per location, shared by the
Targets of every call or row that records it, and handed over by
``build``. The module needs only the standard library; without pytest,
run it as a script::

    PYTHONPATH=src python3.10 tests/test_builder.py
"""

from uilog.model import HierarchyBuilder, Target
from uilog.tabular import ingest

SCOPE = {"system": "s", "application": "a"}


def test_repeated_chains_give_one_target_and_one_node_per_location():
    b = HierarchyBuilder()
    firsts = [b.chain(**SCOPE, groups=("g", "h"), element=f"e{i}") for i in range(3)]
    again = [b.chain(**SCOPE, groups=("g", "h"), element=f"e{i}",
                     element_attributes={"row": i}) for i in range(3)]
    assert all(first is second for first, second in zip(firsts, again))
    assert b.chain(**SCOPE, groups=["g"]) is b.chain(**SCOPE, groups=("g",))
    h = b.build()
    assert [len(h.systems), len(h.applications), len(h.ui_groups), len(h.ui_elements)] == [
        1, 1, 2, 3]
    assert [h.resolve(target).attributes for target in firsts] == [{"row": i} for i in range(3)]
    inner = h.resolve(Target(groups=("g", "h"), **SCOPE))
    assert all(h.resolve(target).parent is inner for target in firsts)


def test_ingest_rows_that_repeat_a_location_share_one_target():
    text = "\n".join([
        "Activity,UI element,UI group path,Application",
        r"open,e,g/h\/i,a",
        r"type,e,g/h\/i,a",
        "save,e,g,a",
        r"close,e,g/h\/i,a",
        "save again,e,g,a",
    ])
    log, _ = ingest(text)
    targets = [event.target for event in log.events]
    assert targets[0] == Target("e", ("g", "h/i"), "a")
    assert targets[0] is targets[1] is targets[3]
    assert targets[2] == Target("e", ("g",), "a") and targets[2] is targets[4]
    h = log.hierarchy
    assert [len(h.applications), len(h.ui_groups), len(h.ui_elements)] == [1, 2, 2]
    assert h.resolve(targets[0]).parent is h.resolve(Target(groups=("g", "h/i"), application="a"))


def test_build_hands_the_nodes_over_and_empties_the_builder():
    b = HierarchyBuilder()
    location = {**SCOPE, "groups": ("g",), "element": "e"}
    target = b.chain(**location, group_attributes={("g",): {"tab": (1, 2)}},
                     element_attributes={"row": 1})
    first = b.build()
    old = first.resolve(target)
    assert old.attributes == {"row": 1} and old.parent.attributes == {"tab": [1, 2]}

    again = b.chain(**location, group_attributes={("g",): {"tab": 3}},
                    element_attributes={"row": 2})
    assert again == target and again is not target
    second = b.build()
    new = second.resolve(again)
    assert new is not old and new.parent is not old.parent
    assert new.attributes == {"row": 2} and new.parent.attributes == {"tab": 3}
    assert first.resolve(target) is old and old.attributes == {"row": 1}
    assert old.parent.attributes == {"tab": [1, 2]}
    assert first.node_count == second.node_count == 4
    assert b.build().node_count == 0


if __name__ == "__main__":
    tests = [test for name, test in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} hierarchy builder tests passed")
