import json
import random
from types import SimpleNamespace
from datetime import datetime, timedelta, timezone

import pytest

from uilog import (
    ApplicationNode,
    InteractionEvent,
    SystemNode,
    Target,
    Trace,
    UIElementNode,
    UIGroupNode,
    UIHierarchy,
    UILog,
    ViolationCode,
    coverage,
    profile,
    render_coverage,
    render_profile,
    render_report,
    report_records,
    validate,
)

import keyword_log


def codes(report):
    return [v.code for v in report.violations]


def faulty_log():
    """A hand-built hierarchy with every kind of composition fault at
    every level that can have it, and events that address it."""
    s1, s2 = SystemNode("s"), SystemNode("s")
    a1 = ApplicationNode("a", system=s1)
    a2 = ApplicationNode("a", system=s1)
    g1 = UIGroupNode("g", parent=a1)
    g2 = UIGroupNode("g", parent=a1)
    e1 = UIElementNode("e", parent=g1)
    e2 = UIElementNode("e", parent=g1)
    a_cycle = ApplicationNode("a-cycle")
    g_cycle = UIGroupNode("g-cycle", parent=a_cycle)
    object.__setattr__(a_cycle, "system", g_cycle)
    g_loop1 = UIGroupNode("g-loop1")
    g_loop2 = UIGroupNode("g-loop2", parent=g_loop1)
    object.__setattr__(g_loop1, "parent", g_loop2)
    f1 = UIGroupNode("f1")  # a cycle outside the hierarchy
    f2 = UIGroupNode("f2", parent=f1)
    object.__setattr__(f1, "parent", f2)
    e_loop = UIElementNode("e-loop")
    object.__setattr__(e_loop, "parent", e_loop)
    hierarchy = UIHierarchy(
        systems=(s1, s2),
        applications=(
            a1, a2,
            ApplicationNode("a-dangling", system=SystemNode("foreign")),
            ApplicationNode("a-level", system=g1),
            a_cycle,
        ),
        ui_groups=(
            g1, g2, g_cycle, g_loop1, g_loop2,
            UIGroupNode("g-dangling", parent=UIGroupNode("foreign")),
            UIGroupNode("g-level", parent=s1),
        ),
        ui_elements=(
            e1, e2, e_loop,
            UIElementNode("e-dangling", parent=ApplicationNode("foreign")),
            UIElementNode("e-level", parent=s1),
            UIElementNode("e-under-element", parent=e1),
            UIElementNode("e-far", parent=f1),
        ),
    )
    events = (
        InteractionEvent("found", target=Target(element="e", groups=("g",), application="a", system="s")),
        InteractionEvent("lost", target=Target(element="nope", groups=("g",), application="a", system="s")),
        InteractionEvent("cyclic", target=Target(groups=("g-loop2", "g-loop1"))),
        InteractionEvent("free system", target=Target(element="e-level", system="s")),
    )
    return UILog(events=events, hierarchy=hierarchy)


FAULTY_REPORT = """\
23 violations (4 events, 21 nodes checked)
  [DanglingReference] node 'a-dangling': parent of 'a-dangling' is not registered in the hierarchy
  [LevelViolation] node 'a-level': 'a-level' (application) cannot be parented to UIGroupNode
  [LevelViolation] node 'a-cycle': 'a-cycle' (application) cannot be parented to UIGroupNode
  [DanglingReference] node 'g-dangling': parent of 'g-dangling' is not registered in the hierarchy
  [LevelViolation] node 'g-level': 'g-level' (group) cannot be parented to SystemNode
  [LevelViolation] node 'e-loop': 'e-loop' (element) cannot be parented to UIElementNode
  [DanglingReference] node 'e-dangling': parent of 'e-dangling' is not registered in the hierarchy
  [LevelViolation] node 'e-level': 'e-level' (element) cannot be parented to SystemNode
  [LevelViolation] node 'e-under-element': 'e-under-element' (element) cannot be parented to UIElementNode
  [DanglingReference] node 'e-far': parent of 'e-far' is not registered in the hierarchy
  [CycleDetected] node 'a-cycle': parent chain from 'a-cycle' does not terminate
  [CycleDetected] node 'g-cycle': parent chain from 'g-cycle' does not terminate
  [CycleDetected] node 'g-loop1': parent chain from 'g-loop1' does not terminate
  [CycleDetected] node 'g-loop2': parent chain from 'g-loop2' does not terminate
  [CycleDetected] node 'e-loop': parent chain from 'e-loop' does not terminate
  [CycleDetected] node 'e-far': parent chain from 'e-far' does not terminate
  [DuplicateId] node 's': 2 sibling system nodes share the id 's'
  [DuplicateId] node 'a': 2 sibling application nodes share the id 'a'
  [DuplicateId] node 'g': 2 sibling group nodes share the id 'g'
  [DuplicateId] node 'e': 2 sibling element nodes share the id 'e'
  [DanglingReference] event 1, node 'nope': element 'nope' not found under group path 'g'
  [DanglingReference] event 2, node 'g-loop1': group path 'g-loop2/g-loop1' not found
  [DanglingReference] event 3, node 'e-level': element 'e-level' not found under group path ''"""


def test_composition_faults_report_exactly():
    assert render_report(validate(faulty_log())) == FAULTY_REPORT


def mixed_hierarchy():
    """Placed nodes beside unplaced ones: a group under a foreign parent
    with children and twin elements below it, a non-node object, a cycle
    with an element hanging on it, and twins on either side."""
    s = SystemNode("s")
    a = ApplicationNode("a", system=s)
    g = UIGroupNode("g", parent=a)
    lost = UIGroupNode("lost", parent=ApplicationNode("foreign"))
    loop1 = UIGroupNode("loop1")
    loop2 = UIGroupNode("loop2", parent=loop1)
    object.__setattr__(loop1, "parent", loop2)
    return UIHierarchy(
        systems=(s, SimpleNamespace(id="thing")),
        applications=(a,),
        ui_groups=(
            g, UIGroupNode("pair", parent=a), UIGroupNode("pair", parent=a),
            lost, UIGroupNode("inner", parent=lost), loop1, loop2,
        ),
        ui_elements=(
            UIElementNode("e", parent=g),
            UIElementNode("child", parent=lost),
            UIElementNode("twin", parent=lost),
            UIElementNode("twin", parent=lost),
            UIElementNode("tail", parent=loop1),
            UIElementNode("misplaced", parent=s),
            UIElementNode("twin", parent=g),
        ),
    )


MIXED_REPORT = """\
8 violations (0 events, 17 nodes checked)
  [LevelViolation] node 'thing': 'thing' is a SimpleNamespace, not a hierarchy node type
  [DanglingReference] node 'lost': parent of 'lost' is not registered in the hierarchy
  [LevelViolation] node 'misplaced': 'misplaced' (element) cannot be parented to SystemNode
  [CycleDetected] node 'loop1': parent chain from 'loop1' does not terminate
  [CycleDetected] node 'loop2': parent chain from 'loop2' does not terminate
  [CycleDetected] node 'tail': parent chain from 'tail' does not terminate
  [DuplicateId] node 'pair': 2 sibling group nodes share the id 'pair'
  [DuplicateId] node 'twin': 2 sibling element nodes share the id 'twin'"""


def test_placed_and_unplaced_nodes_report_exactly():
    # Nodes below an unplaced parent get no fault of their own, but their
    # twins are still counted; parent link faults come before cycles.
    assert render_report(validate(UILog(hierarchy=mixed_hierarchy()))) == MIXED_REPORT


class TestValidate:
    def test_keyword_creation_log_is_clean(self):
        report = validate(keyword_log.build_by_hand())
        assert report.ok
        assert report.violations == ()
        assert report.checked_events == 20
        assert report.checked_nodes == 19  # 6 groups + 13 elements

    def test_activity_name_is_the_only_required_field(self):
        assert validate(UILog(events=(InteractionEvent("just a name"),))).ok
        assert not validate(UILog(events=(InteractionEvent(""),))).ok

    def test_empty_activity_name_located(self):
        log = UILog(events=(InteractionEvent("a"), InteractionEvent("b"), InteractionEvent("")))
        report = validate(log)
        assert codes(report) == [ViolationCode.MISSING_ACTIVITY_NAME]
        assert report.violations[0].event_index == 2

    def test_group_parent_cycle_detected(self):
        g1 = UIGroupNode("g1")
        g2 = UIGroupNode("g2", parent=g1)
        object.__setattr__(g1, "parent", g2)
        log = UILog(hierarchy=UIHierarchy(ui_groups=(g1, g2)))
        report = validate(log)
        assert ViolationCode.CYCLE_DETECTED in codes(report)
        flagged = {v.node_id for v in report.violations
                   if v.code == ViolationCode.CYCLE_DETECTED}
        assert flagged == {"g1", "g2"}

    def test_level_violation_detected(self):
        system = SystemNode("s")
        group = UIGroupNode("g", parent=system)
        hierarchy = UIHierarchy(systems=(system,), ui_groups=(group,))
        report = validate(UILog(hierarchy=hierarchy))
        assert ViolationCode.LEVEL_VIOLATION in codes(report)

    @pytest.mark.parametrize("kind", ["ui_groups", "applications"])
    def test_node_subclass_is_a_level_violation(self, kind):
        class Sub(UIGroupNode if kind == "ui_groups" else ApplicationNode):
            pass

        if kind == "ui_groups":
            application = ApplicationNode("app")
            hierarchy = UIHierarchy(applications=(application,),
                                    ui_groups=(Sub("odd", parent=application),))
        else:
            odd = Sub("odd")
            hierarchy = UIHierarchy(applications=(odd,), ui_groups=(UIGroupNode("g", parent=odd),))
        report = validate(UILog(hierarchy=hierarchy))
        flagged = [v for v in report.violations if v.code == ViolationCode.LEVEL_VIOLATION]
        assert [(v.node_id, v.message) for v in flagged] == [
            ("odd", "'odd' is a Sub, not a hierarchy node type")
        ]

    def test_unregistered_parent_is_dangling(self):
        ghost = UIGroupNode("ghost")
        group = UIGroupNode("g", parent=ghost)
        hierarchy = UIHierarchy(ui_groups=(group,))
        report = validate(UILog(hierarchy=hierarchy))
        dangling = [v for v in report.violations if v.code == ViolationCode.DANGLING_REFERENCE]
        assert dangling and dangling[0].node_id == "g"

    def test_duplicate_sibling_ids(self):
        hierarchy = UIHierarchy(ui_groups=(UIGroupNode("g"), UIGroupNode("g")))
        report = validate(UILog(hierarchy=hierarchy))
        assert codes(report) == [ViolationCode.DUPLICATE_ID]
        assert report.violations[0].node_id == "g"

    def test_state_without_element_located(self):
        log = UILog(
            events=(
                InteractionEvent("a", current_state="open"),
                InteractionEvent("b", target=Target(groups=("g",)), current_state=["x"]),
            ),
            hierarchy=UIHierarchy(ui_groups=(UIGroupNode("g"),)),
        )
        report = validate(log)
        assert codes(report) == [ViolationCode.STATE_WITHOUT_ELEMENT] * 2
        assert [v.event_index for v in report.violations] == [0, 1]

    def test_dangling_event_references(self):
        log = UILog(
            events=(
                InteractionEvent("a", target=Target(element="nope")),
                InteractionEvent("b", user="ghost"),
                InteractionEvent("c", task="ghost"),
            )
        )
        report = validate(log)
        assert codes(report) == [ViolationCode.DANGLING_REFERENCE] * 3
        assert [v.event_index for v in report.violations] == [0, 1, 2]

    def test_events_sharing_a_dangling_target_are_each_reported(self):
        target = Target(groups=("g",), element="nope")
        log = UILog(
            events=(
                InteractionEvent("a", target=target),
                InteractionEvent("b"),
                InteractionEvent("c", target=target),
                InteractionEvent("d", target=target),
            ),
            hierarchy=UIHierarchy(ui_groups=(UIGroupNode("g"),)),
        )
        report = validate(log)
        assert codes(report) == [ViolationCode.DANGLING_REFERENCE] * 3
        assert [v.event_index for v in report.violations] == [0, 2, 3]
        assert {(v.node_id, v.message) for v in report.violations} == {
            ("nope", "element 'nope' not found under group path 'g'")
        }

    def test_out_of_order_timestamps(self):
        t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
        log = UILog(
            events=(
                InteractionEvent("a", timestamp=t0),
                InteractionEvent("b", timestamp=t0 - timedelta(seconds=5)),
            )
        )
        report = validate(log)
        assert codes(report) == [ViolationCode.OUT_OF_ORDER_TIMESTAMP]
        assert report.violations[0].event_index == 1

    def test_order_checked_per_trace(self):
        t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
        events = (
            InteractionEvent("a", timestamp=t0 + timedelta(seconds=10)),
            InteractionEvent("b", timestamp=t0),
        )
        traced = UILog(
            events=events,
            traces=(Trace("t1", (0,)), Trace("t2", (1,))),
        )
        assert validate(traced).ok  # decreasing across traces is fine

    def test_partition_gap_and_overlap(self):
        events = (InteractionEvent("a"), InteractionEvent("b"))
        gap = UILog(events=events, traces=(Trace("t1", (0,)),))
        report = validate(gap)
        assert codes(report) == [ViolationCode.PARTITION_GAP]
        assert report.violations[0].event_index == 1

        overlap = UILog(events=events, traces=(Trace("t1", (0, 1)), Trace("t2", (0,))))
        report = validate(overlap)
        assert codes(report) == [ViolationCode.PARTITION_OVERLAP]
        assert report.violations[0].event_index == 0

    def test_idempotent(self):
        log = UILog(events=(InteractionEvent(""),))
        assert validate(log) == validate(log)


class TestCoverage:
    def test_keyword_creation_counts(self):
        matrix = coverage(keyword_log.build_by_hand())
        assert list(matrix) == [
            "action_type", "target_element", "ui_hierarchy", "application",
            "input_value", "timestamp", "current_state",
        ]
        assert matrix["input_value"].fraction == "5/20"
        assert matrix["input_value"].ratio == pytest.approx(0.25)
        assert matrix["target_element"].fraction == "17/20"
        assert matrix["current_state"].fraction == "4/20"
        assert matrix["action_type"].fraction == "20/20"
        assert matrix["ui_hierarchy"].fraction == "17/20"
        assert matrix["application"].events_present == 0
        assert matrix["timestamp"].events_present == 0

    def test_application_and_timestamp_count_where_recorded(self):
        at = datetime(2024, 1, 1, tzinfo=timezone.utc)
        events = (
            InteractionEvent("a", target=Target(application="app"), timestamp=at),
            InteractionEvent("b", target=Target(element="e"), timestamp=at),
            InteractionEvent("c"),
        )
        matrix = coverage(UILog(events=events))
        assert matrix["application"].fraction == "1/3"
        assert matrix["timestamp"].fraction == "2/3"

    def test_none_action_counts_as_present(self):
        from uilog import Action

        log = UILog(events=(InteractionEvent("a", action=Action("none")),))
        assert coverage(log)["action_type"].fraction == "1/1"

    def test_empty_log_all_zero(self):
        matrix = coverage(UILog())
        for cell in matrix.values():
            assert cell.ratio == 0.0
            assert cell.events_total == 0

    def test_invariant_under_reordering(self):
        base = keyword_log.build_by_hand()
        rng = random.Random(11)
        order = list(range(len(base.events)))
        rng.shuffle(order)
        shuffled = UILog(
            events=tuple(base.events[i] for i in order), hierarchy=base.hierarchy
        )
        assert coverage(shuffled) == coverage(base)


class TestProfile:
    def test_keyword_creation_profile(self):
        summary = profile(keyword_log.build_by_hand())
        assert summary.events == keyword_log.EVENTS
        assert summary.distinct_activities == keyword_log.DISTINCT_ACTIVITIES
        assert summary.distinct_action_types == keyword_log.DISTINCT_ACTION_TYPES
        assert summary.ui_groups == 6
        assert summary.ui_elements == keyword_log.ELEMENT_NODES
        assert summary.systems == 0 and summary.applications == 0
        assert summary.traces is None

    def test_empty(self):
        summary = profile(UILog())
        assert summary.events == 0
        assert summary.distinct_activities == 0

    def test_single_event(self):
        summary = profile(UILog(events=(InteractionEvent("a"),)))
        assert summary.events == 1 and summary.distinct_activities == 1

    def test_trace_count(self):
        log = UILog(
            events=(InteractionEvent("a"),), traces=(Trace("t1", (0,)),)
        )
        assert profile(log).traces == 1


class TestRendering:
    def test_report_text_names_code_and_locator(self):
        log = UILog(events=(InteractionEvent("a"), InteractionEvent("")))
        text = render_report(validate(log))
        assert "1 violation" in text
        assert "[MissingActivityName]" in text
        assert "event 1" in text

    def test_records_are_json_ready(self):
        log = UILog(events=(InteractionEvent(""),))
        records = report_records(validate(log))
        assert len(records) == 1
        parsed = json.loads(json.dumps(records[0]))
        assert parsed["code"] == "MissingActivityName"
        assert parsed["event_index"] == 0
        assert parsed["node_id"] is None

    def test_coverage_render_states_hierarchy_rule(self):
        text = render_coverage(coverage(keyword_log.build_by_hand()))
        assert "at least one recorded ancestor" in text
        assert "5/20" in text

    def test_profile_render(self):
        text = render_profile(profile(keyword_log.build_by_hand()))
        assert "events" in text and "20" in text
