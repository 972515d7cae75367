import contextlib
import copy
import pickle
import random
import re
import signal
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import assume, given, strategies as st

from uilog import (
    AbstractionRule,
    Action,
    CycleError,
    DanglingReferenceError,
    HierarchyBuilder,
    InteractionEvent,
    Level,
    NoTargetError,
    Target,
    UIGroupNode,
    UIHierarchy,
    UILog,
    UILogError,
    UnserializableValueError,
    abstract,
    join_group_path,
    level_of,
    make_activity_name,
    normalize_timestamp,
    normalize_value,
    split_group_path,
    validate,
)
from uilog.model import format_timestamp, parse_timestamp


def event_at(target):
    return InteractionEvent("x", target=target)


@pytest.fixture
def erp_hierarchy():
    b = HierarchyBuilder()
    b.chain(groups=("fpanel keyword",), element="name")
    b.chain(groups=("explorer tree",))
    b.chain(application="ERP client")
    return b.build()


class TestResolveTarget:
    def test_element_wins_over_group(self, erp_hierarchy):
        node = erp_hierarchy.resolve(
            event_at(Target(element="name", groups=("fpanel keyword",))).target
        )
        assert node.id == "name"
        assert node.parent.id == "fpanel keyword"

    def test_group_when_no_element(self, erp_hierarchy):
        node = erp_hierarchy.resolve(event_at(Target(groups=("explorer tree",))).target)
        assert node.id == "explorer tree"

    def test_application_only(self, erp_hierarchy):
        node = erp_hierarchy.resolve(event_at(Target(application="ERP client")).target)
        assert node.id == "ERP client"

    def test_no_association_raises(self, erp_hierarchy):
        with pytest.raises(NoTargetError):
            erp_hierarchy.resolve(event_at(None).target)
        with pytest.raises(NoTargetError):
            erp_hierarchy.resolve(event_at(Target()).target)

    def test_unknown_chain_raises(self, erp_hierarchy):
        with pytest.raises(DanglingReferenceError):
            erp_hierarchy.resolve(event_at(Target(element="nope")).target)

    @pytest.mark.parametrize("target,message", [
        (Target(application="zz"), "application 'zz' not found"),
        (Target(system="qq"), "system 'qq' not found"),
    ], ids=["application", "system"])
    def test_check_target_names_a_missing_application_or_system(self, erp_hierarchy, target,
                                                                 message):
        with pytest.raises(DanglingReferenceError, match=f"^{message}$") as error:
            erp_hierarchy.check_target(target)
        assert error.value.node_id == target.most_specific_id

    def test_removing_levels_raises_resolution(self):
        b = HierarchyBuilder()
        full = b.chain(
            system="win-host", application="Excel", groups=("wb1", "sheet1"), element="A1"
        )
        h = b.build()
        seen = []
        for target in (
            full,
            Target(groups=("wb1", "sheet1"), application="Excel", system="win-host"),
            Target(application="Excel", system="win-host"),
            Target(system="win-host"),
        ):
            node = h.resolve(target)
            seen.append(level_of(node))
            assert node.id == target.most_specific_id
        assert seen == [Level.ELEMENT, Level.GROUP, Level.APPLICATION, Level.SYSTEM]
        assert seen == sorted(seen, reverse=True)


class TestAncestry:
    def test_element_in_parentless_group(self, erp_hierarchy):
        node = erp_hierarchy.resolve(Target(element="name", groups=("fpanel keyword",)))
        assert [node.id] + [n.id for n in erp_hierarchy.ancestors(node)] == [
            "name",
            "fpanel keyword",
        ]

    def test_root_is_its_own_path(self):
        b = HierarchyBuilder()
        b.chain(system="win-host")
        h = b.build()
        node = h.resolve(Target(system="win-host"))
        assert [node.id] + [n.id for n in h.ancestors(node)] == ["win-host"]

    def test_spreadsheet_chain(self):
        b = HierarchyBuilder()
        b.chain(application="Excel", groups=("workbook1", "sheet1"), element="A1")
        h = b.build()
        node = h.resolve(
            Target(element="A1", groups=("workbook1", "sheet1"), application="Excel")
        )
        assert [node.id] + [n.id for n in h.ancestors(node)] == [
            "A1",
            "sheet1",
            "workbook1",
            "Excel",
        ]

    def test_foreign_node_raises(self, erp_hierarchy):
        b = HierarchyBuilder()
        b.chain(groups=("other",))
        foreign = b.build().resolve(Target(groups=("other",)))
        with pytest.raises(DanglingReferenceError):
            erp_hierarchy.ancestors(foreign)


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test instead of hanging when the body runs too long."""

    def expire(signum, frame):
        raise AssertionError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
class TestGroupCycle:
    @pytest.fixture
    def cycle(self):
        g1 = UIGroupNode("g1")
        g2 = UIGroupNode("g2", parent=g1)
        object.__setattr__(g1, "parent", g2)
        return g1, UIHierarchy(ui_groups=(g1, g2))

    def test_location_of_raises(self, cycle):
        g1, h = cycle
        with deadline(5), pytest.raises(UILogError):
            h.location_of(g1)

    def test_abstraction_rule_on_cycle_raises(self, cycle):
        _, h = cycle
        with deadline(5), pytest.raises(UILogError):
            abstract(UILog(hierarchy=h), AbstractionRule("g1", "t", "A"))

    def test_cycle_members_do_not_resolve(self, cycle):
        _, h = cycle
        with deadline(5), pytest.raises(DanglingReferenceError):
            h.resolve(Target(groups=("g2", "g1")))


class TestActivityNaming:
    @pytest.mark.parametrize(
        "action,target,expected",
        [
            ("input", "name", "input name"),
            ("KEY_F5", "explorer tree", "KEY_F5 explorer tree"),
            ("", "logout", "none logout"),
            (None, "logout", "none logout"),
        ],
    )
    def test_examples(self, action, target, expected):
        assert make_activity_name(action, target) == expected

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            make_activity_name("input", "")

    @given(st.text(min_size=1), st.text(min_size=1))
    def test_deterministic(self, action, target):
        assert make_activity_name(action, target) == make_activity_name(action, target)

    @given(
        st.text(alphabet="abcdef_", min_size=1),
        st.text(alphabet="abcdef xyz", min_size=1),
        st.text(alphabet="abcdef xyz", min_size=1),
    )
    def test_injective_in_target_when_separator_free(self, action, t1, t2):
        # action tokens without the separator cannot collide across targets
        if t1 != t2:
            assert make_activity_name(action, t1) != make_activity_name(action, t2)


class TestBuilder:
    def test_sibling_uniqueness_is_scoped(self):
        b = HierarchyBuilder()
        b.chain(groups=("sheet1",), element="A1")
        b.chain(groups=("sheet2",), element="A1")
        h = b.build()
        first = h.resolve(Target(element="A1", groups=("sheet1",)))
        second = h.resolve(Target(element="A1", groups=("sheet2",)))
        assert first is not None and second is not None and first is not second

    def test_floating_system_stays_out_of_the_chain(self):
        b = HierarchyBuilder()
        target = b.chain(system="host", groups=("g",), element="e")
        h = b.build()
        node = h.resolve(target)
        assert [node.id] + [n.id for n in h.ancestors(node)] == ["e", "g"]
        assert h.resolve(Target(system="host")) is not None


    @pytest.mark.parametrize(
        "where",
        ["system_attributes", "application_attributes", "element_attributes", "group_attributes"],
    )
    @pytest.mark.parametrize("bad,error", [({1, 2}, TypeError), ("deep", ValueError)],
                             ids=["set", "too-deep"])
    def test_bad_attribute_value_raises_from_build(self, where, bad, error):
        if bad == "deep":
            bad = "leaf"
            for _ in range(33):
                bad = [bad]
        attributes = {"k": bad}
        b = HierarchyBuilder()
        b.chain(
            system="s", application="a", groups=("g",), element="e",
            **{where: {("g",): attributes} if where == "group_attributes" else attributes},
        )
        with pytest.raises(error):
            b.build()

    @pytest.mark.parametrize("location", [{"element": ""}, {"element": ["e"]}, {"groups": [["g"]]},
                                          {"application": ["a"], "element": "e"},
                                          {"system": "s", "groups": ("g", ""), "element": "e"}])
    def test_bad_id_raises_from_chain(self, location):
        with pytest.raises(ValueError, match="id must be non-empty text"):
            HierarchyBuilder().chain(**location)

    def test_elements_under_one_prefix_share_its_nodes(self):
        b = HierarchyBuilder()
        scope = {"system": "s", "application": "a"}
        targets = [b.chain(**scope, groups=("g", "h"), element=f"e{i}") for i in range(3)]
        with pytest.raises(ValueError, match="id must be non-empty text"):
            b.chain(**scope, groups=("g", "h"), element="")
        targets.append(b.chain(**scope, groups=("g",), element="e0"))
        h = b.build()
        assert [len(h.systems), len(h.applications), len(h.ui_groups), len(h.ui_elements)] == [
            1, 1, 2, 4]
        inner = h.resolve(Target(groups=("g", "h"), **scope))
        assert all(h.resolve(target).parent is inner for target in targets[:3])
        assert h.resolve(targets[3]).parent is inner.parent
        assert [h.location_of(h.resolve(target)) for target in targets] == targets

    def test_repeated_chain_merges_into_the_same_nodes(self):
        b = HierarchyBuilder()
        first = b.chain(application="a", groups=("g",), element="e",
                        group_attributes={("g",): {"x": 1}})
        second = b.chain(application="a", groups=("g",), element="e",
                         group_attributes={("g",): {"x": 2, "y": 3}}, element_attributes={"z": 4})
        h = b.build()
        assert first == second
        assert h.node_count == 3
        assert h.resolve(Target(groups=("g",), application="a")).attributes == {"x": 2, "y": 3}
        assert h.resolve(first).attributes == {"z": 4}


def _maps(depth: int):
    """"leaf" inside ``depth`` maps, each keyed "k"."""
    value = "leaf"
    for _ in range(depth):
        value = {"k": value}
    return value


class TestValues:
    def test_timestamps_truncate_to_milliseconds(self):
        ts = datetime(2024, 1, 1, 10, 0, 0, 123456, tzinfo=timezone.utc)
        assert normalize_timestamp(ts).microsecond == 123000

    def test_naive_means_utc(self):
        ts = normalize_timestamp(datetime(2024, 1, 1, 10, 0, 0))
        assert ts.tzinfo == timezone.utc

    @given(st.datetimes(timezones=st.integers(-1439, 1439).map(
        lambda minutes: timezone(timedelta(minutes=minutes)))))
    def test_written_timestamps_parse_as_the_general_path_parses_them(self, moment):
        try:
            text = format_timestamp(moment, "t")
        except UnserializableValueError:  # outside the datetime range in UTC
            assume(False)
        # Surrounding space is not the written form, so it takes the general path.
        general = parse_timestamp(f" {text} ")
        assert parse_timestamp(text) == general == (normalize_timestamp(moment), False)
        assert parse_timestamp(text)[0].tzinfo is general[0].tzinfo is timezone.utc

    def test_nesting_cap(self):
        value = "leaf"
        for _ in range(32):
            value = [value]
        normalize_value(value)  # exactly at the cap
        with pytest.raises(ValueError):
            normalize_value([value])

    def test_map_keys_must_be_text(self):
        with pytest.raises(ValueError):
            normalize_value({"": 1})
        with pytest.raises(ValueError):
            normalize_value({3: 1})

    def test_int_range(self):
        with pytest.raises(ValueError):
            normalize_value(2**63)

    def test_bool_is_not_int(self):
        assert normalize_value(True) is True
        assert normalize_value(1) == 1

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            normalize_value(object())

    def test_event_state_is_normalized(self):
        event = InteractionEvent("x", current_state=("a", ("b", "c")))
        assert event.current_state == ["a", ["b", "c"]]

    def test_bad_event_state_raises(self):
        with pytest.raises(TypeError):
            InteractionEvent("x", current_state={1, 2})

    @pytest.mark.parametrize("call, error, message", [
        (lambda: normalize_timestamp("x"), TypeError, "expected datetime, got str"),
        (lambda: InteractionEvent("a", attributes={"m": _maps(32)}), None, None),
        (lambda: InteractionEvent("a", attributes={"m": _maps(33)}), ValueError,
         "attribute nesting deeper than 32"),
        (lambda: InteractionEvent("a", attributes={"": 1}), ValueError,
         "attribute keys must be non-empty text, got ''"),
        (lambda: InteractionEvent("a", attributes={"m": {5: 1}}), ValueError,
         "attribute keys must be non-empty text, got 5"),
        (lambda: level_of(object()), TypeError, "not a hierarchy node: object"),
        (lambda: Action(""), ValueError, "action_type must be non-empty text"),
        (lambda: InteractionEvent(5), TypeError, "activity_name must be text"),
    ], ids=["timestamp-not-datetime", "map-32-deep", "map-33-deep", "empty-key", "int-map-key",
            "level-of-non-node", "empty-action-type", "int-activity-name"])
    def test_each_guard_refuses_what_the_model_cannot_hold(self, call, error, message):
        if error is None:
            call()
            return
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            call()

    def test_registry_ids_and_attributes_are_checked(self):
        with pytest.raises(ValueError):
            UILog(users={"": {}})
        with pytest.raises(TypeError):
            UILog(tasks={"t": {"k": object()}})
        assert UILog(users={"u": {"seen": (1, 2)}}).users == {"u": {"seen": [1, 2]}}


class TestGroupPathCodec:
    @pytest.mark.parametrize(
        "ids,encoded",
        [
            (("workbook1", "sheet1"), "workbook1/sheet1"),
            (("a/b", "c"), "a\\/b/c"),
            (("back\\slash",), "back\\\\slash"),
            ((), ""),
        ],
    )
    def test_examples(self, ids, encoded):
        assert join_group_path(ids) == encoded
        assert split_group_path(encoded) == ids

    @given(st.lists(st.text(min_size=1), max_size=5))
    def test_round_trip(self, ids):
        assert split_group_path(join_group_path(ids)) == tuple(ids)


@given(st.integers(0, 2**31))
def test_dropping_the_element_strictly_raises_the_resolved_level(seed):
    rng = random.Random(seed)
    b = HierarchyBuilder()
    system = f"s{rng.randrange(2)}" if rng.random() < 0.5 else None
    application = f"a{rng.randrange(2)}" if rng.random() < 0.5 else None
    groups = tuple(f"g{d}" for d in range(rng.randrange(3)))
    with_element = b.chain(
        system=system, application=application, groups=groups, element="el"
    )
    h = b.build()
    without_element = Target(
        groups=with_element.groups,
        application=with_element.application,
        system=with_element.system,
    )
    if without_element.is_empty:
        with pytest.raises(NoTargetError):
            h.resolve(without_element)
    else:
        assert level_of(h.resolve(without_element)) < Level.ELEMENT
    assert level_of(h.resolve(with_element)) == Level.ELEMENT


@given(st.integers(0, 2**31))
def test_parent_walks_terminate_within_node_count(seed):
    import genlogs

    rng = random.Random(seed)
    builder = HierarchyBuilder()
    genlogs._chains(rng, builder)
    h = builder.build()
    from uilog import parent_of

    for node in h.all_nodes():
        steps = 0
        current = parent_of(node)
        while current is not None:
            steps += 1
            assert steps <= h.node_count
            current = parent_of(current)


@given(st.integers(0, 2**31))
def test_locations_resolve_and_levels_keep_first_mention_order(seed):
    import genlogs

    # random_log draws its chains first, so the same seed replays them.
    targets = [t for t, _ in genlogs._chains(random.Random(seed), HierarchyBuilder())]
    h = genlogs.random_log(random.Random(seed), max_events=5).hierarchy
    mentioned = {level: [] for level in Level}
    for t in targets:
        scope = t.system if t.application is not None else None
        chain = [(Level.SYSTEM, Target(system=t.system)) if t.system else None,
                 (Level.APPLICATION, Target(application=t.application, system=t.system))
                 if t.application else None]
        chain += [(Level.GROUP, Target(groups=t.groups[:depth], application=t.application,
                                       system=scope)) for depth in range(1, len(t.groups) + 1)]
        chain.append((Level.ELEMENT, Target(element=t.element, groups=t.groups,
                                            application=t.application, system=scope))
                      if t.element else None)
        for level, location in filter(None, chain):
            if location not in mentioned[level]:
                mentioned[level].append(location)
    levels = (h.systems, h.applications, h.ui_groups, h.ui_elements)
    for level, nodes in zip(Level, levels):
        assert [h.location_of(n) for n in nodes] == mentioned[level]
        for node in nodes:
            assert h.resolve(h.location_of(node)) is node


def test_sorting_by_timestamp_is_noop_on_strict_logs():
    rng = random.Random(7)
    clock = datetime(2024, 3, 1, tzinfo=timezone.utc)
    events = []
    for i in range(120):
        ts = None
        if rng.random() < 0.7:
            clock += timedelta(seconds=rng.randrange(0, 30))
            ts = clock
        events.append(InteractionEvent(f"e{i}", timestamp=ts))
    log = UILog(events=events)
    assert validate(log).ok

    # stable sort in which events without timestamps keep their position
    timestamped = [e for e in log.events if e.timestamp is not None]
    timestamped.sort(key=lambda e: e.timestamp.isoformat())
    merged = []
    pull = iter(timestamped)
    for event in log.events:
        merged.append(next(pull) if event.timestamp is not None else event)
    assert tuple(merged) == log.events


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda log: pickle.loads(pickle.dumps(log)),
], ids=["copy", "deepcopy", "pickle"])
def test_a_copied_log_indexes_its_own_nodes(duplicate):
    builder = HierarchyBuilder()
    target = builder.chain(application="app", groups=["g"], element="e")
    log = UILog(events=[InteractionEvent("a", target=target)], hierarchy=builder.build())
    assert validate(log).ok  # builds the location index of the original
    again = duplicate(log)
    assert again == log and validate(again).ok
    element = again.hierarchy.ui_elements[0]
    assert again.hierarchy.location_of(element) == target
    assert again.hierarchy.resolve(target) is element
