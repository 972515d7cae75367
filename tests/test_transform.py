import random
import warnings
from datetime import datetime, timedelta, timezone

import pytest

from uilog import (
    AbstractionRule,
    Action,
    ByAttribute,
    ByMarker,
    ByTimeGap,
    Composite,
    HierarchyBuilder,
    InteractionEvent,
    MissingCaseAttributeError,
    MissingTimestampsError,
    Target,
    TriggerNeverFiresWarning,
    UILog,
    UnknownGroupError,
    abstract,
    load_case_notion,
    load_rules,
    segment,
    validate,
)
from uilog.fixtures import keyword_creation_log, login_rule, raw_login_log

import genlogs

T0 = datetime(2024, 1, 1, tzinfo=timezone.utc)


def timed_log(seconds, **event_kwargs):
    events = tuple(
        InteractionEvent(f"e{i}", timestamp=T0 + timedelta(seconds=s), **event_kwargs)
        for i, s in enumerate(seconds)
    )
    return UILog(events=events)


def partition_of(log):
    return [(t.id, list(t.events)) for t in log.traces]


def gap_oracle(timestamps, threshold):
    """Brute-force scan over consecutive gaps."""
    runs = []
    for i, ts in enumerate(timestamps):
        if i > 0 and (ts - timestamps[i - 1]) > threshold:
            runs.append([])
        if not runs:
            runs.append([])
        runs[-1].append(i)
    return runs


def grouping_oracle(values):
    groups = {}
    for i, value in enumerate(values):
        groups.setdefault(value, []).append(i)
    return list(groups.items())


class TestSegment:
    def test_marker_on_keyword_creation(self):
        log = segment(keyword_creation_log(), ByMarker(markers={"A_Login"}))
        assert partition_of(log) == [("case_1", list(range(20)))]
        assert validate(log).ok

    def test_time_gap_example(self):
        log = timed_log([0, 5, 10, 300, 305])
        segmented = segment(log, ByTimeGap(threshold=timedelta(seconds=60)))
        expected = gap_oracle([e.timestamp for e in log.events], timedelta(seconds=60))
        assert [run for _, run in partition_of(segmented)] == expected
        assert [len(t.events) for t in segmented.traces] == [3, 2]

    def test_gap_boundary_is_exclusive(self):
        log = timed_log([0, 60, 121])
        segmented = segment(log, ByTimeGap(threshold=60))
        assert [len(t.events) for t in segmented.traces] == [2, 1]

    def test_by_attribute_groups_alternating_users(self):
        events = tuple(
            InteractionEvent(f"e{i}", user="u1" if i % 2 == 0 else "u2")
            for i in range(6)
        )
        log = UILog(events=events, users={"u1": {}, "u2": {}})
        segmented = segment(log, ByAttribute(key="user"))
        assert partition_of(segmented) == [("u1", [0, 2, 4]), ("u2", [1, 3, 5])]

    def test_by_extension_attribute(self):
        events = tuple(
            InteractionEvent(f"e{i}", attributes={"session": f"s{i // 2}"})
            for i in range(4)
        )
        segmented = segment(UILog(events=events), ByAttribute(key="session"))
        assert partition_of(segmented) == [("s0", [0, 1]), ("s1", [2, 3])]

    def test_missing_case_attribute_lists_events(self):
        events = (InteractionEvent("a", user="u1"), InteractionEvent("b"))
        log = UILog(events=events, users={"u1": {}})
        with pytest.raises(MissingCaseAttributeError) as error:
            segment(log, ByAttribute(key="user"))
        assert error.value.event_indices == (1,)

    def test_missing_timestamps(self):
        log = UILog(events=(InteractionEvent("a"),))
        with pytest.raises(MissingTimestampsError):
            segment(log, ByTimeGap(threshold=60))

    def test_marker_with_leading_events(self):
        events = tuple(
            InteractionEvent(name) for name in ("setup", "A_Login", "x", "A_Login", "y")
        )
        segmented = segment(UILog(events=events), ByMarker(markers={"A_Login"}))
        assert partition_of(segmented) == [
            ("case_1", [0]),
            ("case_2", [1, 2]),
            ("case_3", [3, 4]),
        ]

    def test_composite_refines_left_to_right(self):
        events = (
            InteractionEvent("a", user="u1", timestamp=T0),
            InteractionEvent("b", user="u1", timestamp=T0 + timedelta(seconds=10)),
            InteractionEvent("c", user="u2", timestamp=T0 + timedelta(seconds=100)),
            InteractionEvent("d", user="u2", timestamp=T0 + timedelta(seconds=400)),
        )
        log = UILog(events=events, users={"u1": {}, "u2": {}})
        notion = Composite(parts=(ByAttribute(key="user"), ByTimeGap(threshold=60)))
        segmented = segment(log, notion)
        assert partition_of(segmented) == [
            ("u1/case_1", [0, 1]),
            ("u2/case_1", [2]),
            ("u2/case_2", [3]),
        ]

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            ByTimeGap(threshold=0)

    @pytest.mark.parametrize("seed", range(20))
    def test_preserves_multiset_and_order(self, seed):
        rng = random.Random(4000 + seed)
        log = genlogs.timestamped_log(rng)
        notion = rng.choice(
            [ByAttribute(key="user"), ByTimeGap(threshold=60), ByMarker(markers={"act-tree0"})]
        )
        segmented = segment(log, notion)
        assert segmented.events == log.events  # storage untouched
        indices = sorted(i for t in segmented.traces for i in t.events)
        assert indices == list(range(len(log.events)))
        for trace in segmented.traces:
            assert list(trace.events) == sorted(trace.events)
        assert validate(segmented).ok


class TestAbstract:
    def test_login_fixture(self):
        raw = raw_login_log()
        out = abstract(raw, login_rule())
        assert len(out.events) == 1
        event = out.events[0]
        assert event.activity_name == "A_Login"
        assert event.action.action_type == "none"
        assert event.input_value == {"username": "pren", "password": "dts123"}
        assert event.target.groups == ("login mask",)
        assert validate(out).ok

    def test_superseded_values_do_not_surface(self):
        raw = raw_login_log()
        passwords = [
            e.input_value for e in raw.events if e.target.element == "password"
        ]
        assert passwords == ["wrongpw", "dts123"]  # the fixture really has noise
        out = abstract(raw, login_rule())
        assert out.events[0].input_value["password"] == "dts123"

    def test_no_in_group_events_means_no_change(self):
        b = HierarchyBuilder()
        target = b.chain(groups=("other",))
        b.chain(groups=("login mask",))
        log = UILog(events=(InteractionEvent("x", target=target),), hierarchy=b.build())
        assert abstract(log, login_rule()).events == log.events

    def test_two_disjoint_runs(self):
        b = HierarchyBuilder()
        login = lambda el, value: InteractionEvent(
            f"input {el}",
            action=Action("input"),
            target=b.chain(groups=("login mask",), element=el),
            input_value=value,
        )
        confirm = InteractionEvent(
            "click login",
            action=Action("left click"),
            target=b.chain(groups=("login mask",), element="login"),
        )
        outside = InteractionEvent("elsewhere", target=b.chain(groups=("other",)))
        events = (login("username", "a"), confirm, outside, login("username", "b"), confirm)
        log = UILog(events=events, hierarchy=b.build())
        out = abstract(log, login_rule())
        names = [e.activity_name for e in out.events]
        assert names == ["A_Login", "elsewhere", "A_Login"]
        assert out.events[0].input_value == {"username": "a"}
        assert out.events[2].input_value == {"username": "b"}

    def test_trigger_never_fires_passes_through(self):
        b = HierarchyBuilder()
        target = b.chain(groups=("login mask",), element="username")
        log = UILog(
            events=(InteractionEvent("input username", target=target, input_value="x"),),
            hierarchy=b.build(),
        )
        with pytest.warns(TriggerNeverFiresWarning):
            out = abstract(log, login_rule())
        assert out.events == log.events

    def test_unknown_group(self):
        with pytest.raises(UnknownGroupError):
            abstract(UILog(), login_rule())

    def test_idempotent(self):
        out = abstract(raw_login_log(), login_rule())
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second pass must not warn either
            again = abstract(out, login_rule())
        assert again.events == out.events

    def test_nested_subgroup_is_in_subtree(self):
        b = HierarchyBuilder()
        inner = b.chain(groups=("login mask", "credentials"), element="username")
        trigger_target = b.chain(groups=("login mask",), element="login")
        events = (
            InteractionEvent("input username", target=inner, input_value="u"),
            InteractionEvent("click login", target=trigger_target),
        )
        log = UILog(events=events, hierarchy=b.build())
        out = abstract(log, AbstractionRule("login mask", "click login", "A_Login"))
        assert [e.activity_name for e in out.events] == ["A_Login"]
        assert out.events[0].input_value == {"username": "u"}

    def test_group_without_application_takes_events_recording_only_a_system(self):
        # A system recorded without an application does not scope the
        # chain, so this event resolves to the element under the group.
        b = HierarchyBuilder()
        b.chain(system="s", application="a")
        field = b.chain(groups=("form",), element="field")
        button = b.chain(groups=("form",), element="ok")
        log = UILog(
            events=(
                InteractionEvent("type", target=field, input_value="v"),
                InteractionEvent(
                    "type", target=Target(system="s", groups=("form",), element="field"),
                    input_value="w",
                ),
                InteractionEvent("elsewhere", target=Target(
                    system="s", application="a", groups=("form",), element="field"
                )),
                InteractionEvent("ok", target=button),
            ),
            hierarchy=b.build(),
        )
        assert validate(log).violations[0].event_index == 2  # dangling, not in the group
        with pytest.warns(TriggerNeverFiresWarning, match="run of 2 event"):
            out = abstract(log, AbstractionRule("form", "ok", "A_Form"))
        assert [e.activity_name for e in out.events] == ["type", "type", "elsewhere", "A_Form"]
        assert out.events[-1].target == Target(groups=("form",))
        assert out.events[-1].input_value == {}

    def test_dangling_element_under_the_group_ends_the_run(self):
        b = HierarchyBuilder()
        field = b.chain(groups=("form",), element="field")
        button = b.chain(groups=("form",), element="ok")
        ghost = InteractionEvent("ghost", target=Target(groups=("form",), element="gone"))
        log = UILog(
            events=(
                InteractionEvent("type", target=field, input_value="v"),
                ghost,
                InteractionEvent("type", target=field, input_value="w"),
                InteractionEvent("ok", target=button),
            ),
            hierarchy=b.build(),
        )
        with pytest.warns(TriggerNeverFiresWarning, match="run of 1 event"):
            out = abstract(log, AbstractionRule("form", "ok", "A_Form"))
        assert [e.activity_name for e in out.events] == ["type", "ghost", "A_Form"]
        assert out.events[-1].input_value == {"field": "w"}

    def test_nested_group_under_an_application_is_its_own_target(self):
        b = HierarchyBuilder()
        where = dict(system="s", application="erp")
        inner = b.chain(**where, groups=("main", "login mask", "credentials"), element="user")
        mask = b.chain(**where, groups=("main", "login mask"))
        beside = b.chain(**where, groups=("main",), element="menu")
        log = UILog(
            events=(
                InteractionEvent("type", target=inner, input_value="u"),
                InteractionEvent("menu", target=beside),
                InteractionEvent("type", target=inner, input_value="v"),
                InteractionEvent("confirm", target=mask),
            ),
            hierarchy=b.build(),
        )
        with pytest.warns(TriggerNeverFiresWarning, match="run of 1 event"):
            out = abstract(log, AbstractionRule("login mask", "confirm", "A_Login"))
        assert [e.activity_name for e in out.events] == ["type", "menu", "A_Login"]
        assert out.events[-1].target == Target(
            groups=("main", "login mask"), application="erp", system="s"
        )
        assert out.events[-1].input_value == {"user": "v"}
        assert validate(out).ok

    def test_traced_log_equals_abstracting_each_trace_alone(self):
        rng = random.Random(11)
        raw = raw_login_log()
        events = tuple(rng.choice(raw.events) for _ in range(40))
        log = segment(UILog(events=events, hierarchy=raw.hierarchy), ByMarker({"input username"}))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TriggerNeverFiresWarning)
            out = abstract(log, login_rule())
            alone = [
                abstract(UILog(events=[events[i] for i in trace.events],
                               hierarchy=raw.hierarchy), login_rule()).events
                for trace in log.traces
            ]
        assert [trace.id for trace in out.traces] == [trace.id for trace in log.traces]
        assert [tuple(out.events[i] for i in trace.events) for trace in out.traces] == alone
        assert [i for trace in out.traces for i in trace.events] == list(range(len(out.events)))
        assert any(e.activity_name == "A_Login" for e in out.events)

    def test_drop_noise_false_keeps_non_contributors(self):
        raw = raw_login_log()
        rule = AbstractionRule(
            "login mask", "click login", "A_Login",
            collect=("username", "password"), drop_noise=False,
        )
        out = abstract(raw, rule)
        assert [e.activity_name for e in out.events] == ["input password", "A_Login"]
        assert out.events[0].input_value == "wrongpw"

    def test_event_count_never_grows(self):
        raw = raw_login_log()
        for rule in (login_rule(),):
            assert len(abstract(raw, rule).events) <= len(raw.events)

    def test_collect_defaults_to_every_element_with_input(self):
        raw = raw_login_log()
        rule = AbstractionRule("login mask", "click login", "A_Login")
        out = abstract(raw, rule)
        assert out.events[0].input_value == {"username": "pren", "password": "dts123"}

    def test_traced_log_abstracts_per_trace(self):
        raw = raw_login_log()
        segmented = segment(raw, ByMarker(markers={"input username"}))
        out = abstract(segmented, login_rule())
        assert [e.activity_name for e in out.events] == ["A_Login"]
        assert validate(out).ok

    @pytest.mark.parametrize("seed", range(15))
    def test_randomized_abstraction_keeps_logs_valid(self, seed):
        import warnings

        rng = random.Random(7_000 + seed)
        log = genlogs.random_log(rng, max_events=120)
        groups = log.hierarchy.ui_groups
        if not groups:
            pytest.skip("no groups drawn")
        group = rng.choice(groups)
        path = log.hierarchy.location_of(group).groups
        from uilog import join_group_path

        rule = AbstractionRule(
            group=join_group_path(path),
            trigger_activity=rng.choice(
                [e.activity_name for e in log.events] or ["never"]
            ),
            abstract_name="A_Task",
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TriggerNeverFiresWarning)
                out = abstract(log, rule)
        except UnknownGroupError:
            pytest.skip("group id ambiguous in this draw")
        assert len(out.events) <= len(log.events)
        assert validate(out).ok

    def test_ambiguous_group_id_needs_path(self):
        b = HierarchyBuilder()
        b.chain(groups=("win", "login mask"))
        b.chain(groups=("web", "login mask"))
        log = UILog(hierarchy=b.build())
        with pytest.raises(UnknownGroupError, match="disambiguate"):
            abstract(log, AbstractionRule("login mask", "t", "A"))
        # a longer path resolves it
        abstract(log, AbstractionRule("win/login mask", "t", "A"))


class TestDeclarativeFiles:
    def test_single_notion(self):
        notion = load_case_notion("[notion]\nkind = time_gap\nthreshold = 5m\n")
        assert notion == ByTimeGap(threshold=timedelta(minutes=5))

    def test_attribute_notion(self):
        assert load_case_notion("[notion]\nkind = attribute\nkey = user\n") == ByAttribute(
            key="user"
        )

    def test_marker_notion(self):
        notion = load_case_notion("[notion]\nkind = marker\nmarkers = A_Login, A_Logout\n")
        assert notion == ByMarker(markers=frozenset({"A_Login", "A_Logout"}))

    def test_composite_notion(self):
        text = """
[notion:by-user]
kind = attribute
key = user

[notion:by-gap]
kind = gap
threshold = 30s
"""
        notion = load_case_notion(text)
        assert isinstance(notion, Composite)
        assert notion.parts == (ByAttribute(key="user"), ByTimeGap(threshold=30))

    def test_bad_notion(self):
        with pytest.raises(ValueError):
            load_case_notion("[notion]\nkind = nope\n")
        with pytest.raises(ValueError):
            load_case_notion("[something]\nx = 1\n")

    def test_rules_file(self):
        rules = load_rules(
            "[rule:login]\ngroup = login mask\ntrigger = click login\n"
            "name = A_Login\ncollect = username, password\ndrop_noise = false\n"
        )
        assert rules == (
            AbstractionRule(
                "login mask",
                "click login",
                "A_Login",
                collect=("username", "password"),
                drop_noise=False,
            ),
        )

    def test_rules_without_collect(self):
        (rule,) = load_rules("[rule:r]\ngroup = g\ntrigger = t\nname = A_X\n")
        assert rule.collect is None and rule.drop_noise is True
