"""Acceptance suite: one test per release criterion.

Each test prints a single pass line (visible with ``pytest -s``); a
failed criterion simply fails its test. Oracles here are deliberately
independent of the implementation paths they check: brute-force scans,
hand counts frozen in tests/keyword_log.py, and byte comparisons.
"""

import random
import subprocess
import sys
import time
from datetime import timedelta

import pytest

from uilog import (
    HierarchyBuilder,
    InteractionEvent,
    NoTargetError,
    SystemNode,
    Target,
    Trace,
    UIGroupNode,
    UIHierarchy,
    UILog,
    ViolationCode,
    coverage,
    level_of,
    profile,
    read_xes,
    validate,
    write_xes,
)
from uilog.fixtures import fixture_path, login_rule, raw_login_log
from uilog.tabular import ingest
from uilog.transform import ByAttribute, ByTimeGap, abstract, segment

import genlogs
import keyword_log
from test_transform import gap_oracle, grouping_oracle, partition_of


def done(number, label):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_keyword_creation_fixture_reproduction():
    started = time.monotonic()

    csv_text = fixture_path("keyword_creation.csv").read_text(encoding="utf-8")
    assert len(csv_text.strip().splitlines()) == 21  # header + 20 rows

    log, report = ingest(csv_text)
    assert len(log.events) == 20
    assert report.rows_read - len(report.rows_skipped) == 20

    check = validate(log)
    assert check.ok and len(check.violations) == 0

    matrix = coverage(log)
    assert matrix["input_value"].fraction == "5/20"
    assert matrix["current_state"].fraction == "4/20"
    assert matrix["target_element"].fraction == "17/20"

    summary = profile(log)
    assert summary.ui_groups == 6
    none_actions = sum(
        1 for e in log.events if e.action is not None and e.action.action_type == "none"
    )
    assert none_actions == 2

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"
    done(1, "fixture reproduction")


def test_criterion_2_xes_round_trip_property_suite():
    started = time.monotonic()
    failures = 0
    for seed in range(200):
        rng = random.Random(20_000 + seed)
        log = genlogs.random_log(rng, max_events=500)
        assert validate(log).ok
        document = write_xes(log)
        back = read_xes(document)
        genlogs.assert_equivalent(log, back)
        assert len(back.events) == len(log.events)
        assert write_xes(back) == document  # re-serialization is byte-stable
    elapsed = time.monotonic() - started
    assert failures == 0
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    done(2, f"round trip, 200 logs in {elapsed:.1f}s")


def _oracle_most_specific(target):
    """Brute force: pick the most specific populated level."""
    if target is None:
        return None
    if target.element is not None:
        return ("ELEMENT", target.element)
    if target.groups:
        return ("GROUP", target.groups[-1])
    if target.application is not None:
        return ("APPLICATION", target.application)
    if target.system is not None:
        return ("SYSTEM", target.system)
    return None


def test_criterion_3_target_resolution_matches_oracle():
    rng = random.Random(3_003)
    builder = HierarchyBuilder()
    targets = []
    for i in range(1000):
        system = f"sys{rng.randrange(3)}" if rng.random() < 0.5 else None
        application = f"app{rng.randrange(4)}" if rng.random() < 0.5 else None
        groups = tuple(f"g{rng.randrange(3)}-{d}" for d in range(rng.randrange(3)))
        element = f"el{rng.randrange(6)}" if rng.random() < 0.5 else None
        if element is None and not groups and application is None and system is None:
            targets.append(None)  # no association at any level
            continue
        targets.append(
            builder.chain(
                system=system, application=application, groups=groups, element=element
            )
        )
    hierarchy = builder.build()

    checked_empty = 0
    for target in targets:
        event = InteractionEvent("x", target=target)
        expected = _oracle_most_specific(target)
        if expected is None:
            checked_empty += 1
            with pytest.raises(NoTargetError):
                hierarchy.resolve(event.target)
            continue
        node = hierarchy.resolve(event.target)
        assert (level_of(node).name, node.id) == expected
    assert checked_empty > 0
    done(3, "target resolution oracle, 1000 events")


def test_criterion_4_login_abstraction_fixture():
    raw = raw_login_log()
    assert len(raw.events) == 4  # username, wrong password, password, login click
    assert raw.events[1].input_value == "wrongpw"

    out = abstract(raw, login_rule())
    abstracted = [e for e in out.events if e.activity_name == "A_Login"]
    assert len(abstracted) == 1 and len(out.events) == 1
    assert abstracted[0].input_value == {"username": "pren", "password": "dts123"}
    assert len(raw.events) - len(out.events) == 3
    assert validate(out).ok

    again = abstract(out, login_rule())
    assert again.events == out.events  # idempotent
    done(4, "login abstraction")


def test_criterion_5_segmentation_matches_oracles():
    for seed in range(200):
        rng = random.Random(50_000 + seed)
        log = genlogs.timestamped_log(rng)

        threshold = timedelta(seconds=rng.choice([1, 5, 45, 60, 120]))
        by_gap = segment(log, ByTimeGap(threshold=threshold))
        expected_runs = gap_oracle([e.timestamp for e in log.events], threshold)
        assert [run for _, run in partition_of(by_gap)] == expected_runs

        by_user = segment(log, ByAttribute(key="user"))
        assert partition_of(by_user) == grouping_oracle([e.user for e in log.events])

        for segmented in (by_gap, by_user):
            assert segmented.events == log.events
            covered = sorted(i for t in segmented.traces for i in t.events)
            assert covered == list(range(len(log.events)))
            for trace in segmented.traces:
                assert list(trace.events) == sorted(trace.events)
    done(5, "segmentation oracles, 200 logs")


def _mutations():
    ok = keyword_log.build_by_hand()

    mutated = []

    log = UILog(events=ok.events[:2] + (InteractionEvent(""),), hierarchy=ok.hierarchy)
    mutated.append((log, ViolationCode.MISSING_ACTIVITY_NAME, {"event_index": 2}))

    log = UILog(
        events=ok.events + (InteractionEvent("x", target=Target(element="ghost")),),
        hierarchy=ok.hierarchy,
    )
    mutated.append((log, ViolationCode.DANGLING_REFERENCE, {"event_index": 20}))

    g1 = UIGroupNode("g1")
    g2 = UIGroupNode("g2", parent=g1)
    object.__setattr__(g1, "parent", g2)
    log = UILog(hierarchy=UIHierarchy(ui_groups=(g1, g2)))
    mutated.append((log, ViolationCode.CYCLE_DETECTED, {"node_id": "g1"}))

    system = SystemNode("s")
    bad_group = UIGroupNode("g", parent=system)
    log = UILog(hierarchy=UIHierarchy(systems=(system,), ui_groups=(bad_group,)))
    mutated.append((log, ViolationCode.LEVEL_VIOLATION, {"node_id": "g"}))

    from datetime import datetime, timezone

    t0 = datetime(2024, 1, 1, tzinfo=timezone.utc)
    log = UILog(
        events=(
            InteractionEvent("a", timestamp=t0),
            InteractionEvent("b", timestamp=t0 - timedelta(seconds=1)),
        ),
    )
    mutated.append((log, ViolationCode.OUT_OF_ORDER_TIMESTAMP, {"event_index": 1}))

    log = UILog(hierarchy=UIHierarchy(ui_groups=(UIGroupNode("dup"), UIGroupNode("dup"))))
    mutated.append((log, ViolationCode.DUPLICATE_ID, {"node_id": "dup"}))

    events = (InteractionEvent("a"), InteractionEvent("b"))
    log = UILog(events=events, traces=(Trace("t1", (0,)),))
    mutated.append((log, ViolationCode.PARTITION_GAP, {"event_index": 1}))

    log = UILog(events=events, traces=(Trace("t1", (0, 1)), Trace("t2", (1,))))
    mutated.append((log, ViolationCode.PARTITION_OVERLAP, {"event_index": 1}))

    log = UILog(events=events, traces=(Trace("t1", (0,)), Trace("t1", (1,))))
    mutated.append((log, ViolationCode.DUPLICATE_ID, {"node_id": "t1"}))

    log = UILog(events=events, traces=(Trace("t1", (0, 1, 2)),))
    mutated.append((log, ViolationCode.DANGLING_REFERENCE, {"node_id": "t1"}))

    log = UILog(
        events=ok.events + (InteractionEvent("x", current_state="open"),), hierarchy=ok.hierarchy
    )
    mutated.append((log, ViolationCode.STATE_WITHOUT_ELEMENT, {"event_index": 20}))

    return ok, mutated


def test_criterion_6_validator_sensitivity():
    ok, mutated = _mutations()
    assert validate(ok).violations == ()

    seen = set()
    for log, code, locator in mutated:
        report = validate(log)
        matches = [v for v in report.violations if v.code == code]
        assert matches, f"{code} not detected"
        located = [
            v
            for v in matches
            if all(getattr(v, field) == value for field, value in locator.items())
        ]
        assert located, f"{code} detected but locator {locator} missing: {matches}"
        seen.add(code)
    assert seen == set(ViolationCode)  # every violation kind was exercised
    done(6, "validator sensitivity, 9 mutation kinds")


def test_criterion_7_extension_output_is_byte_identical_across_runs():
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "uilog.cli", "extension"],
            capture_output=True,
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    text = outputs[0].decode("utf-8")  # valid UTF-8
    keys = [line.split('key="')[1].split('"')[0] for line in text.splitlines() if "key=" in line]
    assert keys == [
        "untraced",
        "action-type",
        *["input-value"] * 7,
        "ui-element",
        *["ui-element-state"] * 7,
        "ui-group-path",
        "application",
        "system",
        "user",
        "task",
        "abstracted",
    ]  # fixed order, stable vocabulary
    done(7, "extension stability")
