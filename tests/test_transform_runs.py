"""Properties of the run cuts that ``segment`` and ``abstract`` make.

Over ``genlogs`` logs drawn from seeds 0-199: ``segment`` by a time gap
and by marker activities covers the log in order, every trace after the
first opens where the cut condition holds, and no trace holds a cut
inside it; ``abstract`` never grows the event count, keeps the events
it does not replace in input order, and changes nothing when applied
again. The module needs only the standard library; without pytest, run
it as a script::

    PYTHONPATH=src:tests python3.10 tests/test_transform_runs.py
"""

import random
import warnings
from datetime import timedelta

from uilog import join_group_path
from uilog.errors import TriggerNeverFiresWarning, UnknownGroupError
from uilog.transform import ABSTRACTED_KEY, AbstractionRule, ByMarker, ByTimeGap, abstract, segment

import genlogs

SEEDS = range(200)


def assert_cut(log, notion, cuts_before):
    """``segment(log, notion)`` covers the log in order, and a trace
    opens exactly at each event ``cuts_before(previous, event)`` holds
    for."""
    traces = segment(log, notion).traces
    assert [i for trace in traces for i in trace.events] == list(range(len(log.events)))
    assert all(trace.events for trace in traces)
    assert [trace.id for trace in traces] == [f"case_{n}" for n in range(1, len(traces) + 1)]
    events = log.events
    for trace in traces[1:]:
        first = trace.events[0]
        assert cuts_before(events[first - 1], events[first]), (notion, first)
    for trace in traces:
        for i in trace.events[1:]:
            assert not cuts_before(events[i - 1], events[i]), (notion, i)


def test_time_gap_cuts_where_the_gap_exceeds_the_threshold():
    for seed in SEEDS:
        rng = random.Random(seed)
        log = genlogs.timestamped_log(rng)
        threshold = timedelta(seconds=rng.choice([1, 2, 30, 60, 400]))
        assert_cut(log, ByTimeGap(threshold),
                   lambda previous, event: event.timestamp - previous.timestamp > threshold)


def test_marker_cuts_before_each_marker_activity():
    for seed in SEEDS:
        rng = random.Random(seed)
        log = genlogs.random_log(rng, max_events=80)
        names = sorted({event.activity_name for event in log.events}) or ["never"]
        markers = frozenset(rng.sample(names, rng.randrange(1, min(3, len(names)) + 1)))
        assert_cut(log, ByMarker(markers),
                   lambda previous, event: event.activity_name in markers)


def grouped_log(rng):
    """The first log drawn from ``rng`` that holds a UI group."""
    while True:
        log = genlogs.random_log(rng, max_events=120)
        if log.hierarchy.ui_groups:
            return log


def random_rule(rng, log, name):
    """A rule over a random UI group, triggered by the name of an event
    inside that group where there is one."""
    path = log.hierarchy.location_of(rng.choice(log.hierarchy.ui_groups)).groups
    inside = [
        event.activity_name for event in log.events
        if event.target is not None and event.target.groups[:len(path)] == path
    ]
    return AbstractionRule(
        group=join_group_path(path),
        trigger_activity=rng.choice(inside or ["never"]),
        abstract_name=name,
        drop_noise=rng.random() < 0.5,
    )


def test_abstraction_never_grows_the_event_count():
    abstracted = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        log = grouped_log(rng)
        rules = [random_rule(rng, log, f"A_{n}") for n in range(rng.randrange(1, 3))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TriggerNeverFiresWarning)
                out = abstract(log, rules)
        except UnknownGroupError:  # a group id that repeats under other parents
            continue
        assert len(out.events) <= len(log.events), seed
        sequences = [range(len(log.events))] if log.traces is None else \
            [trace.events for trace in log.traces]
        remaining = iter([log.events[i] for sequence in sequences for i in sequence])
        kept = [event for event in out.events if ABSTRACTED_KEY not in event.attributes]
        assert all(any(event is raw for raw in remaining) for event in kept), seed
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TriggerNeverFiresWarning)
            assert abstract(out, rules).events == out.events, seed
        abstracted += len(out.events) < len(log.events)
    assert abstracted, "no draw abstracted anything"


if __name__ == "__main__":
    test_time_gap_cuts_where_the_gap_exceeds_the_threshold()
    test_marker_cuts_before_each_marker_activity()
    test_abstraction_never_grows_the_event_count()
    print(f"segment and abstract keep their cuts over {len(SEEDS)} seeds each")
