"""Journal v6 column tables: a snapshot restores to the state it was
taken from, and a malformed column is corruption, never a crash."""

import dataclasses
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.latency import mturk_car_latency
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.crowd.multibackend import backend_preset_by_name
from repro.obs.slo import default_slo_config
from repro.service import (
    MaxScheduler,
    SchedulerJournal,
    ServiceConfig,
    generate_workload,
    read_journal,
    restore_scheduler_state,
    scheduler_from_header,
    snapshot_scheduler,
    workload_by_name,
)

PRESETS = ("solo", "duo", "outage-trio")
FAULTS = ("none", "lossy", "outages")


def _fleet(preset, faults):
    specs = backend_preset_by_name(preset)
    if faults == "none":
        return specs
    profile = fault_profile_by_name(faults)
    return [dataclasses.replace(spec, fault_profile=profile) for spec in specs]


def _journaled_run(path, preset, faults, slo, deadline, ticks):
    """A journaled scheduler stepped *ticks* times (a snapshot per tick)."""
    scheduler = MaxScheduler(
        generate_workload(workload_by_name("smoke"), seed=7),
        mturk_car_latency(),
        seed=7,
        config=ServiceConfig(
            max_active_queries=3,
            default_deadline=4000.0 if deadline else None,
            slo=default_slo_config() if slo else None,
        ),
        retry_policy=RetryPolicy() if faults != "none" else None,
        backends=_fleet(preset, faults),
        journal=SchedulerJournal.create(path, snapshot_interval=1),
    )
    while scheduler.ticks < ticks and scheduler.step():
        pass
    scheduler.journal.close()
    return scheduler


def _restored(path):
    contents = read_journal(path)
    scheduler = scheduler_from_header(contents.header)
    restore_scheduler_state(scheduler, contents.last_snapshot)
    return scheduler


def _plain(payload):
    return json.loads(json.dumps(payload))


def _session_state(session):
    return (
        session.allocation,
        session.allocation.allocator_name,
        session.selector.name,
        session.round_index,
        session.questions_posted,
        session.rounds_executed,
        session.candidates,
        session.evidence.sorted_keys(),
        session.pending,
        session.awaiting_answers,
        session.done,
        session._n_answered,
        session._answered.tolist(),
        session._keys.tolist(),
        session._key_order.tolist(),
    )


def _query_state(query):
    fields = {
        field.name: getattr(query, field.name)
        for field in dataclasses.fields(query)
        # The open round's unanswered rows are rebuilt every tick.
        if field.name not in ("session", "unanswered")
    }
    return fields, _session_state(query.session)


def _round_trip(preset, faults, slo, deadline, ticks):
    """The live scheduler after *ticks* steps and its restored copy."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        live = _journaled_run(path, preset, faults, slo, deadline, ticks)
        restored = _restored(path)
    return live, restored


@settings(max_examples=40, deadline=None)
@given(
    preset=st.sampled_from(PRESETS),
    faults=st.sampled_from(FAULTS),
    slo=st.booleans(),
    deadline=st.booleans(),
    ticks=st.integers(0, 14),
)
@example(preset="solo", faults="lossy", slo=False, deadline=False, ticks=2)
@example(preset="solo", faults="outages", slo=False, deadline=False, ticks=2)
@example(preset="outage-trio", faults="lossy", slo=True, deadline=True, ticks=5)
@example(preset="duo", faults="none", slo=False, deadline=True, ticks=0)
def test_snapshot_restores_to_the_live_state(preset, faults, slo, deadline, ticks):
    live, restored = _round_trip(preset, faults, slo, deadline, ticks)
    assert restored.ticks == live.ticks
    assert _plain(snapshot_scheduler(restored)) == _plain(
        snapshot_scheduler(live)
    )
    assert restored.selector_rng.bit_generator.state == (
        live.selector_rng.bit_generator.state
    )
    for name in ("_waiting", "_active"):
        pairs = list(zip(getattr(live, name), getattr(restored, name)))
        assert len(pairs) == len(getattr(restored, name))
        for live_query, restored_query in pairs:
            assert _query_state(restored_query) == _query_state(live_query)
            assert restored_query.session.rng is restored.selector_rng
            assert restored_query.session.selector is restored._selector
    assert restored._results == live._results


def test_round_trip_cases_cover_pending_waiting_and_missing_times():
    live, restored = _round_trip("solo", "lossy", False, False, 2)
    assert any(q.session.awaiting_answers for q in live._active)
    assert live._waiting
    assert any(q.first_scheduled_time is None for q in live._waiting)
    assert all(q.deadline_at is None for q in live._waiting + live._active)
    for live_query, restored_query in zip(live._active, restored._active):
        assert _query_state(restored_query) == _query_state(live_query)
    live, _ = _round_trip("outage-trio", "lossy", True, True, 5)
    assert all(q.deadline_at is not None for q in live._active)
    # Two mid-round sessions whose evidence differs in size.
    live, _ = _round_trip("solo", "outages", False, False, 2)
    answers = [q.session.evidence.n_answers for q in live._active]
    assert len(set(answers)) == len(answers) > 1
    assert all(q.session.awaiting_answers for q in live._active)


def test_snapshot_tables_are_columns():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        live = _journaled_run(path, "solo", "lossy", False, False, 2)
        snapshot = read_journal(path).last_snapshot
    active = snapshot["active"]
    assert active["query_id"] == [q.spec.query_id for q in live._active]
    assert sum(active["n_evidence"]) == len(active["evidence"])
    assert sum(active["n_pending"]) == len(active["pending"])
    assert active["round_budgets"] == [
        list(q.session.allocation.round_budgets) for q in live._active
    ]
    keys = iter(active["evidence"])
    for query, count in zip(live._active, active["n_evidence"]):
        assert [next(keys) for _ in range(count)] == (
            query.session.evidence.sorted_keys()
        )
    assert all(type(column) is list for column in active.values())
