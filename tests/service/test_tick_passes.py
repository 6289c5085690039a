"""The scheduler's one-pass admission and finalization, against
per-query references kept here.

* Admission: :meth:`MaxScheduler._admit_due` takes a tick's due arrivals
  in one pass and builds each shape's plan key once.  The reference
  offers one arrival at a time, with one ``decide``, one key and one
  plan-cache lookup (and, on a miss, one solve and put) per admitted
  query.  Results, plan-cache stats, LRU order,
  evictions, the waiting and active lists and the selector stream must
  agree after every step.
* Finalization: each call of :meth:`MaxScheduler._finalize` finalizes
  the queries that left at one call site.  The reference builds their
  results one query at a time and removes each from the active list in
  turn; the tally is recounted result by result.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import LinearLatency
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.selection.base import QuestionSelector
from repro.selection.scoring import best_scored
from repro.service import (
    AdmissionDecision,
    BrownoutConfig,
    MaxScheduler,
    PlanCache,
    PlanKey,
    QueryResult,
    QuerySpec,
    QueryState,
    ServiceConfig,
)
from repro.service.deadline import (
    DEADLINE_DEGRADED,
    DEADLINE_EXCEEDED,
    DEADLINE_MET,
)
from repro.service.scheduler import ResultTally

LATENCY = LinearLatency(239, 0.06)


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
def plan_one(scheduler, spec):
    """One plan-cache lookup for one query; solve and put on a miss."""
    key = PlanKey.for_query(
        spec.n_elements, spec.budget, scheduler.latency, scheduler.config.repetition
    )
    cached = scheduler.plan_cache.get(key)
    if cached is not None:
        return cached, True
    allocation = scheduler._allocator.allocate(
        spec.n_elements, spec.budget, scheduler.latency
    )
    scheduler.plan_cache.put(key, allocation)
    return allocation, False


def admit_one_at_a_time(scheduler):
    """Offer the due arrivals one by one: the per-arrival reference."""
    backlog = scheduler._backlog
    while backlog and (spec := backlog[0]).arrival_time <= scheduler.now:
        brownout = scheduler.brownout
        if brownout is not None and brownout.shed_low_priority and spec.priority <= 0:
            backlog.popleft()
            scheduler._shed(
                spec,
                f"brownout level {brownout.level}: low-priority admissions shed",
            )
            continue
        decision = scheduler._admission.decide(
            n_active=len(scheduler._active), n_waiting=len(scheduler._waiting)
        )
        if decision is AdmissionDecision.DEFER:
            return
        backlog.popleft()
        if decision is AdmissionDecision.SHED:
            scheduler._shed(spec, scheduler._admission.describe_overload())
        else:
            scheduler._admit(spec, *plan_one(scheduler, spec))


def admission_state(scheduler):
    cache = scheduler.plan_cache
    return (
        [repr(result) for result in scheduler._results],
        (cache.stats.hits, cache.stats.misses, cache.stats.evictions),
        [key for key, _ in cache.items()],
        [q.spec.query_id for q in scheduler._waiting],
        [q.spec.query_id for q in scheduler._active],
        [len(scheduler._backlog), scheduler.now],
        scheduler.selector_rng.bit_generator.state,
    )


@st.composite
def admission_cases(draw):
    n_queries = draw(st.integers(1, 40))
    specs = []
    for query_id in range(n_queries):
        n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8]))
        factor = draw(st.sampled_from([1, 2, 3, 5]))
        specs.append(
            QuerySpec(
                query_id=query_id,
                n_elements=n,
                budget=max(n - 1, factor * n),
                priority=draw(st.integers(0, 2)),
                arrival_time=draw(st.sampled_from([0.0, 0.0, 0.0, 300.0, 2000.0])),
            )
        )
    config = ServiceConfig(
        max_active_queries=draw(st.integers(1, 4)),
        max_queue_depth=draw(st.integers(0, 4)),
        overload_policy=draw(st.sampled_from(["shed", "defer"])),
        brownout=(
            BrownoutConfig(queue_wait_threshold=draw(st.sampled_from([50.0, 400.0])))
            if draw(st.booleans())
            else None
        ),
    )
    return specs, config, draw(st.integers(1, 6)), draw(st.integers(0, 2**16))


#: What :func:`drive_admission` reports having seen.
CASES = ("brownout shed", "queue-full shed", "trivial", "evicted", "repeat")


def drive_admission(specs, config, capacity, seed):
    """Step the one-pass and the per-arrival scheduler side by side."""
    one_pass, reference = (
        MaxScheduler(specs, LATENCY, seed=seed, config=config) for _ in range(2)
    )
    for scheduler in (one_pass, reference):
        scheduler.plan_cache = PlanCache(capacity)
    reference._admit_due = lambda: admit_one_at_a_time(reference)
    seen = dict.fromkeys(CASES, False)
    while not reference.drained:
        before = len(reference._results)
        hits = reference.plan_cache.stats.hits
        assert one_pass.step() == reference.step()
        assert admission_state(one_pass) == admission_state(reference)
        new = reference._results[before:]
        reasons = [r.shed_reason or "" for r in new]
        seen["brownout shed"] |= any(r.startswith("brownout") for r in reasons)
        seen["queue-full shed"] |= any(r.startswith("queue full") for r in reasons)
        seen["trivial"] |= any(r.spec.n_elements == 1 for r in new)
        seen["evicted"] |= reference.plan_cache.stats.evictions > 0
        seen["repeat"] |= reference.plan_cache.stats.hits > hits
    assert one_pass.drained
    assert repr(one_pass.run()) == repr(reference.run())
    return seen


@settings(max_examples=60, deadline=None)
@given(case=admission_cases())
def test_one_pass_admission_equals_one_arrival_at_a_time(case):
    drive_admission(*case)


def test_the_admission_cases_come_up():
    """Brownout and queue-full sheds, c0 = 1 completions, evictions from
    a cache smaller than the shape count, and repeated shapes."""
    specs = [
        QuerySpec(
            query_id=i,
            n_elements=[1, 3, 5, 8, 3, 1, 6][i % 7],
            budget=[0, 6, 10, 24, 9, 0, 18][i % 7],
            priority=i % 3,
            arrival_time=[0.0, 0.0, 300.0, 2000.0][i % 4],
        )
        for i in range(40)
    ]
    seen = dict.fromkeys(CASES, False)
    for overload, brownout in (("shed", None), ("defer", BrownoutConfig(50.0))):
        config = ServiceConfig(
            max_active_queries=2,
            max_queue_depth=1,
            overload_policy=overload,
            brownout=brownout,
        )
        for case, hit in drive_admission(specs, config, 2, 0).items():
            seen[case] |= hit
    assert all(seen.values()), seen


# ----------------------------------------------------------------------
# Finalization
# ----------------------------------------------------------------------
def result_of(scheduler, query, state, deadline_outcome):
    """One query's result, built on its own."""
    session, spec, now = query.session, query.spec, scheduler.now
    if state is QueryState.COMPLETED:
        winner, singleton = session.winner, session.singleton_termination
    else:
        winner, singleton = best_scored(session.evidence), False
    ranks = scheduler.truth.ranks[query.offset : query.offset + spec.n_elements]
    latency = max(0.0, now - spec.arrival_time)
    deadline = None
    if query.deadline_at is not None:
        deadline = query.deadline_at - spec.arrival_time
        if deadline_outcome is None:
            if now > query.deadline_at:
                deadline_outcome = DEADLINE_EXCEEDED
            elif state is QueryState.COMPLETED:
                deadline_outcome = DEADLINE_MET
            else:
                deadline_outcome = DEADLINE_DEGRADED
    return QueryResult(
        spec=spec,
        state=state,
        winner=winner,
        correct=winner == int(np.argmin(ranks)),
        singleton=singleton,
        latency=latency,
        queue_wait=(
            max(0.0, query.first_scheduled_time - spec.arrival_time)
            if query.first_scheduled_time is not None
            else 0.0
        ),
        rounds=session.rounds_executed,
        questions_posted=session.questions_posted + len(session.pending or ()),
        plan_cache_hit=query.plan_cache_hit,
        slo_met=latency <= spec.latency_slo if spec.latency_slo is not None else None,
        deadline=deadline,
        deadline_outcome=deadline_outcome,
    )


def counted(tally, result):
    """*tally* with one more result counted."""
    tally = copy.copy(tally)
    if result.state is QueryState.COMPLETED:
        tally.completed += 1
        tally.wait_total += result.queue_wait
    elif result.state is QueryState.DEGRADED:
        tally.degraded += 1
        tally.wait_total += result.queue_wait
    else:
        tally.shed += 1
    if result.deadline_outcome == DEADLINE_MET:
        tally.deadline_met += 1
    elif result.deadline_outcome is not None:
        tally.deadline_breached += 1
    return tally


def checked_finalize(scheduler, calls):
    """Wrap *scheduler*'s ``_finalize`` in the per-query reference."""
    finalize = scheduler._finalize

    def check(exits, trace=True):
        expected = []
        active = list(scheduler._active)
        tally = scheduler._tally
        for query, state, outcome in exits:
            expected.append(result_of(scheduler, query, state, outcome))
            tally = counted(tally, expected[-1])
            if query in active:
                active.remove(query)
        results = finalize(exits, trace)
        assert [repr(r) for r in results] == [repr(r) for r in expected]
        assert scheduler._results[len(scheduler._results) - len(results):] == expected
        assert [id(q) for q in scheduler._active] == [id(q) for q in active]
        assert scheduler._tally == tally
        calls.append([(state, outcome) for _, state, outcome in exits])
        return results

    scheduler._finalize = check


@st.composite
def finalization_cases(draw):
    n_queries = draw(st.integers(2, 30))
    deadline = draw(st.sampled_from([None, 900.0, 2500.0]))
    specs = [
        QuerySpec(
            query_id=i,
            n_elements=(n := draw(st.sampled_from([1, 4, 8, 12]))),
            budget=max(n - 1, draw(st.sampled_from([1, 2, 4])) * n),
            priority=draw(st.integers(0, 2)),
            arrival_time=draw(st.sampled_from([0.0, 0.0, 200.0, 1500.0])),
            deadline=deadline,
        )
        for i in range(n_queries)
    ]
    config = ServiceConfig(
        max_active_queries=draw(st.integers(1, 6)),
        max_round_attempts=draw(st.integers(1, 3)),
    )
    lossy = draw(st.booleans())
    return specs, config, lossy, draw(st.integers(0, 2**16))


def drive_finalization(specs, config, lossy, seed):
    kwargs = (
        {"fault_profile": fault_profile_by_name("lossy"),
         "retry_policy": RetryPolicy(max_attempts=1)}
        if lossy
        else {}
    )
    scheduler = MaxScheduler(specs, LATENCY, seed=seed, config=config, **kwargs)
    calls = []
    checked_finalize(scheduler, calls)
    report = scheduler.run()
    assert len(report.results) == len(specs)
    assert scheduler._tally == ResultTally.of(scheduler._results)
    return calls


@settings(max_examples=40, deadline=None)
@given(case=finalization_cases())
def test_one_pass_finalization_equals_one_query_at_a_time(case):
    drive_finalization(*case)


@pytest.mark.parametrize("lossy", [False, True])
def test_the_finalization_sites_come_up(lossy):
    """Several queries leave together, and every exit kind occurs."""
    specs = [
        QuerySpec(
            query_id=i,
            n_elements=[1, 4, 8, 12][i % 4],
            budget=[0, 8, 16, 24][i % 4],
            arrival_time=[0.0, 200.0][i % 2],
            deadline=1400.0,
        )
        for i in range(24)
    ]
    calls = drive_finalization(
        specs, ServiceConfig(max_active_queries=4, max_round_attempts=2), lossy, 3
    )
    exits = {exit_ for call in calls for exit_ in call}
    assert max(len(call) for call in calls) > 1
    expected = {
        (QueryState.COMPLETED, None),
        (QueryState.DEGRADED, DEADLINE_DEGRADED),
        (QueryState.DEGRADED, DEADLINE_EXCEEDED),
    }
    if lossy:
        expected.add((QueryState.DEGRADED, None))
    assert exits == expected


class AsksNothing(QuestionSelector):
    """A selector with nothing left to ask."""

    def select(self, ctx):
        return np.empty((0, 2), np.int64)


def test_exits_after_the_open_pass_keep_the_active_order():
    """A query degraded for its deadline and, after it in the active
    list, one whose selector has nothing left to ask leave in active
    order, as when each query is checked in turn: results, exit events
    and the tally."""
    specs = [
        QuerySpec(query_id=0, n_elements=8, budget=16, deadline=5000.0),
        QuerySpec(query_id=1, n_elements=6, budget=12, deadline=5000.0),
    ]
    scheduler = MaxScheduler(
        specs, LATENCY, seed=0, config=ServiceConfig(max_active_queries=2)
    )
    tracer = RecordingTracer()
    with use_tracer(tracer):
        scheduler._admit_due()
        scheduler._promote_waiting()
        degrading, finishing = scheduler._active
        finishing.session.selector = AsksNothing()
        # Too close to its deadline for any round, but not past it.
        degrading.deadline_at = scheduler.now + 1.0
        scheduler.step()
    assert [
        (r.spec.query_id, r.state, r.deadline_outcome) for r in scheduler._results
    ] == [
        (0, QueryState.DEGRADED, DEADLINE_DEGRADED),
        (1, QueryState.COMPLETED, DEADLINE_MET),
    ]
    assert [e.query_id for e in tracer.events("QueryCompleted")] == [0, 1]
    assert scheduler._tally == ResultTally.of(scheduler._results)
