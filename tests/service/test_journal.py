"""Write-ahead journal and deterministic recovery."""

import dataclasses
import json

import pytest

from repro.core.latency import mturk_car_latency
from repro.crowd.breaker import CircuitBreakerConfig
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.errors import JournalCorruptError
from repro.obs import get_registry
from repro.obs.slo import default_slo_config
from repro.service import (
    JOURNAL_VERSION,
    MaxScheduler,
    SchedulerJournal,
    ServiceConfig,
    generate_workload,
    read_journal,
    recover_scheduler,
    scheduler_from_header,
    workload_by_name,
)
from repro.service.journal import journal_results


def _specs(workload="smoke", seed=7, n_queries=None):
    return generate_workload(
        workload_by_name(workload), seed=seed, n_queries=n_queries
    )


def _scheduler(journal=None, workload="smoke", seed=7, **kwargs):
    return MaxScheduler(
        _specs(workload=workload, seed=seed),
        mturk_car_latency(),
        seed=seed,
        journal=journal,
        **kwargs,
    )


def _faulty_kwargs():
    return {
        "fault_profile": fault_profile_by_name("outages"),
        "retry_policy": RetryPolicy(),
    }


class TestJournalWriting:
    def test_journaled_run_matches_unjournaled(self, tmp_path):
        baseline = _scheduler().run()
        with SchedulerJournal.create(tmp_path / "run.jsonl") as journal:
            report = _scheduler(journal=journal).run()
        assert report == baseline

    def test_journal_is_line_delimited_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SchedulerJournal.create(path) as journal:
            _scheduler(journal=journal).run()
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "header"
        assert records[0]["payload"]["version"] == JOURNAL_VERSION
        assert records[-1]["record"] == "complete"
        assert [rec["seq"] for rec in records] == list(range(len(records)))
        kinds = {rec["record"] for rec in records}
        assert {"snapshot", "results", "tick", "route"} <= kinds
        assert kinds <= {"header", "snapshot", "results", "tick", "route",
                         "alert", "deferred", "replan", "brownout",
                         "complete"}
        indices = [
            index
            for rec in records
            if rec["record"] == "results"
            for index, _ in enumerate(
                rec["payload"]["query_id"], rec["payload"]["first"]
            )
        ]
        assert indices == list(range(len(_specs())))

    def test_snapshot_interval_thins_snapshots(self, tmp_path):
        dense = tmp_path / "dense.jsonl"
        sparse = tmp_path / "sparse.jsonl"
        with SchedulerJournal.create(dense, snapshot_interval=1) as journal:
            _scheduler(journal=journal, workload="steady", seed=3).run()
        with SchedulerJournal.create(sparse, snapshot_interval=5) as journal:
            _scheduler(journal=journal, workload="steady", seed=3).run()

        def n_snapshots(path):
            return sum(
                1
                for line in path.read_text(encoding="utf-8").splitlines()
                if json.loads(line)["record"] == "snapshot"
            )

        assert n_snapshots(sparse) < n_snapshots(dense)

    def test_rejects_writes_after_close(self, tmp_path):
        journal = SchedulerJournal.create(tmp_path / "run.jsonl")
        journal.close()
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            journal.record("admit", {})
        journal.close()  # idempotent


class TestRecovery:
    @pytest.mark.parametrize("crash_after", [0, 1, 3])
    def test_recovery_is_bit_identical_under_faults(self, tmp_path, crash_after):
        baseline = _scheduler(**_faulty_kwargs()).run()
        path = tmp_path / "crash.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(journal=journal, **_faulty_kwargs())
        steps = 0
        while steps < crash_after and victim.step():
            steps += 1
        journal.close()
        recovered = recover_scheduler(path)
        report = recovered.run()
        recovered.journal.close()
        assert report == baseline

    def test_recovery_with_sparse_snapshots_replays_lost_ticks(self, tmp_path):
        baseline = _scheduler(workload="steady", seed=3).run()
        path = tmp_path / "sparse.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=5)
        victim = _scheduler(journal=journal, workload="steady", seed=3)
        steps = 0
        while steps < 3 and victim.step():
            steps += 1
        journal.close()
        recovered = recover_scheduler(path)
        # The last snapshot is older than the crash point; the lost ticks
        # must be replayed deterministically.
        assert recovered.ticks < steps
        report = recovered.run()
        recovered.journal.close()
        assert report == baseline

    def test_recovered_run_is_itself_recoverable(self, tmp_path):
        """The resumed journal must support a second crash/recover cycle."""
        baseline = _scheduler().run()
        path = tmp_path / "twice.jsonl"
        journal = SchedulerJournal.create(path)
        first = _scheduler(journal=journal)
        first.step()
        journal.close()
        second = recover_scheduler(path)
        second.step()
        second.journal.close()
        third = recover_scheduler(path)
        report = third.run()
        third.journal.close()
        assert report == baseline

    def test_double_crash_in_one_file_folds_every_result(self, tmp_path):
        """Kill, recover and resume, kill between snapshots, recover."""
        baseline = _scheduler(workload="steady", seed=3).run()
        path = tmp_path / "double.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=3)
        first = _scheduler(journal=journal, workload="steady", seed=3)
        while first.ticks < 4 and first.step():
            pass
        journal.close()
        second = recover_scheduler(path)
        assert second.ticks == 3
        # Past the next snapshot (tick 6), then off the interval.
        while second.ticks < 8 and second.step():
            pass
        second.journal.close()
        third = recover_scheduler(path)
        assert third.ticks == 6
        report = third.run()
        third.journal.close()
        assert report == baseline
        assert journal_results(path) == report.results
        folded = read_journal(path).last_snapshot["results"]
        assert sorted(row[0] for row in folded) == [
            result.spec.query_id for result in report.results
        ]

    def test_resume_after_torn_tail_keeps_later_snapshots_readable(
        self, tmp_path
    ):
        baseline = _scheduler(workload="steady", seed=3).run()
        path = tmp_path / "torn.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=1)
        victim = _scheduler(journal=journal, workload="steady", seed=3)
        while victim.ticks < 3 and victim.step():
            pass
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 17])  # tear the last record
        assert read_journal(path).last_snapshot["ticks"] == 2
        second = recover_scheduler(path)
        while second.ticks < 6 and second.step():
            pass
        second.journal.close()
        contents = read_journal(path)
        assert not contents.tail_corrupt
        assert contents.intact_bytes == path.stat().st_size
        third = recover_scheduler(path)
        assert third.ticks == 6
        report = third.run()
        third.journal.close()
        assert report == baseline
        assert read_journal(path).last_snapshot["ticks"] == report.ticks

    def test_recover_without_resume_leaves_journal_untouched(self, tmp_path):
        path = tmp_path / "frozen.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(journal=journal)
        victim.step()
        journal.close()
        before = path.read_bytes()
        recovered = recover_scheduler(path, resume_journal=False)
        assert recovered.journal is None
        recovered.run()
        assert path.read_bytes() == before

    def test_recovery_preserves_breaker_and_fault_config(self, tmp_path):
        kwargs = dict(
            _faulty_kwargs(),
            breaker_config=CircuitBreakerConfig(failure_threshold=2),
        )
        baseline = _scheduler(seed=11, **kwargs).run()
        path = tmp_path / "breaker.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(journal=journal, seed=11, **kwargs)
        for _ in range(2):
            victim.step()
        journal.close()
        recovered = recover_scheduler(path)
        assert recovered.router.backends[0].breaker is not None
        report = recovered.run()
        recovered.journal.close()
        assert report == baseline

    def test_recovery_counts_metric(self, tmp_path):
        path = tmp_path / "metric.jsonl"
        journal = SchedulerJournal.create(path)
        _scheduler(journal=journal).run()
        journal.close()
        counter = get_registry().counter("service.recoveries")
        before = counter.value
        recover_scheduler(path, resume_journal=False)
        assert counter.value == before + 1


class _JournalParts:
    """The parts of a parsed journal a column corruption edits."""

    def __init__(self, records):
        self.specs = records[0]["payload"]["specs"]
        self.snapshot = [
            r["payload"] for r in records if r["record"] == "snapshot"
        ][-1]
        self.active = self.snapshot["active"]
        self.results = next(
            r["payload"] for r in records if r["record"] == "results"
        )
        # The collection size of the first active query.
        index = self.specs["query_id"].index(self.active["query_id"][0])
        self.n = self.specs["n_elements"][index]


def _set(column, index, value):
    column[index] = value


def _answer_both_ways(j):
    """Give the first active query's first answer the other way too."""
    winner, loser = divmod(j.active["evidence"][0], j.n)
    j.active["evidence"].insert(j.active["n_evidence"][0], loser * j.n + winner)
    j.active["n_evidence"][0] += 1


_COLUMN_CORRUPTIONS = {
    "ragged active column": lambda j: j.active["seq"].pop(),
    "ragged waiting column": lambda j: j.snapshot["waiting"]["seq"].append(0),
    "missing active column": lambda j: j.active.pop("round_index"),
    "active table not a table": lambda j: j.snapshot.update(active=[1, 2]),
    "evidence not a list": lambda j: j.active.update(evidence={"a": 1}),
    "evidence counts past the keys": lambda j: _set(
        j.active["n_evidence"], 0, j.active["n_evidence"][0] + 1
    ),
    "evidence counts short of the keys": lambda j: _set(
        j.active["n_evidence"], -1, j.active["n_evidence"][-1] - 1
    ),
    "negative evidence count": lambda j: j.active.update(
        n_evidence=[-1] * (len(j.active["query_id"]) - 1)
        + [len(j.active["evidence"]) + len(j.active["query_id"]) - 1]
    ),
    "evidence key at n squared": lambda j: _set(
        j.active["evidence"], 0, j.n * j.n
    ),
    "negative evidence key": lambda j: _set(j.active["evidence"], 0, -1),
    "self-pair evidence key": lambda j: _set(j.active["evidence"], 0, 0),
    "float evidence key": lambda j: _set(j.active["evidence"], 0, 1.5),
    "bool evidence key": lambda j: _set(j.active["evidence"], 0, True),
    "huge evidence key": lambda j: _set(j.active["evidence"], 0, 2**70),
    "opposite evidence keys": lambda j: _answer_both_ways(j),
    "pending counts past the keys": lambda j: _set(
        j.active["n_pending"], 0, j.active["n_pending"][0] + 1
    ),
    "pending key at n squared": lambda j: _set(
        j.active["pending"], 0, j.n * j.n
    ),
    "self-pair pending key": lambda j: _set(
        j.active["pending"], 0, j.n + 1
    ),
    "negative round budget": lambda j: _set(
        j.active["round_budgets"][0], 0, -1
    ),
    "round budgets not a list": lambda j: _set(j.active["round_budgets"], 0, 5),
    "unknown query id": lambda j: _set(j.active["query_id"], 0, 10**6),
    "unknown query state": lambda j: _set(j.active["state"], 0, "lost"),
    "short plan cache entry": lambda j: j.snapshot["plan_cache"]["entries"][
        0
    ].pop(),
    "short plan cache stats": lambda j: j.snapshot["plan_cache"].update(
        stats=[1]
    ),
    "ragged results column": lambda j: j.results["state"].pop(),
    "missing results column": lambda j: j.results.pop("winner"),
    "negative results index": lambda j: j.results.update(first=-1),
    "text results index": lambda j: j.results.update(first="0"),
    "unknown result state": lambda j: _set(j.results["state"], 0, "lost"),
    "ragged header specs": lambda j: j.specs["budget"].pop(),
    "missing header spec column": lambda j: j.specs.pop("deadline"),
}


class TestCorruption:
    def _journal_after_steps(self, tmp_path, steps=2):
        path = tmp_path / "base.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(journal=journal)
        for _ in range(steps):
            victim.step()
        journal.close()
        return path

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(JournalCorruptError):
            recover_scheduler(tmp_path / "nope.jsonl")

    def test_empty_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(JournalCorruptError):
            recover_scheduler(path)

    def test_garbage_header_raises_typed_error(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"record": "not-a-header", "seq": 0}\n')
        with pytest.raises(JournalCorruptError):
            recover_scheduler(path)

    def test_truncated_last_record_recovers_from_last_snapshot(self, tmp_path):
        baseline = _scheduler().run()
        path = self._journal_after_steps(tmp_path)
        text = path.read_text(encoding="utf-8")
        # Chop the last record mid-line, as a crash during a write would.
        path.write_text(text[: len(text) - 17], encoding="utf-8")
        contents = read_journal(path)
        assert contents.tail_corrupt
        recovered = recover_scheduler(path, resume_journal=False)
        assert recovered.run() == baseline

    def test_garbage_tail_recovers_from_last_snapshot(self, tmp_path):
        baseline = _scheduler().run()
        path = self._journal_after_steps(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\x00\x00 not json at all\n")
        contents = read_journal(path)
        assert contents.tail_corrupt
        recovered = recover_scheduler(path, resume_journal=False)
        assert recovered.run() == baseline

    def test_unterminated_final_line_is_treated_as_truncated(self, tmp_path):
        path = self._journal_after_steps(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        path.write_text(text.rstrip("\n"), encoding="utf-8")
        # The final record parses as JSON, but without its newline it may
        # be a partial write — the reader must not trust it.
        assert read_journal(path).tail_corrupt

    def test_no_intact_snapshot_raises_typed_error(self, tmp_path):
        path = self._journal_after_steps(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        kept = [
            line
            for line in lines
            if json.loads(line)["record"] != "snapshot"
        ]
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        with pytest.raises(JournalCorruptError, match="snapshot"):
            recover_scheduler(path)

    def test_missing_result_record_raises_typed_error(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        with SchedulerJournal.create(path) as journal:
            _scheduler(journal=journal).run()
        lines = path.read_text(encoding="utf-8").splitlines()
        kept = [
            line for line in lines
            if json.loads(line)["record"] != "results"
            or json.loads(line)["payload"]["first"] != 0
        ]
        assert len(kept) == len(lines) - 1
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        with pytest.raises(JournalCorruptError, match="result 0"):
            read_journal(path)

    def test_backlog_longer_than_the_specs_is_corruption(self, tmp_path):
        from repro.service import restore_scheduler_state

        path = self._journal_after_steps(tmp_path)
        contents = read_journal(path)
        snapshot = dict(contents.last_snapshot, backlog=len(_specs()) + 1)
        with pytest.raises(JournalCorruptError, match="backlog"):
            restore_scheduler_state(
                scheduler_from_header(contents.header), snapshot
            )

    def test_snapshot_without_the_slo_slot_raises_typed_error(self, tmp_path):
        path = self._journal_after_steps(tmp_path)
        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["record"] == "snapshot":
                del record["payload"]["slo"]
                line = json.dumps(record)
            lines.append(line)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(JournalCorruptError, match="slo"):
            recover_scheduler(path)

    def test_corruption_errors_never_leak_json_tracebacks(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        try:
            recover_scheduler(path)
        except JournalCorruptError:
            pass
        else:  # pragma: no cover - defensive
            pytest.fail("expected JournalCorruptError")
        # Malformed columns of a mid-round snapshot, a results record and
        # the header are typed corruption too.
        source = tmp_path / "columns.jsonl"
        journal = SchedulerJournal.create(source, snapshot_interval=1)
        victim = _scheduler(journal=journal, **_faulty_kwargs())
        while victim.ticks < 2 and victim.step():
            pass
        journal.close()
        lines = source.read_text(encoding="utf-8").splitlines()
        for name, corrupt in _COLUMN_CORRUPTIONS.items():
            records = [json.loads(line) for line in lines]
            corrupt(_JournalParts(records))
            path.write_text(
                "\n".join(map(json.dumps, records)) + "\n", encoding="utf-8"
            )
            try:
                recover_scheduler(path, resume_journal=False)
            except JournalCorruptError:
                continue
            except Exception as error:  # pragma: no cover - the failure
                pytest.fail(f"{name}: {type(error).__name__}: {error}")
            pytest.fail(f"{name}: recovered from a malformed journal")

    def test_resume_requires_existing_file(self, tmp_path):
        with pytest.raises(JournalCorruptError):
            SchedulerJournal.resume(tmp_path / "absent.jsonl")


class TestHeaderRoundTrip:
    def test_header_rebuilds_equivalent_scheduler(self, tmp_path):
        path = tmp_path / "header.jsonl"
        journal = SchedulerJournal.create(path)
        kwargs = dict(
            _faulty_kwargs(),
            breaker_config=CircuitBreakerConfig(
                failure_threshold=2, cooldown_seconds=900.0
            ),
        )
        original = _scheduler(journal=journal, **kwargs)
        journal.close()
        header = read_journal(path).header
        rebuilt = scheduler_from_header(header)
        assert rebuilt.seed == original.seed
        assert rebuilt.config == original.config
        assert (
            rebuilt.router.backends[0].spec == original.router.backends[0].spec
        )
        # Both untouched schedulers must then run identically.
        assert rebuilt.run() == _scheduler(**kwargs).run()

    def test_single_platform_header_records_its_solo_fleet(self, tmp_path):
        path = tmp_path / "solo.jsonl"
        journal = SchedulerJournal.create(path)
        _scheduler(
            journal=journal,
            breaker_config=CircuitBreakerConfig(failure_threshold=2),
            **_faulty_kwargs(),
        )
        journal.close()
        contents = read_journal(path)
        header = contents.header
        assert JOURNAL_VERSION == 6
        assert "fault_profile" not in header
        assert "breaker_config" not in header
        (backend,) = header["backends"]
        assert backend["breaker"]["failure_threshold"] == 2
        assert backend["fault_profile"]["outage_prob"] > 0
        (state,) = contents.last_snapshot["backends"]
        assert state["name"] == backend["name"]

    @staticmethod
    def _journal_claiming_version(path, version):
        journal = SchedulerJournal.create(path)
        _scheduler(journal=journal)
        journal.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["payload"]["version"] = version
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_version_one_journal_is_rejected(self, tmp_path):
        path = self._journal_claiming_version(tmp_path / "v1.jsonl", 1)
        with pytest.raises(JournalCorruptError, match="version 1"):
            recover_scheduler(path)

    def test_version_two_journal_is_rejected(self, tmp_path):
        path = self._journal_claiming_version(tmp_path / "v2.jsonl", 2)
        with pytest.raises(JournalCorruptError, match="version 2"):
            recover_scheduler(path)

    def test_version_three_journal_is_rejected(self, tmp_path):
        path = self._journal_claiming_version(tmp_path / "v3.jsonl", 3)
        with pytest.raises(JournalCorruptError, match="version 3"):
            recover_scheduler(path)

    def test_version_four_journal_is_rejected(self, tmp_path):
        path = self._journal_claiming_version(tmp_path / "v4.jsonl", 4)
        with pytest.raises(JournalCorruptError, match="version 4"):
            recover_scheduler(path)

    def test_version_five_journal_is_rejected(self, tmp_path):
        path = self._journal_claiming_version(tmp_path / "v5.jsonl", 5)
        with pytest.raises(JournalCorruptError, match="version 5"):
            recover_scheduler(path)

    def test_header_with_missing_keys_raises_typed_error(self, tmp_path):
        with pytest.raises(JournalCorruptError):
            scheduler_from_header({"version": JOURNAL_VERSION})


class TestMidRoundCheckpoint:
    def test_snapshot_captures_pending_questions(self, tmp_path):
        """Sessions awaiting answers serialize their pending pairs."""
        path = tmp_path / "pending.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=1)
        victim = _scheduler(journal=journal, **_faulty_kwargs())
        # After two ticks of the outages profile some sessions are
        # mid-round (questions swallowed by a fault, answers outstanding);
        # the snapshot must reproduce the exact pending state.
        victim.step()
        victim.step()
        journal.close()
        contents = read_journal(path)
        active = contents.last_snapshot["active"]
        assert any(
            active["n_pending"]
        ), "expected a mid-round session after two faulty ticks"
        recovered = recover_scheduler(path, resume_journal=False)
        assert [q.spec.query_id for q in recovered._active] == (
            active["query_id"]
        )
        keys = iter(active["pending"])
        for query, count in zip(recovered._active, active["n_pending"]):
            n = query.spec.n_elements
            want = [divmod(next(keys), n) for _ in range(count)]
            assert (query.session.pending or []) == want
            assert query.session.awaiting_answers == (count > 0)


    def test_selector_stream_is_snapshotted_once(self, tmp_path):
        """The scheduler's one selector stream is stored at top level;
        no waiting or active session payload carries an RNG state."""
        path = tmp_path / "stream.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=1)
        victim = _scheduler(
            journal=journal,
            config=ServiceConfig(max_active_queries=2),
            **_faulty_kwargs(),
        )
        victim.run()
        journal.close()
        snapshots = [
            record["payload"]
            for record in read_journal(path).records
            if record["record"] == "snapshot"
        ]
        tables = [
            snapshot[name]
            for snapshot in snapshots
            for name in ("waiting", "active")
        ]
        assert any(snapshot["waiting"]["query_id"] for snapshot in snapshots)
        assert any(any(table["n_pending"]) for table in tables)
        assert not any(
            "rng" in column for table in tables for column in table
        )
        assert snapshots[-1]["selector_rng"] == (
            victim.selector_rng.bit_generator.state
        )

    def test_corrupt_selector_stream_state_raises_typed_error(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with SchedulerJournal.create(path) as journal:
            _scheduler(journal=journal)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        assert record["record"] == "snapshot"
        record["payload"]["selector_rng"] = {"state": 0}
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        with pytest.raises(JournalCorruptError, match="RNG state"):
            recover_scheduler(path, resume_journal=False)


class TestSnapshotSize:
    @staticmethod
    def _run(tmp_path, n_queries):
        path = tmp_path / f"burst-{n_queries}.jsonl"
        with SchedulerJournal.create(path) as journal:
            MaxScheduler(
                _specs(workload="burst", seed=3, n_queries=n_queries),
                mturk_car_latency(),
                seed=3,
                journal=journal,
            ).run()
        lines = path.read_text(encoding="utf-8").splitlines()
        snapshots = [
            line for line in lines if json.loads(line)["record"] == "snapshot"
        ]
        results = [
            query_id
            for line in lines
            if json.loads(line)["record"] == "results"
            for query_id in json.loads(line)["payload"]["query_id"]
        ]
        return snapshots, results

    def test_snapshot_counts_the_backlog_and_the_results(self, tmp_path):
        snapshots, results = self._run(tmp_path, 40)
        first = json.loads(snapshots[0])["payload"]
        last = json.loads(snapshots[-1])["payload"]
        assert (first["backlog"], first["results"]) == (40, 0)
        assert (last["backlog"], last["results"]) == (0, 40)
        assert len(results) == 40

    def test_last_snapshot_does_not_grow_with_finished_queries(
        self, tmp_path
    ):
        small_snapshots, small_results = self._run(tmp_path, 40)
        large_snapshots, large_results = self._run(tmp_path, 160)
        assert len(large_results) == 4 * len(small_results)
        small, large = len(small_snapshots[-1]), len(large_snapshots[-1])
        assert large - small < 0.05 * small

    def test_last_snapshot_does_not_grow_with_the_flight_ring(self, tmp_path):
        # The flight ring is rebuilt from tick and alert records, so its
        # capacity does not reach the snapshot.
        held, lengths = [], []
        for ring in (8, 4096):
            path = tmp_path / f"ring-{ring}.jsonl"
            slo = dataclasses.replace(default_slo_config(), ring=ring)
            config = ServiceConfig(max_active_queries=4, slo=slo)
            with SchedulerJournal.create(path) as journal:
                scheduler = _scheduler(
                    journal=journal, workload="burst", seed=3, config=config
                )
                scheduler.run()
            held.append(len(scheduler.flight))
            snapshots = [
                line
                for line in path.read_text(encoding="utf-8").splitlines()
                if json.loads(line)["record"] == "snapshot"
            ]
            lengths.append(len(snapshots[-1]))
        assert held[0] == 8 < held[1]
        assert lengths[0] == lengths[1]
