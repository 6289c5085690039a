"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tDP" in out
        assert "Tournament" in out
        assert "fig15" in out


class TestAllocate:
    def test_default_workload(self, capsys):
        assert main(["allocate"]) == 0
        out = capsys.readouterr().out
        assert "(2250, 1225)" in out
        assert "(500, 50, 1)" in out

    def test_heuristic_allocator(self, capsys):
        assert main(
            ["allocate", "--elements", "24", "--budget", "51", "--allocator", "HE"]
        ) == 0
        assert "(12, 6, 33)" in capsys.readouterr().out

    def test_power_law_latency(self, capsys):
        assert main(
            [
                "allocate",
                "--elements",
                "100",
                "--budget",
                "2000",
                "--exponent",
                "2.0",
            ]
        ) == 0
        assert "questions used" in capsys.readouterr().out

    def test_infeasible_budget_is_reported(self, capsys):
        assert main(["allocate", "--elements", "100", "--budget", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_allocator(self, capsys):
        assert main(["allocate", "--allocator", "magic"]) == 2
        assert "unknown allocator" in capsys.readouterr().err


class TestSolve:
    def test_end_to_end(self, capsys):
        assert main(
            [
                "solve",
                "--elements",
                "30",
                "--budget",
                "120",
                "--seed",
                "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "MAX=" in out
        assert "correct" in out

    def test_ct25_selector(self, capsys):
        assert main(
            [
                "solve",
                "--elements",
                "30",
                "--budget",
                "200",
                "--selector",
                "CT25",
                "--allocator",
                "uHF",
            ]
        ) == 0
        assert "round" in capsys.readouterr().out


class TestAdaptiveSolve:
    def test_adaptive_flag(self, capsys):
        assert main(
            ["solve", "--elements", "30", "--budget", "120", "--adaptive"]
        ) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out
        assert "MAX=" in out


class TestSimulate:
    def test_aggregate_output(self, capsys):
        assert main(
            [
                "simulate",
                "--elements",
                "20",
                "--budget",
                "100",
                "--runs",
                "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "singleton rate:       100%" in out
        assert "accuracy:             100%" in out

    def test_ct25_combo(self, capsys):
        assert main(
            [
                "simulate",
                "--elements",
                "20",
                "--budget",
                "100",
                "--runs",
                "3",
                "--allocator",
                "uHF",
                "--selector",
                "CT25",
            ]
        ) == 0
        assert "mean latency" in capsys.readouterr().out


class TestServe:
    def test_smoke_workload(self, capsys):
        assert main(["serve", "--workload", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "workload smoke (6 queries)" in out
        assert "plan cache:" in out
        assert "latency p50/p95:" in out

    def test_per_query_listing(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--per-query"]
        ) == 0
        assert "query 0:" in capsys.readouterr().out

    def test_queries_override_and_policy(self, capsys):
        assert main(
            [
                "serve",
                "--workload",
                "steady",
                "--queries",
                "5",
                "--scheduling",
                "priority",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "(5 queries)" in out
        assert "policy priority" in out

    def test_faulted_serve_defaults_to_retries(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--faults", "lossy"]
        ) == 0
        out = capsys.readouterr().out
        assert "faults=lossy" in out
        assert "retry x3" in out

    def test_serve_runs_are_reproducible(self, capsys):
        assert main(["serve", "--workload", "smoke", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--workload", "smoke", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_workload(self, capsys):
        assert main(["serve", "--workload", "tsunami"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_shed_overload(self, capsys):
        assert main(
            [
                "serve",
                "--workload",
                "burst",
                "--queries",
                "10",
                "--max-active",
                "1",
                "--queue-depth",
                "1",
                "--overload",
                "shed",
            ]
        ) == 0
        assert "8 shed" in capsys.readouterr().out


class TestExperiment:
    def test_small_fig15(self, capsys):
        assert main(["experiment", "fig15", "--scale", "small"]) == 0
        assert "Running time of tDP" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        assert main(
            ["experiment", "fig15", "--scale", "small", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["name"] == "fig15"

    def test_markdown_format(self, capsys):
        assert main(
            ["experiment", "fig15", "--scale", "small", "--format", "markdown"]
        ) == 0
        assert "### fig15" in capsys.readouterr().out

    def test_csv_format(self, capsys):
        assert main(
            ["experiment", "fig15", "--scale", "small", "--format", "csv"]
        ) == 0
        assert capsys.readouterr().out.startswith("c0,")

    def test_plot_flag(self, capsys):
        assert main(
            ["experiment", "fig15", "--scale", "small", "--plot"]
        ) == 0
        out = capsys.readouterr().out
        assert "x: c0" in out or "#" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        assert main(
            [
                "experiment",
                "fig15",
                "--scale",
                "small",
                "--format",
                "json",
                "--output",
                str(target),
            ]
        ) == 0
        assert "wrote 1 table(s)" in capsys.readouterr().out
        assert target.exists()

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "fig99", "--scale", "small"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_scale(self, capsys):
        assert main(["experiment", "fig15", "--scale", "huge"]) == 2
        assert "unknown scale" in capsys.readouterr().err


class TestArgparse:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestServeJournal:
    def test_journaled_serve_writes_a_journal(self, capsys, tmp_path):
        journal = tmp_path / "serve.jsonl"
        assert main(
            ["serve", "--workload", "smoke", "--journal", str(journal)]
        ) == 0
        out = capsys.readouterr().out
        assert "journal:" in out
        assert journal.exists()
        assert journal.stat().st_size > 0

    def test_resume_finishes_and_matches_the_original(self, capsys, tmp_path):
        journal = tmp_path / "serve.jsonl"
        assert main(
            ["serve", "--workload", "smoke", "--seed", "4", "--journal",
             str(journal)]
        ) == 0
        original = capsys.readouterr().out
        assert main(["serve", "--journal", str(journal), "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "resumed" in resumed
        # The report block (everything from "queries:") must be identical.
        tail = original[original.index("queries:"):]
        assert tail in resumed

    def test_resume_requires_journal_path(self, capsys):
        assert main(["serve", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_resume_of_missing_journal_is_a_clean_error(self, capsys, tmp_path):
        assert main(
            ["serve", "--resume", "--journal", str(tmp_path / "absent.jsonl")]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_breaker_flag_accepted(self, capsys):
        assert main(
            [
                "serve",
                "--workload",
                "smoke",
                "--seed",
                "11",
                "--faults",
                "sustained",
                "--breaker",
                "--breaker-threshold",
                "2",
            ]
        ) == 0
        assert "6 completed" in capsys.readouterr().out


class TestChaos:
    def test_explicit_crash_points(self, capsys):
        assert main(
            ["chaos", "--workload", "smoke", "--seed", "7",
             "--crash-points", "0,1"]
        ) == 0
        out = capsys.readouterr().out
        assert "kill after step" in out
        assert "all recoveries bit-identical" in out

    def test_seeded_crashes_under_faults(self, capsys):
        assert main(
            ["chaos", "--workload", "smoke", "--seed", "7", "--faults",
             "outages", "--crashes", "2"]
        ) == 0
        assert "all recoveries bit-identical" in capsys.readouterr().out

    def test_journal_dir_keeps_the_journals(self, capsys, tmp_path):
        assert main(
            ["chaos", "--workload", "smoke", "--crash-points", "1",
             "--journal-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "crash-1.jsonl").exists()

    def test_malformed_crash_points_rejected(self, capsys):
        assert main(["chaos", "--crash-points", "1,x"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_sweep_flag(self, capsys):
        assert main(
            ["chaos", "--workload", "smoke", "--seed", "7", "--sweep"]
        ) == 0
        assert "all recoveries bit-identical" in capsys.readouterr().out


class TestDashboard:
    def test_headless_dashboard_prints_final_frame(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--seed", "3", "--dashboard"]
        ) == 0
        out = capsys.readouterr().out
        assert "final: tick=" in out
        assert "breaker=" in out
        assert "\x1b[" not in out  # captured stream is not a TTY

    def test_serve_and_top_agree_on_final_counters(self, capsys, tmp_path):
        journal = tmp_path / "serve.jsonl"
        assert main(
            ["serve", "--workload", "smoke", "--seed", "3", "--dashboard",
             "--journal", str(journal)]
        ) == 0
        serve_out = capsys.readouterr().out
        assert main(["top", str(journal)]) == 0
        top_out = capsys.readouterr().out
        serve_final = [l for l in serve_out.splitlines() if l.startswith("final:")]
        top_final = [l for l in top_out.splitlines() if l.startswith("final:")]
        assert len(serve_final) == len(top_final) == 1
        assert serve_final == top_final

    def test_top_follow_stops_at_complete_record(self, capsys, tmp_path):
        journal = tmp_path / "serve.jsonl"
        assert main(
            ["serve", "--workload", "smoke", "--journal", str(journal)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["top", str(journal), "--follow", "--poll", "0.01",
             "--timeout", "5"]
        ) == 0
        assert "final: tick=" in capsys.readouterr().out

    def test_top_missing_journal_is_a_clean_error(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "absent.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestMetricsExport:
    def test_serve_metrics_out_writes_openmetrics(self, capsys, tmp_path):
        out_path = tmp_path / "metrics.prom"
        assert main(
            ["serve", "--workload", "smoke", "--metrics-out", str(out_path)]
        ) == 0
        text = out_path.read_text(encoding="utf-8")
        assert text.endswith("# EOF\n")
        assert "service_queue_depth" in text

    def test_metrics_json_then_export(self, capsys, tmp_path):
        snapshot = tmp_path / "metrics.json"
        assert main(
            ["serve", "--workload", "smoke", "--metrics-json", str(snapshot)]
        ) == 0
        assert "wrote metrics snapshot" in capsys.readouterr().out
        assert main(["metrics-export", str(snapshot)]) == 0
        exposition = capsys.readouterr().out
        assert exposition.endswith("# EOF\n")
        assert "_total" in exposition

    def test_export_to_file(self, capsys, tmp_path):
        snapshot = tmp_path / "metrics.json"
        assert main(
            ["solve", "--elements", "20", "--budget", "300", "--metrics-json",
             str(snapshot)]
        ) == 0
        capsys.readouterr()
        out_path = tmp_path / "metrics.prom"
        assert main(
            ["metrics-export", str(snapshot), "--output", str(out_path)]
        ) == 0
        assert "wrote OpenMetrics exposition" in capsys.readouterr().out
        assert out_path.read_text(encoding="utf-8").endswith("# EOF\n")

    def test_non_snapshot_file_is_a_clean_error(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"kind": "other"}', encoding="utf-8")
        assert main(["metrics-export", str(bogus)]) == 2
        assert "not a metrics snapshot" in capsys.readouterr().err


class TestStreamTrace:
    def test_streamed_trace_parses(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["solve", "--elements", "20", "--budget", "300", "--trace",
             str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace event(s)" in out
        from repro.obs.export import read_jsonl

        assert len(read_jsonl(trace)) > 0

    def test_unwritable_trace_path_fails_before_the_run(self, capsys, tmp_path):
        trace = tmp_path / "no-such-dir" / "trace.jsonl"
        assert main(["serve", "--workload", "smoke", "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert f"cannot write trace to {trace}" in captured.err
        assert captured.out == ""  # no query ran, nothing was reported
        assert not trace.parent.exists()


class TestBenchCheck:
    @staticmethod
    def _times_file(tmp_path, name, times):
        import json as _json

        path = tmp_path / name
        path.write_text(
            _json.dumps(
                {
                    "schema": 1,
                    "benches": {
                        bench: {"wall_seconds": seconds}
                        for bench, seconds in times.items()
                    },
                }
            ),
            encoding="utf-8",
        )
        return path

    def test_identical_baselines_pass(self, capsys, tmp_path):
        baseline = self._times_file(tmp_path, "base.json", {"b": 1.0})
        current = self._times_file(tmp_path, "cur.json", {"b": 1.0})
        assert main(["bench-check", str(baseline), str(current)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_twofold_slowdown_fails(self, capsys, tmp_path):
        baseline = self._times_file(tmp_path, "base.json", {"b": 1.0})
        current = self._times_file(tmp_path, "cur.json", {"b": 2.0})
        assert main(["bench-check", str(baseline), str(current)]) == 1
        out = capsys.readouterr().out
        assert "regression" in out
        assert "FAIL" in out

    def test_warn_only_reports_but_passes(self, capsys, tmp_path):
        baseline = self._times_file(tmp_path, "base.json", {"b": 1.0})
        current = self._times_file(tmp_path, "cur.json", {"b": 2.0})
        assert main(
            ["bench-check", str(baseline), str(current), "--warn-only"]
        ) == 0
        assert "warn-only" in capsys.readouterr().out

    def test_new_and_missing_benches_never_fail(self, capsys, tmp_path):
        baseline = self._times_file(tmp_path, "base.json", {"gone": 1.0})
        current = self._times_file(tmp_path, "cur.json", {"new": 1.0})
        assert main(["bench-check", str(baseline), str(current)]) == 0
        out = capsys.readouterr().out
        assert "new" in out
        assert "missing" in out

    def test_checks_against_committed_baseline_shape(self, capsys, tmp_path):
        # The CI warn-only step feeds the committed baseline file; it must
        # stay loadable.
        from pathlib import Path

        committed = Path(__file__).parent.parent / "benchmarks" / "baseline.json"
        current = self._times_file(tmp_path, "cur.json", {"x": 1.0})
        assert main(
            ["bench-check", str(committed), str(current), "--warn-only"]
        ) == 0

    def test_filter_restricts_the_gate(self, capsys, tmp_path):
        baseline = self._times_file(
            tmp_path, "base.json", {"solver": 1.0, "noisy": 1.0}
        )
        current = self._times_file(
            tmp_path, "cur.json", {"solver": 1.0, "noisy": 9.0}
        )
        # The noisy bench regressed badly, but the gate only watches
        # the solver bench.
        assert main(
            ["bench-check", str(baseline), str(current), "--filter", "solver"]
        ) == 0
        assert main(
            ["bench-check", str(baseline), str(current), "--filter", "solver,noisy"]
        ) == 1

    def test_filter_matching_nothing_is_a_clean_error(self, capsys, tmp_path):
        baseline = self._times_file(tmp_path, "base.json", {"b": 1.0})
        current = self._times_file(tmp_path, "cur.json", {"b": 1.0})
        assert main(
            ["bench-check", str(baseline), str(current), "--filter", "zzz"]
        ) == 2
        assert "zzz" in capsys.readouterr().err


class TestBenchHistory:
    def test_appends_and_renders(self, capsys, tmp_path):
        current = TestBenchCheck._times_file(tmp_path, "cur.json", {"b": 1.0})
        history = tmp_path / "history.jsonl"
        assert main(
            ["bench-history", str(current), "--history", str(history),
             "--baseline", "-"]
        ) == 0
        assert main(
            ["bench-history", str(current), "--history", str(history),
             "--baseline", "-"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert history.read_text(encoding="utf-8").count("\n") == 2

    def test_no_append_leaves_history_untouched(self, capsys, tmp_path):
        current = TestBenchCheck._times_file(tmp_path, "cur.json", {"b": 1.0})
        history = tmp_path / "history.jsonl"
        main(["bench-history", str(current), "--history", str(history),
              "--baseline", "-"])
        capsys.readouterr()
        assert main(
            ["bench-history", str(current), "--history", str(history),
             "--baseline", "-", "--no-append"]
        ) == 0
        assert "1 run(s)" in capsys.readouterr().out
        assert history.read_text(encoding="utf-8").count("\n") == 1

    def test_flags_regression_against_baseline(self, capsys, tmp_path):
        baseline = TestBenchCheck._times_file(tmp_path, "base.json", {"b": 1.0})
        current = TestBenchCheck._times_file(tmp_path, "cur.json", {"b": 4.0})
        history = tmp_path / "history.jsonl"
        assert main(
            ["bench-history", str(current), "--history", str(history),
             "--baseline", str(baseline)]
        ) == 0
        assert "4.00x !" in capsys.readouterr().out


class TestExplain:
    @staticmethod
    def _trace(tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["serve", "--workload", "smoke", "--trace", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    def test_waterfalls_for_all_queries(self, capsys, tmp_path):
        trace = self._trace(tmp_path, capsys)
        assert main(["explain", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "query 0" in out
        assert "round_post" in out

    def test_single_query_with_tree(self, capsys, tmp_path):
        trace = self._trace(tmp_path, capsys)
        assert main(["explain", "0", "--trace", str(trace), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "query <q0>" in out

    def test_input_trace_is_not_overwritten(self, capsys, tmp_path):
        # `explain` consumes --trace; it must never be routed through the
        # observability wrapper, which would treat it as an output path.
        trace = self._trace(tmp_path, capsys)
        before = trace.read_text(encoding="utf-8")
        main(["explain", "--trace", str(trace)])
        assert trace.read_text(encoding="utf-8") == before

    def test_unknown_query_id_is_a_clean_error(self, capsys, tmp_path):
        trace = self._trace(tmp_path, capsys)
        assert main(["explain", "999", "--trace", str(trace)]) == 2
        assert "999" in capsys.readouterr().err

    def test_missing_trace_file_is_a_clean_error(self, capsys, tmp_path):
        assert main(
            ["explain", "--trace", str(tmp_path / "absent.jsonl")]
        ) == 2
        assert "not found" in capsys.readouterr().err

    def test_trace_without_spans_exits_one(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["explain", "--trace", str(path)]) == 1
        assert "no query spans" in capsys.readouterr().out


class TestProfile:
    def test_profiles_both_solvers(self, capsys):
        assert main(
            ["profile", "--elements", "30", "--budget", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "frontier.solves" in out
        assert "memo.solves" in out
        assert "frontier.rows" in out

    def test_repeat_builds_the_rows_once(self, capsys):
        assert main(
            ["profile", "--elements", "30", "--budget", "150",
             "--solver", "frontier", "--repeat", "3"]
        ) == 0
        counts = dict(
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("frontier.")
        )
        assert counts["frontier.solves"] == "3"
        assert counts["frontier.rows"] == "29"  # rows 2..c0, built once
        assert "memo.solves" not in counts

    def test_repeat_must_be_positive(self, capsys):
        assert main(
            ["profile", "--elements", "30", "--budget", "150", "--repeat", "0"]
        ) == 2


class TestServeBackends:
    def test_preset_fleet_prints_fleet_table(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--backends", "trio"]
        ) == 0
        out = capsys.readouterr().out
        assert "backends: trio (3 backend(s)), routing latency" in out
        assert "fleet:" in out
        for name in ("fast", "balanced", "cheap"):
            assert name in out

    def test_routing_policy_flag(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--backends", "trio",
             "--routing", "weighted-price"]
        ) == 0
        assert "routing weighted-price" in capsys.readouterr().out

    def test_spec_file_fleet(self, capsys, tmp_path):
        import json

        from repro.crowd.multibackend import (
            backend_preset_by_name,
            backend_spec_to_dict,
        )

        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps(
                [backend_spec_to_dict(s)
                 for s in backend_preset_by_name("duo")]
            ),
            encoding="utf-8",
        )
        assert main(
            ["serve", "--workload", "smoke", "--backends", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "boutique" in out
        assert "bulk" in out

    def test_backends_and_faults_conflict(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--backends", "trio",
             "--faults", "lossy"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_backends_and_breaker_conflict(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--backends", "trio",
             "--breaker"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_rejected_fleet_leaves_the_journal_untouched(
        self, capsys, tmp_path
    ):
        journal = tmp_path / "keep.jsonl"
        journal.write_text("precious\n", encoding="utf-8")
        assert main(
            ["serve", "--workload", "smoke", "--backends", "trio",
             "--breaker", "--journal", str(journal)]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err
        assert journal.read_text(encoding="utf-8") == "precious\n"

    def test_unknown_preset_is_a_clean_error(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--backends", "nonesuch"]
        ) == 2
        assert "unknown backend preset" in capsys.readouterr().err

    def test_routed_serve_is_reproducible(self, capsys):
        argv = ["serve", "--workload", "smoke", "--seed", "9",
                "--backends", "outage-trio"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestChaosScenario:
    def test_named_scenario_runs(self, capsys):
        assert main(
            ["chaos", "--scenario", "multibackend-outage", "--crashes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "all recoveries bit-identical" in out
        assert "backends=fast,balanced,cheap" in out

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["chaos", "--scenario", "nonesuch"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_scenario_conflicts_with_fault_flags(self, capsys):
        assert main(
            ["chaos", "--scenario", "multibackend-outage",
             "--faults", "outages"]
        ) == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestServeDeadlines:
    def test_default_deadline_prints_attainment(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--default-deadline", "1e9"]
        ) == 0
        out = capsys.readouterr().out
        assert "deadlines:" in out
        assert "met" in out

    def test_tight_deadline_degrades(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--default-deadline", "10"]
        ) == 0
        assert "degraded" in capsys.readouterr().out

    def test_hedge_requires_a_fleet(self, capsys):
        assert main(
            ["serve", "--workload", "smoke", "--hedge"]
        ) == 2
        assert "--hedge requires" in capsys.readouterr().err

    def test_full_robustness_stack(self, capsys):
        assert main(
            ["serve", "--workload", "steady", "--queries", "12",
             "--backends", "outage-trio", "--routing", "least-loaded",
             "--default-deadline", "1800", "--hedge", "--brownout",
             "--brownout-threshold", "1000", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "deadlines:" in out
        assert "hedging:" in out
        assert "brownout: level" in out

    def test_hedge_after_fires_mirrored_rounds(self, capsys):
        assert main(
            ["serve", "--workload", "steady", "--queries", "12",
             "--backends", "outage-trio", "--routing", "least-loaded",
             "--hedge-after", "250", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "hedging:" in out
        assert "0 hedged round(s)" not in out

    def test_deadline_serve_is_reproducible(self, capsys):
        argv = ["serve", "--workload", "steady", "--queries", "12",
                "--backends", "outage-trio", "--routing", "least-loaded",
                "--default-deadline", "1800", "--hedge", "--brownout",
                "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestExplainDeadlines:
    def test_breaches_and_hedges_render(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["serve", "--workload", "steady", "--queries", "12",
             "--backends", "outage-trio", "--routing", "least-loaded",
             "--default-deadline", "600", "--hedge-after", "250",
             "--seed", "7", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["explain", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "deadline breaches:" in out
        assert "hedged rounds:" in out

    def test_breach_free_trace_stays_quiet(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["serve", "--workload", "smoke", "--default-deadline", "1e9",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["explain", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "deadline breaches:" not in out


class TestChaosDeadlineStorm:
    def test_deadline_storm_scenario_runs(self, capsys):
        assert main(
            ["chaos", "--scenario", "deadline-storm", "--crashes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "all recoveries bit-identical" in out
        assert "backends=fast,balanced,cheap" in out


class TestHealthDiagnose:
    def _armed_journal(self, capsys, tmp_path):
        journal = tmp_path / "serve.jsonl"
        assert main(
            ["serve", "--workload", "steady", "--slo",
             "--journal", str(journal)]
        ) == 0
        out = capsys.readouterr().out
        assert "health:" in out
        assert "slo: health" in out
        return journal

    def test_health_reads_an_armed_journal(self, capsys, tmp_path):
        journal = self._armed_journal(capsys, tmp_path)
        assert main(["health", str(journal)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("health: ")
        assert "alerts:" in out
        assert "tick(s)" in out

    def test_fail_degraded_passes_a_healthy_run(self, capsys, tmp_path):
        journal = self._armed_journal(capsys, tmp_path)
        assert main(["health", str(journal), "--fail-degraded"]) == 0

    def test_health_without_slo_reports_unarmed(self, capsys, tmp_path):
        journal = tmp_path / "serve.jsonl"
        assert main(
            ["serve", "--workload", "smoke", "--journal", str(journal)]
        ) == 0
        capsys.readouterr()
        assert main(["health", str(journal)]) == 0
        assert "no SLO engine armed" in capsys.readouterr().out

    def test_health_of_missing_journal_is_a_clean_error(
        self, capsys, tmp_path
    ):
        assert main(["health", str(tmp_path / "absent.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_diagnose_writes_a_validated_bundle(self, capsys, tmp_path):
        from repro.obs.flight import validate_bundle

        journal = self._armed_journal(capsys, tmp_path)
        bundle = tmp_path / "bundle"
        assert main(
            ["diagnose", str(journal), "--output", str(bundle)]
        ) == 0
        assert "wrote debug bundle" in capsys.readouterr().out
        manifest = validate_bundle(bundle)
        assert manifest["reason"] == "diagnose"
        assert "ring.jsonl" in manifest["files"]
        assert "state.json" in manifest["files"]
        assert "metrics.prom" in manifest["files"]

    def test_diagnose_without_slo_is_a_clean_error(self, capsys, tmp_path):
        journal = tmp_path / "serve.jsonl"
        assert main(
            ["serve", "--workload", "smoke", "--journal", str(journal)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["diagnose", str(journal), "--output", str(tmp_path / "b")]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--slo" in err

    def test_slo_bundle_dir_implies_slo(self, capsys, tmp_path):
        assert main(
            ["serve", "--workload", "smoke",
             "--slo-bundle-dir", str(tmp_path / "bundles")]
        ) == 0
        assert "slo: health" in capsys.readouterr().out


class TestChaosAlertStorm:
    def test_alert_storm_scenario_runs(self, capsys):
        assert main(
            ["chaos", "--scenario", "alert-storm", "--crashes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "all recoveries bit-identical" in out
