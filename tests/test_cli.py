"""Tests for the command-line interface (repro.cli)."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults_to_quick(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.command == "run" and not args.full

    def test_run_full_flag(self):
        args = build_parser().parse_args(["run", "E1", "--full"])
        assert args.full

    def test_quick_and_full_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--quick", "--full"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "--port", "7077"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E10" in out and "Theorem 3.1" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "E8", "--quick", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "E8" in out and "completed" in out

    def test_run_with_csv_export(self, tmp_path, capsys):
        csv_dir = tmp_path / "tables"
        assert main(["run", "E8", "--seed", "7", "--csv", str(csv_dir)]) == 0
        files = list(csv_dir.glob("e8_*.csv"))
        assert files

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "E42"])

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Treasure" in out
        # Every row reports a median and a Wilson-bounded success rate,
        # never a mean that one unbounded harmonic excursion can set.
        assert out.count("median=") == 3 and "mean" not in out
        assert out.count("success=") == 3
        # Theorem 5.1's premise k > alpha * D^delta is printed, and not
        # met at the demo's k = 16 (alpha * 64^0.5 ~ 695).
        assert "premise k > alpha*D^delta: k=16 vs 695" in out
        assert "NOT met" in out


class TestSweepCommand:
    def test_parse_sweep_arguments(self):
        args = build_parser().parse_args(
            [
                "sweep", "uniform",
                "--distances", "16,32",
                "--ks", "1,4",
                "--param", "eps=0.5",
                "--workers", "2",
                "--no-cache",
            ]
        )
        assert args.command == "sweep"
        assert args.algorithm == "uniform"
        assert args.param == ["eps=0.5"]
        assert args.workers == 2 and args.no_cache

    def test_sweep_prints_cell_table(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8,16",
                    "--ks", "1,4",
                    "--trials", "10",
                    "--seed", "3",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep nonuniform" in out and "ratio" in out
        assert "computed" in out
        # A second identical invocation is served from the cache.
        assert (
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8,16",
                    "--ks", "1,4",
                    "--trials", "10",
                    "--seed", "3",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "(cache)" in capsys.readouterr().out

    def test_sweep_csv_export(self, tmp_path, capsys):
        csv_file = tmp_path / "cells.csv"
        assert (
            main(
                [
                    "sweep", "harmonic",
                    "--param", "delta=0.5",
                    "--distances", "8",
                    "--ks", "4",
                    "--trials", "10",
                    "--no-cache",
                    "--csv", str(csv_file),
                ]
            )
            == 0
        )
        assert csv_file.exists()

    def test_sweep_rejects_bad_param(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "uniform",
                    "--distances", "8",
                    "--ks", "1",
                    "--param", "eps",
                ]
            )

    def test_sweep_rejects_bad_distances(self):
        with pytest.raises(SystemExit):
            main(["sweep", "uniform", "--distances", "8,x", "--ks", "1"])

    def test_sweep_rejects_resume_without_cache(self, tmp_path, capsys):
        # --resume reads the journal in the cache, so with --no-cache it
        # would silently run cold; it is an error instead.
        with pytest.raises(SystemExit) as exit_info:
            main([
                "sweep", "nonuniform", "--distances", "8", "--ks", "1",
                "--trials", "10", "--cache-dir", str(tmp_path),
                "--resume", "--no-cache",
            ])
        assert "--no-cache" in str(exit_info.value.code)
        assert os.listdir(tmp_path) == []

    def test_sweep_rejects_repeated_axis_values(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "sweep", "nonuniform", "--distances", "8", "--ks", "1,1",
                "--trials", "10", "--cache-dir", str(tmp_path),
            ])
        assert "ks must not repeat" in str(exit_info.value.code)
        assert os.listdir(tmp_path) == []

    def test_sweep_rejects_bad_trials_cleanly(self):
        with pytest.raises(SystemExit):
            main(["sweep", "uniform", "--distances", "8", "--ks", "1", "--trials", "0"])


class TestWorldFlags:
    def test_parse_world_arguments(self):
        args = build_parser().parse_args(
            [
                "sweep", "grid_belief",
                "--distances", "16",
                "--ks", "4",
                "--horizon", "6144",
                "--n-targets", "2",
                "--target-motion", "walk",
                "--motion-rate", "0.1",
                "--arrival-hazard", "0.01",
            ]
        )
        assert args.n_targets == 2
        assert args.target_motion == "walk"
        assert args.motion_rate == 0.1
        assert args.arrival_hazard == 0.01
        assert args.target_detection_prob == 1.0

    def test_dynamic_sweep_prints_world_note(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8",
                    "--ks", "2",
                    "--trials", "8",
                    "--seed", "3",
                    "--horizon", "1536",
                    "--n-targets", "2",
                    "--target-motion", "drift",
                    "--motion-rate", "0.05",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "world: n_targets=2, motion=drift(0.05)" in out

    def test_default_world_flags_leave_spec_static(self, tmp_path, capsys):
        # All-default world flags canonicalise to no world at all: the
        # printed table must not claim a world and the spec (hence the
        # cache key) is the historical static one.
        assert (
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8",
                    "--ks", "2",
                    "--trials", "8",
                    "--seed", "3",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "world:" not in capsys.readouterr().out

    def test_inconsistent_world_flags_exit_cleanly(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8",
                    "--ks", "2",
                    "--horizon", "512",
                    "--target-motion", "walk",  # needs --motion-rate
                ]
            )

    def test_dynamic_world_without_horizon_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8",
                    "--ks", "2",
                    "--n-targets", "2",
                ]
            )


class TestAdaptiveFlags:
    def test_parse_budget_arguments(self):
        args = build_parser().parse_args(
            [
                "sweep", "uniform",
                "--distances", "8",
                "--ks", "1",
                "--target-rel-ci", "0.05",
                "--max-trials", "512",
                "--min-trials", "16",
                "--progress",
            ]
        )
        assert args.target_rel_ci == 0.05
        assert args.max_trials == 512 and args.min_trials == 16
        assert args.progress

    def test_run_accepts_budget_arguments(self):
        args = build_parser().parse_args(
            ["run", "E1", "--target-rel-ci", "0.1", "--progress"]
        )
        assert args.target_rel_ci == 0.1 and args.progress

    def test_max_trials_without_target_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8", "--ks", "1",
                    "--max-trials", "100", "--no-cache",
                ]
            )

    def test_negative_target_rejected(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8", "--ks", "1",
                    "--target-rel-ci", "-0.5", "--no-cache",
                ]
            )

    def test_adaptive_sweep_reports_allocation(self, tmp_path, capsys):
        assert (
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8", "--ks", "4",
                    "--seed", "3",
                    "--target-rel-ci", "0.5",
                    "--min-trials", "32",
                    "--max-trials", "64",
                    "--cache-dir", str(tmp_path),
                    "--progress",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "adaptive allocation" in out
        assert "target_rel_ci" in out
        assert "cell D=8 k=4" in out  # --progress line
        assert "ci95" in out  # achieved precision column

    def test_run_warns_when_experiment_ignores_budget(self, tmp_path, capsys):
        import os

        os.environ["REPRO_SWEEP_CACHE"] = str(tmp_path)
        try:
            # E8 has no D x k sweep, hence no adaptive allocation: the
            # precision target must be loudly ignored, not silently.
            assert (
                main(
                    [
                        "run", "E8", "--seed", "7",
                        "--target-rel-ci", "0.5", "--progress",
                    ]
                )
                == 0
            )
        finally:
            del os.environ["REPRO_SWEEP_CACHE"]
        out = capsys.readouterr().out
        assert "no adaptive allocation" in out
        assert "--target-rel-ci/--progress ignored" in out

    def test_sweep_censored_rows_are_flagged(self, tmp_path, capsys):
        # A horizon-capped walker sweep censors some trials: the table
        # must show the censored fraction and explain what ci95 brackets.
        assert (
            main(
                [
                    "sweep", "random_walk",
                    "--distances", "8", "--ks", "2",
                    "--trials", "40", "--seed", "3",
                    "--horizon", "200",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "censored" in out
        assert "ci95 brackets the censoring-aware mean" in out

    def test_run_with_adaptive_budget(self, tmp_path, capsys):
        import os

        os.environ["REPRO_SWEEP_CACHE"] = str(tmp_path)
        try:
            assert (
                main(
                    [
                        "run", "E1", "--seed", "9",
                        "--target-rel-ci", "0.9",
                        "--min-trials", "32", "--max-trials", "64",
                        "--progress",
                    ]
                )
                == 0
            )
        finally:
            del os.environ["REPRO_SWEEP_CACHE"]
        out = capsys.readouterr().out
        assert "adaptive allocation" in out
        assert "cell D=" in out


class TestCacheCommand:
    def _populate(self, tmp_path):
        assert (
            main(
                [
                    "sweep", "nonuniform",
                    "--distances", "8", "--ks", "1",
                    "--trials", "10", "--seed", "3",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )

    def test_cache_path(self, tmp_path, capsys):
        assert main(["cache", "path", "--cache-dir", str(tmp_path)]) == 0
        assert str(tmp_path) in capsys.readouterr().out

    def test_cache_list_shows_entries(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep_nonuniform_" in out
        assert "nonuniform" in out and "size_kb" in out

    def test_cache_list_names_journal_and_unreadable(self, tmp_path, capsys):
        import numpy as np

        from repro.sweep import SweepSpec
        from repro.sweep.cache import journal_path, save_journal

        spec = SweepSpec(
            algorithm="nonuniform", distances=(8,), ks=(1,), trials=4, seed=3
        )
        times = np.arange(4, dtype=np.float64)
        assert save_journal(
            spec, journal_path(spec, str(tmp_path)), {(8, 1): times}
        )
        (tmp_path / "sweep_nonuniform_broken.npz").write_bytes(b"not a zip")
        assert main(["cache", "list", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines() if ".npz" in line]
        assert sorted(row[1] for row in rows) == ["journal", "unreadable"]
        journal_row = next(row for row in rows if row[1] == "journal")
        assert journal_row[3:5] == ["1", "4"]
        for kind in ("sweep", "blocks", "journal", "unreadable"):
            assert f"{kind} = " in " ".join(out.split())

    def test_cache_list_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "list", "--cache-dir", str(tmp_path)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_prune_dry_run_keeps_files(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert (
            main(
                [
                    "cache", "prune", "--older-than", "0",
                    "--cache-dir", str(tmp_path), "--dry-run",
                ]
            )
            == 0
        )
        assert "would prune 1 entries" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_cache_prune_removes_old_entries(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert (
            main(
                [
                    "cache", "prune", "--older-than", "0",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "pruned 1 entries" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_cache_prune_respects_age_cutoff(self, tmp_path, capsys):
        self._populate(tmp_path)
        capsys.readouterr()
        assert (
            main(
                [
                    "cache", "prune", "--older-than", "30",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "pruned 0 entries" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])


class TestExecutorFlags:
    def test_workers_accepts_auto(self):
        args = build_parser().parse_args(["run", "E1", "--workers", "auto"])
        assert args.workers == "auto"
        args = build_parser().parse_args(["run", "E1", "--workers", "3"])
        assert args.workers == 3

    def test_workers_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--workers", "many"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--workers", "-2"])

    def test_backend_choices(self):
        args = build_parser().parse_args(
            ["sweep", "nonuniform", "--distances", "8", "--ks", "1",
             "--backend", "process"]
        )
        assert args.backend == "process"
        for retired in ("quantum", "remote"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["run", "E1", "--backend", retired]
                )

    def test_sweep_with_explicit_backend_runs(self, capsys):
        assert (
            main(
                ["sweep", "nonuniform", "--distances", "8", "--ks", "1",
                 "--trials", "5", "--workers", "1", "--backend", "process",
                 "--no-cache"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sweep nonuniform" in out

    def test_run_shares_one_executor_across_experiments(self, monkeypatch):
        """The CLI builds exactly one executor for a multi-experiment run."""
        from repro.sweep import executor as executor_mod

        created = []
        original = executor_mod.make_executor

        def counting(*args, **kwargs):
            ex = original(*args, **kwargs)
            created.append(ex)
            return ex

        monkeypatch.setattr(
            "repro.sweep.executor.make_executor", counting
        )
        assert main(["run", "E1", "E9", "--quick", "--no-cache"]) == 0
        assert len(created) == 1


class TestTraceCommand:
    def _traced_sweep(self, tmp_path):
        trace_file = tmp_path / "sweep.trace.jsonl"
        assert (
            main(
                ["sweep", "nonuniform", "--distances", "8,16",
                 "--ks", "1,4", "--trials", "10", "--seed", "3",
                 "--no-cache", "--trace", str(trace_file)]
            )
            == 0
        )
        return trace_file

    def test_parse_trace_arguments(self):
        args = build_parser().parse_args(
            ["trace", "report", "t.jsonl", "--top", "5"]
        )
        assert args.command == "trace"
        assert args.trace_command == "report"
        assert args.file == "t.jsonl" and args.top == 5

    def test_sweep_trace_records_schema_valid_events(self, tmp_path, capsys):
        from repro.obs import read_trace, trace_metrics, validate_event

        trace_file = self._traced_sweep(tmp_path)
        capsys.readouterr()
        records = read_trace(str(trace_file))
        assert [p for r in records for p in validate_event(r)] == []
        assert trace_metrics(records) is not None  # scoped trace footer

    def test_trace_validate_and_report(self, tmp_path, capsys):
        trace_file = self._traced_sweep(tmp_path)
        capsys.readouterr()
        assert main(["trace", "validate", str(trace_file)]) == 0
        assert "all schema-valid" in capsys.readouterr().out
        assert main(["trace", "report", str(trace_file), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "worker utilization" in out
        assert "cells by submit-to-collect time" in out

    def test_trace_validate_flags_bad_events(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "bad.jsonl"
        trace_file.write_text(
            json.dumps({"schema": 1, "name": "no.such.event",
                        "type": "counter", "ts": 1.0, "seq": 1, "pid": 1,
                        "data": {}}) + "\n"
        )
        assert main(["trace", "validate", str(trace_file)]) == 1
        assert "unknown event name" in capsys.readouterr().out

    def test_trace_export_chrome(self, tmp_path, capsys):
        import json

        trace_file = self._traced_sweep(tmp_path)
        out_file = tmp_path / "chrome.json"
        assert (
            main(["trace", "export", str(trace_file), "--chrome",
                  "-o", str(out_file)])
            == 0
        )
        document = json.loads(out_file.read_text())
        assert document["traceEvents"]
        phases = {event["ph"] for event in document["traceEvents"]}
        assert "X" in phases

    def test_trace_commands_reject_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such trace file"):
            main(["trace", "report", str(tmp_path / "absent.jsonl")])
