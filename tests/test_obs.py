"""Tests for ``repro.obs``: tracing, metrics, profiling (DESIGN.md §12).

The load-bearing guarantees:

* every event the instrumented sweep stack emits validates against the
  schema registry — no site can invent a shape downstream tooling has
  never seen;
* tracing is determinism-neutral: traced and untraced runs are bitwise
  identical on every executor backend (the property test);
* the disabled path is one attribute read — the bus emits nothing and
  touches no sink when no trace is attached;
* a raising progress callback cannot poison a shared executor mid-sweep
  (the ``_ProgressGuard`` regression);
* the JSONL round-trip, the metrics footer, the Chrome exporter, and
  the ``trace report`` aggregation all reconstruct what actually ran.
"""

import json
import os
import warnings

import numpy as np
import pytest

from repro.obs import (
    BUS,
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    TRACE_ENV,
    Event,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    build_report,
    read_trace,
    to_chrome,
    trace_metrics,
    tracing,
    validate_event,
)
from repro.obs import bus as bus_module
from repro.stats import BudgetPolicy
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.executor import VirtualExecutor


def small_spec(**overrides):
    base = dict(
        algorithm="nonuniform",
        distances=(8, 16),
        ks=(1, 4),
        trials=20,
        seed=42,
    )
    base.update(overrides)
    return SweepSpec(**base)


def adaptive(rel_ci=1e-9, min_trials=32, max_trials=128, **overrides):
    return small_spec(
        budget=BudgetPolicy.target_rel_ci(
            rel_ci, min_trials=min_trials, max_trials=max_trials
        ),
        **overrides,
    )


def assert_sweeps_equal(a, b):
    assert len(a.cells) == len(b.cells)
    for x, y in zip(a.cells, b.cells):
        assert (x.distance, x.k) == (y.distance, y.k)
        assert np.array_equal(x.times, y.times), (x.distance, x.k)


@pytest.fixture(autouse=True)
def clean_bus():
    """Leave the process-singleton bus exactly as this test found it."""
    yield
    for sink in BUS.sinks:
        BUS.detach(sink, close=True)
    BUS.metrics.clear()
    bus_module._ENV_SINKS.clear()


def record_sweep(spec, **kwargs):
    """Run a sweep with a MemorySink attached; returns (result, records)."""
    sink = MemorySink()
    with tracing(sink):
        result = run_sweep(spec, **kwargs)
    return result, sink.records


def names_of(records):
    counts = {}
    for record in records:
        counts[record["name"]] = counts.get(record["name"], 0) + 1
    return counts


def assert_all_valid(records):
    problems = [p for r in records for p in validate_event(r)]
    assert problems == [], problems[:10]


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.incr("a", 2)
        registry.observe("lat", 1.0)
        registry.observe("lat", 3.0)
        assert registry.count("a") == 3
        assert registry.count("missing") == 0
        assert registry.total("lat") == 4.0
        assert registry.total("missing") == 0.0
        assert registry.names() == ["a", "lat"]
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 3}
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 2
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0
        assert hist["mean"] == 2.0
        registry.clear()
        assert registry.snapshot() == {"counters": {}, "histograms": {}}

    def test_empty_histogram_snapshot_has_no_infinities(self):
        registry = MetricsRegistry()
        registry.observe("x", 5.0)
        registry.clear()
        # A snapshot after clear must stay JSON-safe.
        assert json.dumps(registry.snapshot())


# ----------------------------------------------------------------------
# Event schema
# ----------------------------------------------------------------------


class TestEventSchema:
    def test_registry_types_are_known(self):
        from repro.obs.events import EVENT_TYPES

        for name, (type_, keys) in EVENT_SCHEMAS.items():
            assert type_ in EVENT_TYPES, name
            assert all(isinstance(key, str) for key in keys), name

    def test_round_trip_record_validates(self):
        event = Event(
            name="cache.hit", type="counter", ts=1.0, seq=1, pid=7,
            data={"kind": "sweep", "algorithm": "nonuniform"},
        )
        assert validate_event(event.to_record()) == []

    def test_non_dict_record(self):
        assert validate_event(["nope"]) != []

    def test_unknown_name(self):
        record = Event(
            name="no.such.event", type="counter", ts=1.0, seq=1, pid=7
        ).to_record()
        assert any("unknown event name" in p for p in validate_event(record))

    def test_wrong_type_and_schema(self):
        record = Event(
            name="cache.hit", type="gauge", ts=1.0, seq=1, pid=7, schema=99
        ).to_record()
        problems = validate_event(record)
        assert any("!= 'counter'" in p for p in problems)
        assert any(f"!= {SCHEMA_VERSION}" in p for p in problems)

    def test_unknown_data_key_and_non_scalar_value(self):
        record = Event(
            name="cache.hit", type="counter", ts=1.0, seq=1, pid=7,
            data={"bogus": 1, "kind": {"nested": True}},
        ).to_record()
        problems = validate_event(record)
        assert any("unknown data key 'bogus'" in p for p in problems)
        assert any("not JSON-scalar" in p for p in problems)

    def test_flat_lists_are_scalar_enough(self):
        record = Event(
            name="cell.block.start", type="span.start", ts=1.0, seq=1,
            pid=7, data={"ticket": 3, "kind": "chunk", "distances": [8, 16]},
        ).to_record()
        assert validate_event(record) == []

    def test_bad_envelope_fields(self):
        record = Event(
            name="cache.hit", type="counter", ts=1.0, seq=1, pid=7
        ).to_record()
        record["ts"] = "yesterday"
        record["seq"] = None
        problems = validate_event(record)
        assert any("ts is not a number" in p for p in problems)
        assert any("seq is not an integer" in p for p in problems)


# ----------------------------------------------------------------------
# Bus and sinks
# ----------------------------------------------------------------------


class TestBus:
    def test_disabled_bus_is_silent(self):
        assert not BUS.enabled
        BUS.counter("cache.miss", kind="sweep")  # must be a no-op
        assert BUS.metrics.count("cache.miss") == 0

    def test_attach_enables_detach_disables(self):
        sink = MemorySink()
        BUS.attach(sink)
        assert BUS.enabled
        BUS.counter("cache.miss", kind="sweep")
        BUS.detach(sink)
        assert not BUS.enabled
        assert sink.closed
        assert names_of(sink.records) == {"cache.miss": 1}
        assert BUS.metrics.count("cache.miss") == 1

    def test_sequence_numbers_are_monotonic(self):
        sink = MemorySink()
        with tracing(sink):
            BUS.counter("cache.miss", kind="sweep")
            BUS.counter("cache.miss", kind="blocks")
        seqs = [r["seq"] for r in sink.records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_gauge_and_timing_feed_histograms(self):
        sink = MemorySink()
        with tracing(sink):
            BUS.gauge("executor.queue_depth", 3.0, backend="serial")
            started = BUS.span_start("sweep", algorithm="nonuniform")
            BUS.span_end("sweep", started, algorithm="nonuniform")
        assert BUS.metrics.total("executor.queue_depth") == 3.0
        assert BUS.metrics.total("sweep.end.dur_s") > 0.0

    def test_tracing_scope_appends_metrics_footer(self):
        sink = MemorySink()
        with tracing(sink):
            BUS.counter("cache.miss", kind="sweep")
        footer = trace_metrics(sink.records)
        assert footer is not None
        assert footer["counters"]["cache.miss"] == 1
        assert sink.records[-1]["name"] == "trace.metrics"
        assert validate_event(sink.records[-1]) == []

    def test_two_sinks_both_receive(self):
        a, b = MemorySink(), MemorySink()
        BUS.attach(a)
        BUS.attach(b)
        BUS.counter("cache.miss", kind="sweep")
        BUS.detach(a)
        assert BUS.enabled  # b still attached
        BUS.detach(b)
        assert len(a.records) == 1
        assert len(b.records) == 1


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with tracing(path):
            BUS.counter("cache.miss", kind="sweep")
        records = read_trace(path)
        assert names_of(records) == {"cache.miss": 1, "trace.metrics": 1}
        assert_all_valid(records)

    def test_jsonl_is_lazy(self, tmp_path):
        path = str(tmp_path / "never.jsonl")
        sink = JsonlSink(path)
        sink.close()
        assert not os.path.exists(path)

    def test_io_error_disables_sink_not_sweep(self, tmp_path):
        sink = JsonlSink(str(tmp_path))  # a directory: open() fails
        with tracing(sink):
            BUS.counter("cache.miss", kind="sweep")  # must not raise
        assert sink._dead

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(str(path))


# ----------------------------------------------------------------------
# Instrumented sweep stack
# ----------------------------------------------------------------------


class TestSweepInstrumentation:
    def test_fixed_sweep_event_stream(self):
        result, records = record_sweep(small_spec(), cache=False)
        assert_all_valid(records)
        counts = names_of(records)
        assert counts["sweep.start"] == 1
        assert counts["sweep.end"] == 1
        assert counts["cell.finish"] == len(result.cells) == 4
        assert counts["cell.block.start"] == counts["cell.block.end"]
        assert counts["executor.submit"] == counts["executor.complete"]
        assert counts["worker.utilization"] == 1
        ends = [r for r in records if r["name"] == "sweep.end"]
        assert ends[0]["data"]["total_trials"] == result.total_trials
        assert ends[0]["data"]["dur_s"] > 0.0

    def test_cache_hit_and_miss_events(self, tmp_path):
        spec = small_spec()
        _, first = record_sweep(spec, cache=True, cache_dir=str(tmp_path))
        result, second = record_sweep(
            spec, cache=True, cache_dir=str(tmp_path)
        )
        assert result.from_cache
        assert names_of(first)["cache.miss"] == 1
        counts = names_of(second)
        assert counts["cache.hit"] == 1
        assert "executor.submit" not in counts  # nothing ran
        # Cache-served cells still report finishes, flagged as cached.
        finishes = [r for r in second if r["name"] == "cell.finish"]
        assert all(r["data"]["source"] == "cache" for r in finishes)

    def test_adaptive_sweep_stop_decisions(self, tmp_path):
        spec = adaptive()
        result, records = record_sweep(
            spec, cache=True, cache_dir=str(tmp_path)
        )
        assert_all_valid(records)
        counts = names_of(records)
        stops = [r for r in records if r["name"] == "cell.stop"]
        assert len(stops) == len(result.cells)
        assert all(r["data"]["reason"] == "satisfied" for r in stops)
        assert counts["cache.miss"] == 1
        assert counts["cache.append"] == 1
        assert counts["cache.lock_wait"] >= 1
        # Block spans carry the speculation/steal flags.
        starts = [r for r in records if r["name"] == "cell.block.start"]
        assert all(
            isinstance(r["data"]["speculative"], bool) for r in starts
        )
        # Re-running from the block store stops every cell as cached.
        _, again = record_sweep(spec, cache=True, cache_dir=str(tmp_path))
        stops = [r for r in again if r["name"] == "cell.stop"]
        assert stops and all(
            r["data"]["reason"] == "cached" for r in stops
        )

    def test_env_var_tracing(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv(TRACE_ENV, path)
        run_sweep(small_spec(), cache=False)
        run_sweep(small_spec(seed=43), cache=False)
        records = read_trace(path)
        assert_all_valid(records)
        # One process-lifetime sink: both sweeps, no footer.
        assert names_of(records)["sweep.end"] == 2
        assert trace_metrics(records) is None

    def test_untraced_sweep_emits_nothing(self):
        sink = MemorySink()
        run_sweep(small_spec(), cache=False)  # bus disabled throughout
        assert sink.records == []
        assert not BUS.enabled


class TestProgressGuard:
    def test_raising_callback_cannot_poison_the_sweep(self):
        spec = adaptive()
        baseline = run_sweep(spec, cache=False)

        calls = []

        def bad_progress(event):
            calls.append(event)
            raise RuntimeError("observer crashed")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_sweep(spec, cache=False, progress=bad_progress)
        assert_sweeps_equal(baseline, result)
        assert len(calls) == len(result.cells)
        relevant = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(relevant) == 1
        message = str(relevant[0].message)
        assert "progress callback raised" in message
        assert "observer crashed" in message

    def test_healthy_callback_warns_nothing(self):
        events = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(small_spec(), cache=False, progress=events.append)
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(events) == 4


# ----------------------------------------------------------------------
# Determinism: traced == untraced, bitwise, on every backend
# ----------------------------------------------------------------------


class TestTracingParity:
    @pytest.mark.parametrize("make_spec", [small_spec, adaptive])
    def test_traced_equals_untraced_serial(self, make_spec):
        spec = make_spec()
        baseline = run_sweep(spec, cache=False)
        traced, records = record_sweep(spec, cache=False)
        assert_sweeps_equal(baseline, traced)
        assert_all_valid(records)

    @pytest.mark.parametrize("make_spec", [small_spec, adaptive])
    def test_traced_equals_untraced_process(self, make_spec):
        spec = make_spec()
        baseline = run_sweep(spec, cache=False)
        traced, records = record_sweep(
            spec, cache=False, workers=2, backend="process"
        )
        assert_sweeps_equal(baseline, traced)
        assert_all_valid(records)
        # The pool ships worker-measured execution time home.
        completes = [
            r for r in records if r["name"] == "executor.complete"
        ]
        assert completes and all(
            isinstance(r["data"].get("exec_s"), float) for r in completes
        )

    @pytest.mark.parametrize("make_spec", [small_spec, adaptive])
    def test_traced_equals_untraced_virtual(self, make_spec):
        spec = make_spec()
        baseline = run_sweep(spec, cache=False)
        with VirtualExecutor(
            workers=4, cost_fn=lambda fn, payload, result: 1.0
        ) as executor:
            traced, records = record_sweep(
                spec, cache=False, executor=executor
            )
        assert_sweeps_equal(baseline, traced)
        assert_all_valid(records)


# ----------------------------------------------------------------------
# Chrome export and trace report
# ----------------------------------------------------------------------


class TestChromeExport:
    def test_empty_trace(self):
        assert to_chrome([]) == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_sweep_spans_counters_and_lanes(self):
        _, records = record_sweep(small_spec(), cache=False)
        document = to_chrome(records)
        events = document["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"X", "C"}
        sweep_rows = [e for e in events if e.get("cat") == "sweep"]
        assert len(sweep_rows) == 1
        assert sweep_rows[0]["tid"] == 0
        blocks = [e for e in events if e.get("cat") == "chunk"]
        assert blocks and all(e["tid"] >= 1 for e in blocks)
        assert all(e["dur"] >= 0.0 for e in blocks)
        assert json.dumps(document)  # must be serialisable as-is

    def test_unmatched_span_starts_are_dropped(self):
        _, records = record_sweep(small_spec(), cache=False)
        truncated = [
            r for r in records if r["name"] != "cell.block.end"
        ]
        document = to_chrome(truncated)
        assert all(
            e.get("cat") != "chunk" for e in document["traceEvents"]
        )


class TestTraceReport:
    def test_report_matches_the_run(self):
        result, records = record_sweep(small_spec(), cache=False)
        report = build_report(records)
        assert report.events == len(records)
        assert report.sweeps == 1
        assert report.backend == "serial"
        assert report.wall_s > 0.0
        assert 0.0 < report.utilization <= 1.5  # measurement jitter slack
        assert report.submitted == report.completed
        assert report.cells  # per-cell rows exist
        total_spans = sum(cell.spans for cell in report.cells)
        assert total_spans == report.completed
        rendered = report.render(top=3)
        assert "worker utilization" in rendered
        assert "cache:" in rendered
        assert "executor:" in rendered

    def test_adaptive_report_counts_cache_and_steals(self, tmp_path):
        spec = adaptive()
        record_sweep(spec, cache=True, cache_dir=str(tmp_path))
        _, records = record_sweep(
            spec, cache=True, cache_dir=str(tmp_path)
        )
        report = build_report(records)
        assert report.cache_hits == 1
        assert report.cache_hit_rate == 1.0

    def test_report_survives_an_empty_trace(self):
        report = build_report([])
        assert report.events == 0
        assert "no block spans recorded" in report.render()

    def test_multi_sweep_utilization_is_time_weighted(self):
        # Two utilization gauges: a busy sweep then an idle one.  The
        # aggregate must not collapse to the trailing near-idle gauge.
        def gauge(seq, busy, wall):
            return Event(
                name="worker.utilization", type="gauge", ts=float(seq),
                seq=seq, pid=1,
                data={
                    "value": busy / wall, "busy_s": busy, "wall_s": wall,
                    "workers": 1, "backend": "serial",
                },
            ).to_record()

        report = build_report([gauge(1, 0.9, 1.0), gauge(2, 0.0, 1.0)])
        assert report.utilization == pytest.approx(0.45)
