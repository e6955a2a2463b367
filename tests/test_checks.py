"""The determinism contract checker (``repro.checks``; DESIGN.md §9).

Each AST rule is pinned against a seeded-violation fixture in
``tests/fixtures/checks/`` (excluded from clean-tree runs), the clean
tree itself is asserted finding-free, and the R005 hash manifest is
driven through every drift mode: tampered pin, missing file, version
bump without regeneration, and a hashed-field change.
"""

import json
import os

import pytest

from repro.checks import (
    STREAM_REGISTRY,
    Finding,
    format_findings,
    lint_file,
    register_stream,
    run_checks,
    scan_stream_files,
    stream_name,
)
from repro.checks.manifest import (
    DEFAULT_MANIFEST_PATH,
    build_manifest,
    check_manifest,
    write_manifest,
)
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "checks")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


class TestLintRules:
    def test_ambient_randomness_fires_r001(self):
        findings = lint_file(fixture("ambient_rng.py"))
        assert [f.rule for f in findings] == ["R001", "R001", "R001"]
        messages = " ".join(f.message for f in findings)
        assert "numpy.random.normal" in messages
        assert "numpy.random.seed" in messages
        assert "random.random" in messages

    def test_wall_clock_seed_fires_r001(self):
        findings = lint_file(fixture("time_seed.py"))
        assert [f.rule for f in findings] == ["R001"]
        assert "time.time" in findings[0].message

    def test_fresh_entropy_fires_r002_in_engine_scope(self):
        findings = lint_file(
            fixture("fresh_entropy.py"), relpath="sim/fake_engine.py"
        )
        assert [f.rule for f in findings] == ["R002", "R002"]

    def test_r002_is_scoped_to_engine_directories(self):
        # The same file outside sim//sweep/ is legitimate (tests and
        # examples may build unseeded generators).
        assert lint_file(fixture("fresh_entropy.py")) == []

    def test_rng_module_itself_is_exempt(self):
        path = os.path.join(
            os.path.dirname(__file__), "..", "src", "repro", "sim", "rng.py"
        )
        assert lint_file(os.path.abspath(path)) == []

    def test_worker_state_fires_r004(self):
        findings = lint_file(fixture("worker_leak.py"))
        assert {f.rule for f in findings} == {"R004"}
        messages = " ".join(f.message for f in findings)
        assert "derive_seed" in messages
        assert "SweepSpec" in messages
        # The host and endpoint taints: host lists and ports are
        # execution layout exactly like worker counts.
        assert "`hosts`" in messages
        assert "`port`" in messages
        # One finding per tainted name per call site: `executor.workers`
        # carries two (`executor` and `workers`), the other three
        # violations one each.
        assert len(findings) == 5

    def test_obs_state_fires_r004(self):
        # Observability taints: wall-clock traces, metrics, spans, and
        # the event bus are execution-layout facts exactly like worker
        # counts — none may reach a seed or a hashed SweepSpec field.
        findings = lint_file(fixture("obs_taint.py"))
        assert {f.rule for f in findings} == {"R004"}
        messages = " ".join(f.message for f in findings)
        for name in ("trace", "metrics", "span", "bus", "utilization"):
            assert f"`{name}`" in messages
        assert "derive_seed" in messages
        assert "SweepSpec" in messages
        assert len(findings) == 5

    def test_fault_state_fires_r004(self):
        # Fault-tolerance taints: chaos plans, retry counters, and
        # checkpoint/resume bookkeeping record what *failed* during a
        # run — seeding from them would fork faulted vs clean results,
        # the dependence the chaos-parity suite rules out.
        findings = lint_file(fixture("fault_taint.py"))
        assert {f.rule for f in findings} == {"R004"}
        messages = " ".join(f.message for f in findings)
        for name in (
            "fault_plan", "retries", "checkpoint", "quarantine", "journal",
        ):
            assert f"`{name}`" in messages
        assert "derive_seed" in messages
        assert "SweepSpec" in messages
        assert len(findings) == 5

    def test_clean_module_and_suppression_comment(self):
        # clean.py contains one deliberate ambient draw behind a
        # `# repro: allow(R001)` marker; nothing may fire.
        assert lint_file(fixture("clean.py")) == []

    def test_syntax_error_reports_r000(self):
        findings = lint_file("broken.py", text="def broken(:\n")
        assert [f.rule for f in findings] == ["R000"]

    def test_legacy_placement_shape_fires_r001_and_r003(self):
        # The pre-PLACEMENT_DRAW_STREAM placement shape: an ambient draw
        # plus a bare-literal stream tag.  Both halves must keep firing.
        findings = lint_file(fixture("placement_rng.py"))
        assert [f.rule for f in findings] == ["R001"]
        assert "random.uniform" in findings[0].message
        stream_findings = scan_stream_files([fixture("placement_rng.py")])
        assert [f.rule for f in stream_findings] == ["R003"]
        assert "PLACEMENT_HACK_STREAM" in stream_findings[0].message
        assert "bare" in stream_findings[0].message


class TestStreamScan:
    def test_duplicate_and_misregistered_streams_fire_r003(self):
        findings = scan_stream_files([fixture("dup_stream.py")])
        assert [f.rule for f in findings] == ["R003"] * 3
        messages = " ".join(f.message for f in findings)
        assert "UNREGISTERED_STREAM" in messages  # bare literal
        assert "collides" in messages  # BETA == ALPHA tag
        assert "mismatched name" in messages  # GAMMA registered as MISNAMED

    def test_registered_tree_streams_are_disjoint(self):
        import repro.algorithms.belief  # noqa: F401 - registers BELIEF_STREAM
        import repro.sweep.runner  # noqa: F401 - registers all streams

        streams = dict(STREAM_REGISTRY)
        for name in (
            "BLOCK_STREAM",
            "SCENARIO_STREAM",
            "GROUP_CHUNK_STREAM",
            "PLACEMENT_STREAM",
            "PLACEMENT_DRAW_STREAM",
            "TARGET_STREAM",
            "BELIEF_STREAM",
        ):
            assert name in streams
        assert len(set(streams.values())) == len(streams)

    def test_registry_rejects_value_collision(self):
        register_stream("TEST_UNIQUE_A_STREAM", 0x7E5701)
        try:
            with pytest.raises(ValueError, match="collision"):
                register_stream("TEST_UNIQUE_B_STREAM", 0x7E5701)
            with pytest.raises(ValueError, match="re-registered"):
                register_stream("TEST_UNIQUE_A_STREAM", 0x7E5702)
            # Idempotent for the identical pair (module reloads).
            assert register_stream("TEST_UNIQUE_A_STREAM", 0x7E5701) == 0x7E5701
            assert stream_name(0x7E5701) == "TEST_UNIQUE_A_STREAM"
        finally:
            STREAM_REGISTRY.pop("TEST_UNIQUE_A_STREAM", None)

    def test_registry_rejects_non_int_tags(self):
        with pytest.raises(TypeError):
            register_stream("TEST_BOOL_STREAM", True)


class TestCleanTree:
    def test_full_tree_has_zero_findings(self):
        assert run_checks() == []

    def test_fixture_corpus_is_excluded_by_default(self):
        tests_root = os.path.dirname(os.path.abspath(__file__))
        findings = run_checks([tests_root])
        assert findings == []

    def test_fixture_corpus_fires_when_included(self):
        findings = run_checks([FIXTURES], exclude=())
        rules = {f.rule for f in findings}
        assert {"R001", "R003", "R004"} <= rules


class TestManifest:
    def test_committed_manifest_matches_live_code(self):
        assert check_manifest() == []

    def test_missing_manifest_is_a_finding(self, tmp_path):
        findings = check_manifest(str(tmp_path / "nope.json"))
        assert any(
            f.rule == "R005" and "missing" in f.message for f in findings
        )

    def test_regenerated_manifest_is_clean(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        write_manifest(path)
        assert check_manifest(path) == []

    def test_tampered_hash_is_reported_with_fix_hint(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = write_manifest(path)
        name = sorted(manifest["specs"])[0]
        manifest["specs"][name]["spec_hash"] = "0" * 20
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        findings = check_manifest(path)
        assert any(
            f.rule == "R005" and "spec_hash drifted" in f.message
            for f in findings
        )
        assert any("--fix-manifest" in f.message for f in findings)

    def test_version_bump_requires_regeneration(self, tmp_path, monkeypatch):
        import repro.sweep.spec as spec_module

        path = str(tmp_path / "manifest.json")
        write_manifest(path)
        monkeypatch.setattr(spec_module, "SPEC_VERSION", 3)
        findings = check_manifest(path)
        assert any("spec_version changed" in f.message for f in findings)
        # After regenerating under the new version, the check is green
        # again: bump + --fix-manifest is the sanctioned change path.
        write_manifest(path)
        assert check_manifest(path) == []

    def test_hashed_field_change_without_bump_is_caught(
        self, tmp_path, monkeypatch
    ):
        import repro.sweep.spec as spec_module

        path = str(tmp_path / "manifest.json")
        write_manifest(path)
        original = spec_module.SweepSpec.to_dict

        def with_extra_field(self):
            data = original(self)
            data["new_knob"] = 1
            return data

        monkeypatch.setattr(spec_module.SweepSpec, "to_dict", with_extra_field)
        findings = check_manifest(path)
        assert any(
            f.rule == "R005" and "spec_hash drifted" in f.message
            for f in findings
        )
        assert any(
            "partition changed" in f.message and "new_knob" in f.message
            for f in findings
        )

    def test_field_partitions_are_structurally_sound(self):
        manifest = build_manifest()
        for entry in manifest["specs"].values():
            for key, part in entry["fields"].items():
                if part == "data":
                    assert key == "block_schedule"

    def test_spec_field_introspection_helpers(self):
        from repro.sweep.spec import SweepSpec

        spec = SweepSpec(
            algorithm="uniform", distances=(4,), ks=(1,), trials=8
        )
        spec_fields = set(spec.hashed_fields())
        data_fields = set(spec.data_fields())
        assert data_fields - spec_fields == {"block_schedule"}
        assert "trials" in spec_fields - data_fields


class TestFindingRendering:
    def test_render_and_report_format(self):
        finding = Finding(
            path="a.py", line=3, col=7, rule="R001", message="bad draw"
        )
        assert finding.render() == "a.py:3:7: R001 bad draw"
        report = format_findings([finding])
        assert report.endswith("1 finding")
        assert format_findings([]).endswith("0 findings")


class TestCheckCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["check"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_violation_root_exits_nonzero(self, capsys):
        # Linting the fixture corpus directly must fail the run and
        # print localized findings.
        assert main(["check", FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "ambient_rng.py" in out

    def test_fix_manifest_is_idempotent_on_clean_tree(self, capsys):
        with open(DEFAULT_MANIFEST_PATH, "rb") as handle:
            before = handle.read()
        assert main(["check", "--fix-manifest"]) == 0
        with open(DEFAULT_MANIFEST_PATH, "rb") as handle:
            assert handle.read() == before
        assert "re-pinned" in capsys.readouterr().out
