"""CLI tests (driving main() directly, asserting output and exit codes)."""

import json

import pytest

from repro.cli import main
from repro.xuml import model_from_json


@pytest.fixture
def model_file(tmp_path):
    assert main(["export", "microwave",
                 "-o", str(tmp_path / "model.json")]) == 0
    return tmp_path / "model.json"


class TestExport:
    def test_export_to_stdout(self, capsys):
        assert main(["export", "microwave"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["name"] == "Microwave"

    def test_exported_file_loads(self, model_file):
        model = model_from_json(model_file.read_text())
        assert model.name == "Microwave"

    def test_unknown_catalog_name(self):
        with pytest.raises(KeyError):
            main(["export", "nonexistent"])


class TestInfoAndCheck:
    def test_info(self, model_file, capsys):
        assert main(["info", str(model_file)]) == 0
        out = capsys.readouterr().out
        assert "MicrowaveOven" in out
        assert "classes" in out

    def test_check_clean_model(self, model_file, capsys):
        assert main(["check", str(model_file)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_check_broken_model_exits_nonzero(self, model_file, tmp_path,
                                              capsys):
        data = json.loads(model_file.read_text())
        # sabotage: point a transition at a ghost state
        machine = data["components"][0]["classes"][0]["statemachine"]
        machine["transitions"][0][2] = "Ghost"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        assert main(["check", str(broken)]) == 1
        assert "Ghost" in capsys.readouterr().out


class TestCompile:
    def test_compile_with_marks(self, model_file, tmp_path, capsys):
        marks = tmp_path / "hw.mks"
        marks.write_text("control.PT isHardware = true\n")
        out_dir = tmp_path / "gen"
        assert main(["compile", str(model_file), "--marks", str(marks),
                     "-o", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "hardware: PT" in out
        assert (out_dir / "power_tube.vhd").exists()
        assert (out_dir / "control_interface.h").exists()

    def test_compile_without_marks_is_all_software(self, model_file,
                                                   tmp_path, capsys):
        out_dir = tmp_path / "gen"
        assert main(["compile", str(model_file), "-o", str(out_dir)]) == 0
        assert "hardware: (none)" in capsys.readouterr().out
        assert (out_dir / "control_mo.c").exists()

    def test_invalid_marks_rejected(self, model_file, tmp_path, capsys):
        marks = tmp_path / "bad.mks"
        marks.write_text("control.GHOST isHardware = true\n")
        assert main(["compile", str(model_file), "--marks", str(marks),
                     "-o", str(tmp_path / "gen")]) == 1
        assert "does not exist" in capsys.readouterr().err


class TestVerifyAndSweep:
    def test_verify_catalog_model(self, capsys):
        assert main(["verify", "checksum"]) == 0
        assert "CONFORMANT" in capsys.readouterr().out

    def test_sweep_prints_winner(self, capsys):
        assert main(["sweep", "--packets", "40", "--rate", "200"]) == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "(all software)" in out


class TestBatch:
    def test_batch_runs_and_summarizes(self, tmp_path, capsys):
        assert main(["batch", "microwave", "checksum",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "sw-only" in out
        assert "hit rate" in out

    def test_second_run_hits_the_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["batch", "microwave", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["batch", "microwave", "--cache-dir", cache,
                     "--min-hit-rate", "0.9"]) == 0
        assert "hit rate 100.0%" in capsys.readouterr().out

    def test_min_hit_rate_fails_a_cold_cache(self, tmp_path, capsys):
        assert main(["batch", "microwave",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--min-hit-rate", "0.9"]) == 1
        assert "below the required 90%" in capsys.readouterr().err

    def test_no_cache_flag_skips_the_store(self, tmp_path, capsys):
        assert main(["batch", "checksum", "--no-cache",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "0 hits / 0 lookups" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_negative_gc_bytes_rejected(self, tmp_path, capsys):
        assert main(["batch", "checksum", "--gc-bytes", "-1",
                     "--cache-dir", str(tmp_path / "cache")]) == 1
        assert "--gc-bytes must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_unwritable_cache_dir_rejected(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        assert main(["batch", "microwave",
                     "--cache-dir", str(blocker / "cache")]) == 1
        assert "is not writable" in capsys.readouterr().err

    def test_unknown_model_rejected(self, tmp_path, capsys):
        assert main(["batch", "ghost",
                     "--cache-dir", str(tmp_path / "cache")]) == 1
        err = capsys.readouterr().err
        assert "no catalog model named ghost" in err
        assert "microwave" in err

    def test_bad_min_hit_rate_rejected(self, tmp_path, capsys):
        assert main(["batch", "microwave",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--min-hit-rate", "1.5"]) == 1
        assert "within 0..1" in capsys.readouterr().err

    def test_batch_csv_written(self, tmp_path, capsys):
        csv_path = tmp_path / "batch.csv"
        assert main(["batch", "checksum",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("model,variant,ok")
        assert len(lines) == 5  # sw-only + 2 classes + hw-all + header


class TestChaos:
    def test_chaos_protected_conformant(self, capsys):
        assert main(["chaos", "microwave", "--rates", "0.0,0.02",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "protected" in out
        assert "unprotected" in out
        assert "CONFORMANT" in out
        assert "framing overhead" in out

    def test_chaos_garbage_rates_rejected(self, capsys):
        assert main(["chaos", "microwave", "--rates", "abc"]) == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_chaos_rate_out_of_range_rejected(self, capsys):
        assert main(["chaos", "microwave", "--rates", "0.0,1.5"]) == 1
        assert "within 0..1" in capsys.readouterr().err

    def test_chaos_unknown_hardware_class_rejected(self, capsys):
        assert main(["chaos", "microwave", "--hardware", "GHOST",
                     "--rates", "0.0"]) == 1
        err = capsys.readouterr().err
        assert "no class GHOST" in err
        assert "MO/PT" in err

    def test_chaos_csv_written(self, tmp_path, capsys):
        csv_path = tmp_path / "chaos.csv"
        assert main(["chaos", "microwave", "--rates", "0.0",
                     "--seed", "7", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("model,protected,rate")
        # one protected + one unprotected row at the single rate
        assert len(lines) == 3


class TestTrace:
    def test_trace_to_stdout_is_valid_jsonl(self, capsys):
        from repro.obs import SCHEMA, load_jsonl

        assert main(["trace", "microwave"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[0])["schema"] == SCHEMA
        assert len(load_jsonl(out)) > 0

    def test_trace_export_and_check_round_trip(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["trace", "microwave", "-o", str(path)]) == 0
        assert "events" in capsys.readouterr().out
        assert main(["trace", "--load", str(path), "--check"]) == 0
        assert "byte-identically" in capsys.readouterr().out

    def test_trace_check_rejects_tampering(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["trace", "microwave", "-o", str(path)]) == 0
        capsys.readouterr()
        # non-canonical whitespace survives load but not re-dump
        path.write_text(path.read_text().replace('":', '": ', 1))
        assert main(["trace", "--load", str(path), "--check"]) == 1
        assert "not byte-identical" in capsys.readouterr().err

    def test_trace_load_rejects_foreign_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema":"other","version":1}\n')
        assert main(["trace", "--load", str(path)]) == 1
        assert "not a repro.trace stream" in capsys.readouterr().err

    def test_trace_critical_path(self, capsys):
        assert main(["trace", "microwave", "--critical"]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "dependent signal(s)" in out

    def test_trace_named_case(self, capsys):
        assert main(["trace", "microwave",
                     "--case", "door-open-pauses-cooking",
                     "--critical"]) == 0
        assert "critical path:" in capsys.readouterr().out

    def test_trace_unknown_case_lists_suite(self, capsys):
        assert main(["trace", "microwave", "--case", "ghost"]) == 1
        assert "no case 'ghost'" in capsys.readouterr().err

    def test_trace_without_name_or_load_rejected(self, capsys):
        assert main(["trace"]) == 1
        assert "required" in capsys.readouterr().err

    def test_trace_unknown_model_rejected(self, capsys):
        assert main(["trace", "ghost"]) == 1
        assert "no suite" in capsys.readouterr().err

    def test_trace_missing_file_rejected(self, tmp_path, capsys):
        assert main(["trace", "--load", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestMetrics:
    def test_metrics_reports_all_three_subsystems(self, capsys):
        assert main(["metrics", "microwave", "--require"]) == 0
        out = capsys.readouterr().out
        assert "runtime.dispatches" in out
        assert "cosim.signals_routed" in out
        assert "cosim.bus.messages" in out
        assert "build.store.hits" in out
        assert "build.job_wall_ms" in out

    def test_metrics_json_snapshot(self, capsys):
        assert main(["metrics", "checksum", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["runtime.dispatches"] > 0
        assert snapshot["counters"]["build.store.hits"] > 0
        assert snapshot["histograms"]["runtime.queue_depth"]["count"] > 0

    def test_metrics_unknown_model_rejected(self, capsys):
        assert main(["metrics", "ghost"]) == 1
        assert "no suite" in capsys.readouterr().err

    def test_metrics_registry_deactivated_afterwards(self):
        from repro.obs import active_registry

        assert main(["metrics", "microwave"]) == 0
        assert active_registry() is None
