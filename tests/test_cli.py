"""The ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    @pytest.mark.parametrize("flag", ["--version", "-V"])
    def test_version_flag(self, capsys, flag):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main([flag])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_info_default(self, capsys):
        main([])
        out = capsys.readouterr().out
        assert "Failure Sentinels" in out
        assert "repro.core" in out

    def test_monitor_demo(self, capsys):
        main(["monitor", "--tech", "90nm", "--voltage", "2.5"])
        out = capsys.readouterr().out
        assert "count" in out
        assert "error budget" in out

    def test_experiments_single(self, capsys):
        main(["experiments", "table3"])
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_experiments_unknown_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "table1" in err  # available ids are listed, not a traceback

    def test_experiments_mixed_known_unknown_rejected_before_running(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "table3", "nope"])
        assert excinfo.value.code == 2

    def test_experiments_jobs_flag(self, capsys, monkeypatch):
        from repro.exec import BACKEND_ENV, backbone

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)
        main(["experiments", "table1", "table3", "--jobs", "2"])
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table III" in out
        # Canonical order survives the fan-out.
        assert out.index("Table I") < out.index("Table III")

    def test_experiments_list(self, capsys):
        main(["experiments", "--list"])
        out = capsys.readouterr().out
        assert "table1" in out
        assert "ext_fleet" in out


class TestCharacterizeCLI:
    def test_divider_table(self, capsys):
        main(["characterize", "--voltages", "2.0,2.5,3.0"])
        out = capsys.readouterr().out
        assert "divider @ 90nm" in out
        assert "(exact)" in out  # the default engine solves exactly
        assert "tap (V)" in out

    def test_json_output(self, capsys):
        import json

        main(["characterize", "--voltages", "2.5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "exact"
        assert len(payload["tap"]) == 1

    def test_surrogate_fit_and_dispatch(self, capsys):
        pytest.importorskip("numpy")
        main(["characterize", "--voltages", "1.0:3.5:9",
              "--engine", "surrogate", "--fit"])
        out = capsys.readouterr().out
        assert "fitted surrogate" in out
        assert "certified error" in out
        assert "(surrogate)" in out
        # --fit alone answers through the model it fitted.
        main(["characterize", "--voltages", "1.0:3.5:9", "--fit"])
        assert "(surrogate)" in capsys.readouterr().out

    def test_bad_voltage_spec_exits_cleanly(self, capsys):
        argvs = [
            ["--voltages", spec]
            for spec in ("nope", "1.0:3.5", "1.0:3.5:0", "nan,2.0")
        ]
        argvs.append(["--voltages", "2.0", "--temp", "nan"])
        for argv in argvs:
            with pytest.raises(SystemExit) as excinfo:
                main(["characterize", *argv])
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.startswith("error: ")


class TestFleetCLI:
    def test_fleet_smoke(self, capsys):
        main(["fleet", "--devices", "3", "--duration", "20", "--jobs", "1"])
        out = capsys.readouterr().out
        assert "p95" in out
        assert "duty_pct" in out
        assert "3 devices" in out

    def test_fleet_rejects_bad_irradiance(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--devices", "2", "--irradiance", "venus"])

    def test_fleet_config_errors_exit_cleanly(self, tmp_path, capsys):
        """Bad sizes and an unusable --cache-dir surface as one-line
        errors, not tracebacks."""
        regular = tmp_path / "not-a-dir"
        regular.write_text("x")
        for argv in (
            ["fleet", "--devices", "0"],
            ["fleet", "--devices", "2", "--jobs", "0"],
            ["fleet", "--devices", "2", "--cache-dir", str(regular)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.startswith("error: ")


class TestReplayCLI:
    def _record(self, tmp_path, name="a.jsonl", devices="3", seed="1"):
        path = str(tmp_path / name)
        main(["fleet", "--devices", devices, "--duration", "20", "--seed", seed,
              "--no-plan", "--record", path])
        return path

    def test_record_then_replay(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        main(["replay", path])
        out = capsys.readouterr().out
        assert out.startswith("replay OK")
        assert "byte-identical" in out

    def test_replay_single_device(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        main(["replay", path, "--device", "1"])
        assert capsys.readouterr().out.startswith("replay OK")

    def test_diff_identical(self, tmp_path, capsys):
        a = self._record(tmp_path, "a.jsonl")
        b = self._record(tmp_path, "b.jsonl")
        capsys.readouterr()
        main(["replay", a, "--diff", b])
        assert "byte-identical" in capsys.readouterr().out

    def test_diff_divergent_exits_nonzero(self, tmp_path, capsys):
        a = self._record(tmp_path, "a.jsonl", seed="1")
        b = self._record(tmp_path, "b.jsonl", seed="2")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", a, "--diff", b])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "differ" in out or "divergence" in out

    def test_riscv_record_flag(self, tmp_path, capsys):
        path = str(tmp_path / "riscv.jsonl.gz")
        main(["riscv", "--workload", "crc32", "--capacitance", "10",
              "--record", path])
        capsys.readouterr()
        main(["replay", path])
        assert capsys.readouterr().out.startswith("replay OK")

    def test_record_rejects_continuous(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["riscv", "--continuous", "--record", str(tmp_path / "x.jsonl")])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
