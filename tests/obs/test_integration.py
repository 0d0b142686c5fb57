"""End-to-end observability: instrumented subsystems and the CLI.

The headline guarantee: one ``python -m repro fleet --trace out.jsonl``
produces spans from at least four packages (spice, harvest, dse, fleet)
in a single merged JSONL file, and per-device counters aggregate
correctly across ProcessPoolExecutor workers.
"""

import pytest

import repro.obs as obs
from repro.__main__ import main
from repro.exec import BACKEND_ENV, backbone
from repro.fleet import CalibrationCache, FleetRunner, synthesize_fleet
from repro.obs import read_jsonl
from repro.trace import TraceRecorder


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.reset()


@pytest.fixture
def process_backend(monkeypatch):
    """Force genuine multi-process fan-out even on one-core hosts or
    under ``REPRO_EXEC_BACKEND=serial``."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)


def _run_fleet(devices, jobs):
    fleet = synthesize_fleet(devices, duration=10.0)
    return FleetRunner(fleet, parallel=jobs, cache=CalibrationCache()).run()


class TestFleetAggregation:
    def test_serial_counters_cover_every_device(self):
        obs.configure(metrics=True)
        _run_fleet(devices=3, jobs=1)
        m = obs.OBS.metrics
        assert m.counter("fleet.devices") == 3
        assert m.counter("fleet.runs") == 1
        assert m.counter("harvest.runs") == 3
        assert m.histogram("fleet.elapsed")["count"] == 1

    def test_parallel_counters_match_serial(self, process_backend):
        obs.configure(metrics=True)
        _run_fleet(devices=4, jobs=1)
        serial = obs.OBS.metrics
        obs.reset()
        obs.configure(metrics=True)
        _run_fleet(devices=4, jobs=2)
        parallel = obs.OBS.metrics
        # Every worker's task-local snapshot merged exactly once.
        for name in ("fleet.devices", "fleet.runs", "harvest.runs", "harvest.steps"):
            assert parallel.counter(name) == serial.counter(name), name
        assert parallel.counter("harvest.runs") == parallel.counter("fleet.devices") == 4

    def test_parallel_trace_lands_in_one_file(self, tmp_path, process_backend):
        path = str(tmp_path / "fleet.jsonl")
        obs.configure(trace_path=path, metrics=True)
        _run_fleet(devices=4, jobs=2)
        obs.reset()
        records = read_jsonl(path)
        names = [r.get("name") for r in records]
        assert names.count("fleet.run") == 1
        run_pid = next(r["pid"] for r in records if r.get("name") == "fleet.run")
        harvest_spans = [r for r in records if r.get("name") == "harvest.run"]
        assert len(harvest_spans) == 4
        # The chunks ran in worker processes (the pool may hand both to one
        # worker) and every worker appended to the one file.
        chunk_pids = {
            r["pid"] for r in records
            if r.get("name") == "exec.chunk" and r["attrs"]["label"] == "fleet.batched"
        }
        assert len(chunk_pids) >= 1 and run_pid not in chunk_pids
        assert {r["pid"] for r in harvest_spans} == chunk_pids

    def test_disabled_run_produces_identical_report(self):
        obs.reset()
        baseline = _run_fleet(devices=3, jobs=1)
        obs.configure(metrics=True)
        observed = _run_fleet(devices=3, jobs=1)
        assert observed.report.render() == baseline.report.render()

    def test_armed_run_takes_the_batch_path(self):
        """Observing a fleet never changes which code runs: an armed
        40-device run goes through the lockstep kernel exactly like an
        unarmed one, with the same report and the same recording."""
        fleet = synthesize_fleet(40, duration=10.0)

        def run():
            rec = TraceRecorder()
            result = FleetRunner(fleet, cache=CalibrationCache()).run(record=rec)
            return result.report.render(), rec.recording

        plain_render, plain_recording = run()
        obs.configure(metrics=True)
        armed_render, armed_recording = run()
        assert obs.OBS.metrics.counter("batch.lanes") == 40
        assert obs.OBS.metrics.counter("fleet.devices") == 40
        assert armed_render == plain_render
        assert armed_recording == plain_recording


class TestCLITrace:
    def test_fleet_trace_spans_four_packages(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        main([
            "fleet", "--devices", "2", "--duration", "10",
            "--trace", path, "--metrics",
        ])
        out = capsys.readouterr().out
        assert "metrics:" in out
        packages = {
            r["name"].split(".")[0] for r in read_jsonl(path) if "name" in r
        }
        assert {"spice", "harvest", "dse", "fleet"} <= packages

    def test_trace_flag_before_subcommand(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        main(["--trace", path, "experiments", "table3"])
        capsys.readouterr()
        names = [r["name"] for r in read_jsonl(path)]
        assert "experiments.run" in names

    def test_quiet_command_still_creates_trace_file(self, tmp_path, capsys):
        import os

        path = str(tmp_path / "trace.jsonl")
        main(["monitor", "--voltage", "2.5", "--trace", path])
        capsys.readouterr()
        assert os.path.exists(path)
        assert read_jsonl(path) == []  # nothing instrumented ran, file exists

    def test_metrics_flag_prints_table(self, capsys):
        main(["--metrics", "experiments", "table3"])
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "experiments.seconds" in out

    def test_cli_without_flags_leaves_obs_disabled(self, capsys):
        main(["experiments", "table3"])
        capsys.readouterr()
        assert not obs.OBS.enabled


class TestSubsystemSpans:
    def test_nsga2_emits_generation_events(self):
        from repro.dse.nsga2 import NSGA2
        from repro.dse.objectives import PerformanceModel
        from repro.dse.space import DesignSpace
        from repro.obs import MemorySink
        from repro.tech import TECH_90NM

        sink = MemorySink()
        obs.configure(sink=sink, metrics=True)
        NSGA2(
            PerformanceModel(DesignSpace(TECH_90NM)),
            population_size=8,
            generations=2,
            seed=3,
        ).run()
        names = [r["name"] for r in sink.records]
        assert names.count("dse.nsga2.generation") == 2
        assert "dse.nsga2" in names
        assert obs.OBS.metrics.counter("dse.evaluations") == 8 + 2 * 8

    def test_riscv_run_emits_span_with_attrs(self):
        from repro.obs import MemorySink
        from repro.riscv import IntermittentMachine, assemble

        program = assemble("addi a0, zero, 7\necall")
        sink = MemorySink()
        obs.configure(sink=sink, metrics=True)
        machine = IntermittentMachine(program)
        result = machine.run(max_wall_time=600.0)
        assert result.completed
        (span,) = [r for r in sink.records if r.get("name") == "riscv.run"]
        assert span["attrs"]["completed"] is True
        assert span["attrs"]["instructions"] == result.instructions
        assert obs.OBS.metrics.counter("riscv.instructions") == result.instructions
