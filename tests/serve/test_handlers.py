"""Handler adapters: wire-format round trips and request validation."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.handlers import HANDLERS, sweep_from_dict, sweep_to_dict
from repro.serve.jobs import JobCancelled, JobContext, JobManager
from repro.spice.charlib import DividerSweep, RingSweep, fingerprint
from repro.tech import TECH_65NM, TECH_90NM


class _StubJob:
    """Just enough of a Job for a handler to run synchronously."""

    def __init__(self):
        import threading

        self.job_id = "j-test"
        self.cancel_event = threading.Event()
        self.published = []

    def publish(self, event):
        self.published.append(event)
        return event


def _context():
    manager = JobManager(handlers={})  # not started: handlers run inline
    job = _StubJob()
    return JobContext(job, manager), job


class TestSweepWireFormat:
    def test_ring_round_trip_preserves_fingerprint(self):
        sweep = RingSweep(tech=TECH_90NM, n_stages=7, voltages=(0.7, 0.9, 1.1))
        restored = sweep_from_dict(sweep_to_dict(sweep))
        assert restored == sweep
        assert fingerprint(restored) == fingerprint(sweep)

    def test_divider_round_trip(self):
        sweep = DividerSweep(tech=TECH_65NM, voltages=(0.8, 1.0))
        payload = sweep_to_dict(sweep)
        assert payload["kind"] == "divider"
        assert payload["tech"] == TECH_65NM.name
        assert sweep_from_dict(payload) == sweep

    def test_payload_is_json_safe(self):
        import json

        sweep = RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0))
        assert sweep_from_dict(json.loads(json.dumps(sweep_to_dict(sweep)))) == sweep

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep kind"):
            sweep_from_dict({"kind": "op-amp"})

    def test_unknown_fields_rejected(self):
        payload = sweep_to_dict(RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0)))
        payload["bogus"] = 1
        with pytest.raises(ConfigurationError, match="unknown sweep fields"):
            sweep_from_dict(payload)


class TestRequestValidation:
    def test_registry_covers_issue_job_types(self):
        assert set(HANDLERS) == {"fleet", "dse", "experiments", "characterize", "replay"}

    def test_fleet_requires_payload(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match='"fleet"'):
            HANDLERS["fleet"](context, {})

    def test_experiments_rejects_unknown_names(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match="unknown experiments"):
            HANDLERS["experiments"](context, {"names": ["not_a_table"]})

    def test_characterize_requires_sweeps(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match="sweeps"):
            HANDLERS["characterize"](context, {})

    def test_parallel_must_be_positive(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match="parallel"):
            HANDLERS["experiments"](context, {"names": ["table2"], "parallel": 0})


class TestInlineExecution:
    """Handlers are plain functions — they run without the worker pool."""

    def test_characterize_inline_streams_sweeps(self):
        context, job = _context()
        sweep = RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0))
        out = HANDLERS["characterize"](
            context, {"sweeps": [sweep_to_dict(sweep)]}
        )
        assert out["cache"] == {"hits": 0, "misses": 1, "surrogate_hits": 0}
        assert len(out["results"]) == 1
        sweep_events = [e for e in job.published if e["event"] == "sweep"]
        assert [e["index"] for e in sweep_events] == [0]
        assert sweep_events[0]["result"] == out["results"][0]
        # Same request against the same manager: warm cache, same bytes.
        out2 = HANDLERS["characterize"](
            context, {"sweeps": [sweep_to_dict(sweep)]}
        )
        assert out2["cache"] == {"hits": 1, "misses": 0, "surrogate_hits": 0}
        assert out2["results"] == out["results"]

    def test_cancel_flag_aborts_inline(self):
        context, job = _context()
        job.cancel_event.set()
        sweep = sweep_to_dict(RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0)))
        with pytest.raises(JobCancelled):
            HANDLERS["characterize"](context, {"sweeps": [sweep]})


class TestFleetStreaming:
    """``"stream": true`` fleet jobs: per-shard sketch snapshots, final
    payload byte-identical to the direct ``run_streaming`` call."""

    def _fleet(self):
        from repro.fleet import synthesize_fleet

        return synthesize_fleet(6, seed=11, duration=10.0)

    def test_stream_matches_direct_run_streaming(self):
        from repro.fleet import FleetRunner

        fleet = self._fleet()
        context, job = _context()
        out = HANDLERS["fleet"](
            context, {"fleet": fleet.to_dict(), "stream": True, "shard_size": 2}
        )
        direct = FleetRunner(fleet, parallel=1).run_streaming(shard_size=2)
        assert out == direct.report.to_dict()

    def test_stream_emits_one_sketch_per_shard(self):
        fleet = self._fleet()
        context, job = _context()
        out = HANDLERS["fleet"](
            context, {"fleet": fleet.to_dict(), "stream": True, "shard_size": 2}
        )
        sketches = [e for e in job.published if e["event"] == "sketch"]
        assert [e["shard"] for e in sketches] == [1, 2, 3]
        assert [e["simulated"] for e in sketches] == [2, 4, 6]
        # The last snapshot IS the final sketch (same in-memory object).
        assert sketches[-1]["sketch"] == out["sketch"]

    def test_stream_snapshot_renders_along_the_way(self):
        from repro.fleet import FleetSketch, FleetSketchReport

        fleet = self._fleet()
        context, job = _context()
        HANDLERS["fleet"](
            context, {"fleet": fleet.to_dict(), "stream": True, "shard_size": 3}
        )
        first = [e for e in job.published if e["event"] == "sketch"][0]
        partial = FleetSketchReport(
            fleet_name=fleet.name, sketch=FleetSketch.from_dict(first["sketch"])
        )
        assert "3 devices" in partial.render()

    def test_stream_cancel_lands_at_shard_boundary(self):
        fleet = self._fleet()
        context, job = _context()
        job.cancel_event.set()
        with pytest.raises(JobCancelled):
            HANDLERS["fleet"](
                context, {"fleet": fleet.to_dict(), "stream": True, "shard_size": 2}
            )
        # The first shard had already been folded when the check fired,
        # but no sketch snapshot escaped after cancellation.
        assert [e["event"] for e in job.published if e["event"] == "sketch"] == []


class TestTraceJobs:
    """``"record": true`` fleet jobs stream the recording as a ``trace``
    event, and the ``replay`` job type verifies one on the server."""

    def _fleet(self):
        from repro.fleet import synthesize_fleet

        return synthesize_fleet(4, seed=13, duration=10.0)

    def _recorded_trace(self, stream=False):
        context, job = _context()
        request = {"fleet": self._fleet().to_dict(), "record": True}
        if stream:
            request.update(stream=True, shard_size=2)
        HANDLERS["fleet"](context, request)
        traces = [e for e in job.published if e["event"] == "trace"]
        assert len(traces) == 1
        return traces[0]["recording"]

    @pytest.mark.parametrize("stream", [False, True])
    def test_recorded_fleet_job_replays(self, stream):
        from repro.trace import Recording, replay

        recording = Recording.from_dict(self._recorded_trace(stream=stream))
        assert recording.header.kind == "fleet"
        assert replay(recording).identical

    def test_replay_job_verifies_a_recording(self):
        payload = self._recorded_trace()
        context, job = _context()
        out = HANDLERS["replay"](context, {"recording": payload})
        assert out["identical"] is True
        assert out["divergence"] is None

    def test_replay_job_single_device(self):
        payload = self._recorded_trace()
        context, job = _context()
        out = HANDLERS["replay"](context, {"recording": payload, "device": 2})
        assert out["identical"] is True

    def test_replay_job_requires_recording(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match="recording"):
            HANDLERS["replay"](context, {})


class TestExactFleetMatchesDirectRun:
    """The exact ``fleet`` job runs the shard loop ``FleetRunner.run``
    runs: same report, same recording, device events in global order."""

    @pytest.mark.parametrize("wave", [1, None])
    def test_report_and_recording_match(self, wave):
        from repro.fleet import FleetRunner, synthesize_fleet
        from repro.trace import TraceRecorder

        fleet = synthesize_fleet(6, seed=19, duration=10.0)
        rec = TraceRecorder()
        direct = FleetRunner(fleet).run(record=rec)
        request = {"fleet": fleet.to_dict(), "record": True}
        if wave is not None:
            request["wave"] = wave
        context, job = _context()
        out = HANDLERS["fleet"](context, request)
        assert out == direct.report.to_dict()
        devices = [e for e in job.published if e["event"] == "device"]
        assert [e["index"] for e in devices] == list(range(len(fleet)))
        assert [e["result"] for e in devices] == out["results"]
        [trace] = [e for e in job.published if e["event"] == "trace"]
        assert trace["recording"] == rec.recording.to_dict()

    def test_wave_must_be_positive(self):
        from repro.fleet import synthesize_fleet

        context, job = _context()
        fleet = synthesize_fleet(2, seed=19, duration=10.0)
        with pytest.raises(ConfigurationError, match="wave must be >= 1"):
            HANDLERS["fleet"](context, {"fleet": fleet.to_dict(), "wave": 0})
        assert job.published == []


def _field_request(kind, field, value):
    from repro.fleet import synthesize_fleet

    fleet = synthesize_fleet(2, seed=23, duration=10.0).to_dict()
    sweep = sweep_to_dict(RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0)))
    base = {
        "fleet": {"fleet": fleet},
        "fleet-stream": {"fleet": fleet, "stream": True},
        "dse": {},
        "experiments": {"names": ["table2"]},
        "characterize": {"sweeps": [sweep]},
    }[kind]
    return kind.split("-")[0], {**base, field: value}


INTEGER_FIELDS = [
    ("fleet", "parallel"),
    ("fleet", "wave"),
    ("fleet-stream", "shard_size"),
    ("fleet-stream", "sample_seed"),
    ("fleet-stream", "capacity"),
    ("dse", "population_size"),
    ("dse", "generations"),
    ("dse", "seed"),
    ("experiments", "parallel"),
    ("experiments", "wave"),
    ("characterize", "parallel"),
    ("characterize", "wave"),
]


class TestIntegerFields:
    """Integer request fields take JSON integers only: no truncation of
    floats, no bools, and a typed error (not a raw ValueError) for text."""

    @pytest.mark.parametrize("value", [2.7, 1.5, True, "abc"])
    @pytest.mark.parametrize("kind, field", INTEGER_FIELDS)
    def test_non_integer_rejected(self, kind, field, value):
        handler, request = _field_request(kind, field, value)
        context, job = _context()
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            HANDLERS[handler](context, request)
        assert job.published == []

    @pytest.mark.parametrize("value", [2.0, False, "2"])
    def test_replay_device_rejected(self, value):
        context, _ = _context()
        payload = TestTraceJobs()._recorded_trace()
        with pytest.raises(ConfigurationError, match="device must be an integer"):
            HANDLERS["replay"](context, {"recording": payload, "device": value})


class TestNumberFields:
    """Float request fields take finite JSON numbers only: no bools, no
    numeric strings, no NaN, and a typed error for text."""

    @pytest.mark.parametrize("value", ["abc", True, "0.5", float("nan")])
    @pytest.mark.parametrize(
        "kind, field", [("fleet-stream", "sample"), ("characterize", "tolerance")]
    )
    def test_non_number_rejected(self, kind, field, value):
        handler, request = _field_request(kind, field, value)
        context, job = _context()
        with pytest.raises(ConfigurationError, match=f"{field} must be a finite number"):
            HANDLERS[handler](context, request)
        assert job.published == []
