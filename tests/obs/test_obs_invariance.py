"""Observation is passive: arming :mod:`repro.obs` changes no call.

Each workload runs once to warm imports and caches, then once with obs
disarmed and once armed (a :class:`~repro.obs.MemorySink` tracer plus
metrics).  A ``sys.setprofile`` hook counts calls per ``repro.*``
function, keyed by ``(co_filename, co_firstlineno, co_name)``, and the
two counts must be equal.  Calls into ``repro.obs`` itself are the
observation and are not counted.  There is no allowlist: a traced run
that computes anything the untraced run does not fails here.
"""

import os
import sys
from collections import Counter

import pytest

import repro
import repro.obs as obs

_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_OBS = os.path.join(_REPRO, "obs") + os.sep
_SERVE = os.path.join(_REPRO, "serve") + os.sep


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.reset()


def _count_calls(workload, exclude=()):
    """Per-function call counts under ``repro.*`` for one workload run."""
    by_code = Counter()

    def profile(frame, event, arg):
        if event == "call":
            by_code[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        workload()
    finally:
        sys.setprofile(previous)
    excluded = (_OBS,) + tuple(exclude)
    counts = Counter()
    for code, n in by_code.items():
        filename = code.co_filename
        if filename.startswith(_REPRO) and not filename.startswith(excluded):
            counts[(filename[len(_REPRO):], code.co_firstlineno, code.co_name)] += n
    return counts


def assert_passive(workload, exclude=()):
    """Warm up, then compare disarmed and armed call counts."""
    obs.reset()
    workload()
    disarmed = _count_calls(workload, exclude)
    obs.configure(sink=obs.MemorySink(), metrics=True)
    try:
        armed = _count_calls(workload, exclude)
    finally:
        obs.reset()
    assert disarmed, "the workload made no repro.* calls"
    diff = {
        key: (disarmed.get(key, 0), armed.get(key, 0))
        for key in set(disarmed) | set(armed)
        if disarmed.get(key, 0) != armed.get(key, 0)
    }
    assert not diff, "calls (disarmed, armed) differ:\n" + "\n".join(
        f"  {name} {path}:{line}: {counts}"
        for (path, line, name), counts in sorted(diff.items())
    )


def test_fleet_run(tmp_path, monkeypatch):
    from repro.fleet import CalibrationCache, FleetRunner, synthesize_fleet
    from repro.spice import charlib

    monkeypatch.setenv(charlib.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(charlib, "_DEFAULT_CACHE", None)
    fleet = synthesize_fleet(4, seed=3, duration=10.0)

    def workload():
        FleetRunner(fleet, parallel=1, cache=CalibrationCache()).run()

    before = sorted(os.listdir(tmp_path))
    assert_passive(workload)
    assert sorted(os.listdir(tmp_path)) == before


def test_nsga2():
    from repro.dse import DesignSpace, NSGA2, PerformanceModel
    from repro.tech import TECH_90NM

    model = PerformanceModel(DesignSpace(TECH_90NM))
    assert_passive(lambda: NSGA2(model, population_size=12, generations=3, seed=1).run())


def test_scalar_harvest_run():
    from repro.harvest import IntermittentSimulator, fs_low_power_monitor
    from repro.harvest.traces import nyc_pedestrian_night

    trace = nyc_pedestrian_night(duration=20.0, seed=5)
    assert_passive(lambda: IntermittentSimulator(fs_low_power_monitor()).run(trace))


def test_batch_evaluate_many():
    from repro.batch import AUTO_BATCH_MIN, Scenario, evaluate_many
    from repro.harvest.monitors import fs_low_power_monitor
    from repro.harvest.traces import nyc_pedestrian_night

    scenarios = [
        Scenario(monitor=fs_low_power_monitor(), trace=nyc_pedestrian_night(5.0, seed=i))
        for i in range(AUTO_BATCH_MIN)
    ]
    assert_passive(lambda: evaluate_many(scenarios, parallel=1))


def test_riscv_intermittent_machine():
    from repro.harvest.traces import constant_trace
    from repro.riscv import IntermittentMachine, assemble

    program = assemble(
        """
        li   s0, 0
        li   s1, 30000
    loop:
        addi s0, s0, 1
        blt  s0, s1, loop
        mv   a0, s0
        ecall
        """
    )

    def workload():
        machine = IntermittentMachine(program, capacitance=2e-6, volatile_bytes=8192)
        result = machine.run(constant_trace(0.2, 600.0), max_wall_time=600.0)
        assert result.completed and result.checkpoints >= 1

    assert_passive(workload)


def test_serve_dse_job():
    from repro.serve.handlers import HANDLERS
    from repro.serve.jobs import Job, JobContext, JobManager

    request = {"population_size": 8, "generations": 2, "seed": 1}

    def workload():
        context = JobContext(Job("j-passive", "dse", request), JobManager(handlers={}))
        HANDLERS["dse"](context, request)

    # The streamed ``metrics`` events are observation output by design.
    assert_passive(workload, exclude=(_SERVE,))
