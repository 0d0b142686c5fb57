"""One event stream: the tracer and the recording see the same transitions.

Every engine reports its transitions (power-on, checkpoint, power
failure, power-off) once, through :func:`repro.obs.emitter`, which fans
out to the armed tracer (``family.kind``) and the ``record=`` sink
(``kind``).  With both armed, the tracer's event records must equal the
recording's events in order: same kind minus the family prefix, same
simulated ``t``, same payload.
"""

import pytest

import repro.obs as obs
from repro.batch.dispatch import evaluate_many
from repro.batch.scenario import Scenario
from repro.harvest.monitors import IdealMonitor
from repro.harvest.traces import constant_trace
from repro.obs import MemorySink, emitter
from repro.riscv import IntermittentMachine, assemble
from repro.trace import TraceRecorder


@pytest.fixture
def sink():
    memory = MemorySink()
    obs.configure(sink=memory)
    yield memory
    obs.reset()


def _traced(sink, family):
    prefix = family + "."
    out = []
    for record in sink.records:
        if record["type"] == "event" and record["name"].startswith(prefix):
            attrs = dict(record["attrs"])
            t = attrs.pop("t")
            out.append((record["name"][len(prefix):], t, attrs))
    return out


def _recorded(recorder):
    return [(e.kind, e.t, e.payload) for e in recorder.recording.events]


def _scenario(engine="fast", duration=5.0, level=2.0):
    return Scenario(
        monitor=IdealMonitor(),
        trace=constant_trace(level, duration),
        capacitance=22e-6,
        scalar_engine=engine,
    )


def _assert_parity(sink, family, recorder, kinds):
    recorded = _recorded(recorder)
    assert {kind for kind, _, _ in recorded} >= set(kinds), recorded[:5]
    assert _traced(sink, family) == recorded


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_scalar_harvest(sink, engine):
    scenario = _scenario(engine)
    recorder = TraceRecorder()
    scenario.run_scalar(record=recorder)
    _assert_parity(sink, "harvest", recorder, ["power_on", "checkpoint", "power_off"])


def test_batch_kernel_lanes(sink):
    scenarios = [_scenario(duration=3.0 + i, level=1.5 + 0.5 * i) for i in range(3)]
    recorder = TraceRecorder()
    evaluate_many(scenarios, engine="batch", record=recorder)
    _assert_parity(sink, "harvest", recorder, ["power_on", "checkpoint", "power_off"])
    lanes = {payload["lane"] for _, _, payload in _traced(sink, "harvest")}
    assert lanes == {0, 1, 2}


PROGRAM = """
    li   s0, 0
    li   s1, 40
    li   s2, 0
outer:
    li   t0, 0x80001000
    li   t1, 200
inner:
    lw   t2, 0(t0)
    add  s2, s2, t2
    addi s2, s2, 7
    sw   s2, 0(t0)
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, inner
    addi s0, s0, 1
    blt  s0, s1, outer
    mv   a0, s2
    ecall
"""


@pytest.mark.parametrize("engine", ["fast", "legacy"])
@pytest.mark.parametrize("differential", [False, True])
def test_riscv_machine(sink, engine, differential):
    machine = IntermittentMachine(
        assemble(PROGRAM),
        capacitance=2.2e-6,  # small enough to force checkpoints
        engine=engine,
        differential_checkpoints=differential,
    )
    recorder = TraceRecorder()
    result = machine.run(constant_trace(1.0, 7200.0), max_wall_time=7200.0, record=recorder)
    assert result.completed
    _assert_parity(sink, "riscv", recorder, ["power_on", "checkpoint"])
    checkpoint = next(p for k, _, p in _traced(sink, "riscv") if k == "checkpoint")
    assert {"bytes", "cycles", "instructions"} <= set(checkpoint)


def test_emitter_is_none_when_nobody_listens():
    obs.reset()
    assert emitter("harvest") is None
    assert emitter("harvest", TraceRecorder()) is not None
