"""The four benchmark workloads, driven only through ``repro``'s public API.

Each workload turns a seed into inputs (``setup``) and runs one timed
pass over them (``run_pass``).  A pass returns its operations, each a
``(key, payload, problem)`` triple whose payload is digested against
``golden.json`` after the clock stops, plus the work it did in the
workload's own unit and the counts the traced run reports.

Inputs come from one of ``VARIANTS`` seeded variants (``seed % VARIANTS``)
so that every input has a committed golden digest.  Why each workload
exists, and which layer it loads, is recorded in ``README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Input variants per workload; golden digests exist for each.
VARIANTS = 16

Op = Tuple[str, object, Optional[str]]


@dataclass
class PassResult:
    ops: List[Op]
    work: float
    counts: Dict[str, float] = field(default_factory=dict)


def _problem(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
class Explore:
    """Design-space exploration on each technology card: a seeded grid
    sample through ``explore_grid``, NSGA-II, their union Pareto front,
    and a cold SPICE cross-check of the front's shortest rings."""

    name = "explore"
    unit = "points_per_s"
    processes = 1
    #: Points sampled per node from the 23 520-point standard grid (1/6).
    GRID_SAMPLE = 3920
    POPULATION = 60
    GENERATIONS = 30
    #: Distinct front ring lengths cross-checked in SPICE (shortest
    #: first; a 53-stage ring transient alone takes 5-14 s).
    CROSSCHECK_RINGS = 1

    def setup(self, variant: int):
        from repro import api
        from repro.tech import ALL_NODES

        rng = random.Random(1000 + variant)
        nodes = []
        for tech in ALL_NODES:
            space = api.DesignSpace(tech)
            grid = space.grid_points()
            picked = sorted(rng.sample(range(len(grid)), self.GRID_SAMPLE))
            nodes.append((tech.name, space, [grid[i] for i in picked]))
        return {"variant": variant, "nodes": nodes, "ga_seed": 1 + variant}

    def run_pass(self, inputs) -> PassResult:
        from repro import api
        from repro.dse import pareto_front

        ops: List[Op] = []
        work = 0.0
        front_size = 0
        for tech_name, space, points in inputs["nodes"]:
            key = f"v{inputs['variant']}/{tech_name}"
            try:
                model = api.PerformanceModel(space)
                grid = api.explore_grid(model, points)
                ga = api.nsga2(
                    model,
                    population_size=self.POPULATION,
                    generations=self.GENERATIONS,
                    seed=inputs["ga_seed"],
                )
                union = grid.pareto + ga.pareto()
                front = [union[i] for i in pareto_front([e.objectives() for e in union])]
                by_length = {}
                for evaluation in front:
                    by_length.setdefault(evaluation.point.ro_length, evaluation.point)
                rings = [by_length[n] for n in sorted(by_length)[: self.CROSSCHECK_RINGS]]
                crosscheck = model.spice_crosscheck(rings, cache=api.CharacterizationCache())
            except Exception as exc:  # noqa: BLE001 - a failed node is a failed op
                ops.append((key, None, _problem(exc)))
                continue
            work += len(points) + ga.evaluated_total
            front_size += len(front)
            ops.append((key, {"front": front, "crosscheck": crosscheck}, None))
        return PassResult(ops, work, {"dse.front_size": front_size})

    @staticmethod
    def canonical(payload):
        return {
            "front": [e.to_dict() for e in payload["front"]],
            "crosscheck": payload["crosscheck"],
        }


# ----------------------------------------------------------------------
class Diurnal:
    """Four monitors over one compressed outdoor day on the scalar fast
    harvest engine, through ``compare_monitors``' ``auto`` dispatch."""

    name = "diurnal"
    unit = "sim_s_per_s"
    processes = 1
    #: The day is compressed to 2 h (sunrise at 1/4, sunset at 5/6, the
    #: 6 h/20 h shape of ``diurnal_trace``'s 24 h default) so that a pass
    #: fits the run several times; a full day takes about 28 s.
    DAY_S = 7200.0
    TRACE_DT = 5.0
    DT = 2e-3

    def setup(self, variant: int):
        from repro.harvest import (
            ADCMonitor,
            ComparatorMonitor,
            IdealMonitor,
            diurnal_trace,
            fs_low_power_monitor,
        )

        trace = diurnal_trace(
            duration=self.DAY_S,
            dt=self.TRACE_DT,
            sunrise=self.DAY_S / 4,
            sunset=self.DAY_S * 5 / 6,
            seed=100 + variant,
        )
        monitors = [IdealMonitor(), fs_low_power_monitor(), ComparatorMonitor(), ADCMonitor()]
        return {"variant": variant, "trace": trace, "monitors": monitors}

    def run_pass(self, inputs) -> PassResult:
        from repro import api

        monitors = inputs["monitors"]
        try:
            reports = api.compare_monitors(
                monitors, inputs["trace"], dt=self.DT, scalar_engine="fast"
            )
        except Exception as exc:  # noqa: BLE001 - every monitor-day is lost
            problem = _problem(exc)
            return PassResult(
                [(f"v{inputs['variant']}/{m.name}", None, problem) for m in monitors], 0.0
            )
        ops = [(f"v{inputs['variant']}/{r.monitor_name}", r, None) for r in reports]
        return PassResult(ops, sum(r.duration for r in reports))

    @staticmethod
    def canonical(payload):
        return payload.to_dict()


# ----------------------------------------------------------------------
class Fleet:
    """A heterogeneous night-time fleet streamed in shards over two
    worker processes through the lockstep batch kernel."""

    name = "fleet"
    unit = "devices_per_s"
    DEVICES = 192
    #: 64-device shards: three shards, 32 lanes per worker kernel call.
    SHARD = 64
    processes = 2

    def setup(self, variant: int):
        from repro import api

        devices = list(
            api.iter_synthesized_devices(
                self.DEVICES, seed=1000 + variant, duration=300.0, trace="nyc_pedestrian_night"
            )
        )
        return {"variant": variant, "devices": devices}

    def run_pass(self, inputs) -> PassResult:
        from repro import api

        snapshots: List[dict] = []
        shards = -(-len(inputs["devices"]) // self.SHARD)
        keys = [f"v{inputs['variant']}/shard{k}" for k in range(shards)]
        try:
            result = api.stream_fleet(
                iter(inputs["devices"]),
                parallel=self.processes,
                shard_size=self.SHARD,
                on_shard=lambda index, sketch: snapshots.append(sketch.to_dict()),
            )
        except Exception as exc:  # noqa: BLE001 - unfinished shards are failed ops
            problem = _problem(exc)
            return PassResult(
                [(key, snap, None) for key, snap in zip(keys, snapshots)]
                + [(key, None, problem) for key in keys[len(snapshots):]],
                0.0,
            )
        ops: List[Op] = [(key, snap, None) for key, snap in zip(keys, snapshots)]
        # The final report rides on the last shard's digest.
        last_key, last_snap, _ = ops[-1]
        ops[-1] = (last_key, {"sketch": last_snap, "report": result.report.to_dict()}, None)
        return PassResult(ops, float(result.devices_simulated), {"fleet.shards": result.shards})

    @staticmethod
    def canonical(payload):
        return payload


# ----------------------------------------------------------------------
class Riscv:
    """All five ISS kernels on the fast engine at a few microfarads, once
    with full-image and once with differential checkpoints."""

    name = "riscv"
    unit = "insns_per_s"
    processes = 1
    IRRADIANCE = 1.0
    HORIZON_S = 3600.0

    @staticmethod
    def capacitance(variant: int) -> float:
        # 3.9 .. 5.4 uF around the 4.7 uF that gives fletcher 11 power cycles.
        return (39 + variant) * 1e-7

    def setup(self, variant: int):
        from repro import api
        from repro.harvest.traces import constant_trace

        names = sorted(api.WORKLOADS)
        random.Random(variant).shuffle(names)
        programs = [(name, api.WORKLOADS[name].assemble()) for name in names]
        return {
            "variant": variant,
            "programs": programs,
            "capacitance": self.capacitance(variant),
            "trace": constant_trace(self.IRRADIANCE, self.HORIZON_S),
        }

    def run_pass(self, inputs) -> PassResult:
        from repro import api

        ops: List[Op] = []
        counts = dict.fromkeys(
            ("riscv.insns", "riscv.power_cycles", "riscv.checkpoints",
             "riscv.restores", "riscv.nvm_bytes"),
            0,
        )
        for name, program in inputs["programs"]:
            expected = api.WORKLOADS[name].expected_exit_code()
            for differential in (False, True):
                key = f"v{inputs['variant']}/{name}/{'diff' if differential else 'full'}"
                try:
                    machine = api.IntermittentMachine(
                        program,
                        capacitance=inputs["capacitance"],
                        engine="fast",
                        differential_checkpoints=differential,
                    )
                    result = machine.run(trace=inputs["trace"], max_wall_time=self.HORIZON_S)
                except Exception as exc:  # noqa: BLE001 - a failed kernel run is a failed op
                    ops.append((key, None, _problem(exc)))
                    continue
                problem = None
                if not result.completed or result.exit_code != expected:
                    problem = (
                        f"exit code {result.exit_code} (completed={result.completed}), "
                        f"reference says {expected}"
                    )
                payload = {
                    "result": result.to_dict(),
                    "checkpoints_taken": machine.runtime.checkpoints_taken,
                    "restores_done": machine.runtime.restores_done,
                    "nvm_bytes_written": machine.memory.nvm_bytes_written,
                }
                ops.append((key, payload, problem))
                counts["riscv.insns"] += result.instructions
                counts["riscv.power_cycles"] += result.power_cycles
                counts["riscv.checkpoints"] += result.checkpoints
                counts["riscv.restores"] += result.restores
                counts["riscv.nvm_bytes"] += machine.memory.nvm_bytes_written
        return PassResult(ops, float(counts["riscv.insns"]), counts)

    @staticmethod
    def canonical(payload):
        return payload


WORKLOADS = {w.name: w for w in (Explore(), Diurnal(), Fleet(), Riscv())}
