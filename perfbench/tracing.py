"""Span tracing for the benchmark's traced run, kept entirely outside ``repro``.

The traced run must execute the same code as the untraced one, so this
module never arms :mod:`repro.obs` (``OBS.enabled`` reroutes
``FleetRunner.run`` onto the per-device scalar path).  Instead it
replaces the public entry points of each layer with thin wrappers that
record a span around the original call, and puts the originals back
after the pass.

Spans are ``(id, name, start, end, parent, pass, pid, attrs)`` records
held in memory.  ``repro.exec`` forks its worker pools from the parent,
so wrappers installed before a fan-out run inside the workers too: a
worker notices the pid change, drops the spans it inherited, and after
every ``exec.chunk`` appends its own spans to ``worker-<pid>.jsonl``,
which the parent merges after each pass.  ``time.perf_counter`` is
``CLOCK_MONOTONIC`` on Linux, so worker and parent times share one axis.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span store with fork-aware worker flushing."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self.spans: List[dict] = []
        self._stack: List[str] = []
        self._seq = 0
        self.pass_id: Optional[str] = None
        #: Per-pass counters recorded by the benchmark itself (counts the
        #: program returns in its results rather than through a call).
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))

    # ------------------------------------------------------------------
    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # A forked worker: the parent's finished spans are not ours.
            # The open stack stays, so our spans point at the parent span
            # that was open when the pool forked.
            self._pid = pid
            self.spans = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        self._check_fork()
        self._seq += 1
        span_id = f"{self._pid}:{self._seq}"
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "pid": self._pid,
            "attrs": attrs,
        }
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def count(self, name: str, value: float) -> None:
        self.counts[self.pass_id][name] += value

    # ------------------------------------------------------------------
    def flush_worker(self) -> None:
        """Append this worker's finished spans to its own file."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"worker-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []

    def collect_workers(self) -> None:
        """Merge (and delete) every worker span file into the parent."""
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-*.jsonl"))):
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(json.loads(line) for line in handle if line.strip())
            os.unlink(path)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# Wrapping the layers' entry points
# ----------------------------------------------------------------------
def _wrap(
    tracer: Tracer,
    name: str,
    fn: Callable,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            if before is not None:
                attrs.update(before(args, kwargs))
            result = fn(*args, **kwargs)
            if after is not None:
                attrs.update(after(result, args))
            return result

    return wrapper


def _length(value) -> int:
    return len(value) if hasattr(value, "__len__") else 0


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[tuple] = []

    def function(self, module_name: str, attr: str, name: str, **hooks) -> None:
        """Wrap a module-level function in every ``repro`` module that
        imported it by name (``from x import f`` copies the binding)."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(self.tracer, name, original, **hooks)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def method(self, cls, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(self.tracer, name, original, **hooks))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics are derived from."""
    from repro.batch.engine import BatchHarvestEngine
    from repro.dse.nsga2 import NSGA2
    from repro.dse.objectives import PerformanceModel
    from repro.fleet.spec import DeviceSpec
    from repro.fleet.stream import FleetSketch
    from repro.harvest.simulator import IntermittentSimulator
    from repro.riscv.intermittent import IntermittentMachine
    from repro.riscv.runtime import CheckpointRuntime
    from repro.riscv.workloads import Workload

    p = Patches(tracer)
    # dse
    n_objectives = {"before": lambda a, k: {"n": _length(a[0] if a else k.get("objectives"))}}
    p.function("repro.dse.pareto", "non_dominated_sort", "dse.pareto", **n_objectives)
    p.function("repro.dse.pareto", "pareto_front", "dse.pareto", **n_objectives)
    p.function("repro.dse.grid", "grid_explore", "dse.grid")
    p.method(NSGA2, "run", "dse.nsga2")
    p.method(
        PerformanceModel, "evaluate_many", "dse.evaluate",
        before=lambda a, k: {"points": _length(a[1])},
    )
    # spice
    p.method(PerformanceModel, "spice_crosscheck", "spice.crosscheck")
    p.function(
        "repro.spice.charlib", "characterize_many", "spice.characterize",
        before=lambda a, k: {"sweeps": _length(a[0] if a else k.get("requests"))},
    )
    # harvest
    p.method(
        IntermittentSimulator, "run", "harvest.run",
        before=lambda a, k: {"engine": a[0].engine_name},
        after=lambda r, a: {"steps": r.steps},
    )
    p.method(DeviceSpec, "build_trace", "harvest.trace_synth")
    # batch
    p.function("repro.batch.dispatch", "evaluate_many", "batch.evaluate_many")
    p.method(
        BatchHarvestEngine, "run", "batch.kernel",
        before=lambda a, k: {"lanes": _length(a[1])},
    )
    # fleet
    p.function("repro.fleet.stream", "stream_fleet", "fleet.stream")
    p.function("repro.fleet.cache", "build_record", "fleet.enroll")
    p.method(FleetSketch, "update", "fleet.sketch")
    p.method(FleetSketch, "merge", "fleet.sketch")
    # exec: run_tasks in the parent, _apply_chunk wherever the chunk runs
    p.function("repro.exec.backbone", "run_tasks", "exec.run")
    _install_chunk_hook(p)
    # riscv
    p.method(IntermittentMachine, "run", "riscv.run")
    p.method(CheckpointRuntime, "checkpoint", "riscv.checkpoint")
    p.method(CheckpointRuntime, "restore", "riscv.checkpoint")
    p.method(Workload, "assemble", "riscv.assemble")
    return p


def _install_chunk_hook(p: Patches) -> None:
    """``_apply_chunk`` runs in the parent (serial) or in a forked worker
    (process backend, called from ``_run_chunk``); workers flush their
    spans after each chunk because pool workers never run ``atexit``."""
    import repro.exec.backbone as backbone

    tracer = p.tracer
    original = backbone._apply_chunk
    traced = _wrap(tracer, "exec.chunk", original, before=lambda a, k: {"tasks": len(a[1])})

    @functools.wraps(original)
    def chunk(*args, **kwargs):
        try:
            return traced(*args, **kwargs)
        finally:
            if os.getpid() != tracer.main_pid:
                tracer.flush_worker()

    p._undo.append((backbone, "_apply_chunk", original))
    backbone._apply_chunk = chunk


# ----------------------------------------------------------------------
# Deriving per-layer metrics from one pass's spans
# ----------------------------------------------------------------------
def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class PassSpans:
    """Index over one pass's spans: durations, self times, nesting."""

    def __init__(self, spans: List[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: Dict[str, List[dict]] = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def self_time(self, span: dict) -> float:
        """Duration minus what same-process children cover; children in
        a worker process overlap in wall time and are accounted by
        ``exec.overhead_s`` instead."""
        kids = [
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in self.children[span["id"]]
            if c["pid"] == span["pid"]
        ]
        return self.duration(span) - _union_length(k for k in kids if k[1] > k[0])

    def named(self, name: str) -> List[dict]:
        """Spans called ``name``, except those nested inside another
        ``name`` span (``pareto_front`` calls ``non_dominated_sort``)."""
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            parent = self.by_id.get(s["parent"])
            while parent is not None and parent["name"] != name:
                parent = self.by_id.get(parent["parent"])
            if parent is None:
                out.append(s)
        return out

    def total(self, name: str) -> float:
        return sum((self.duration(s) for s in self.named(name)), 0.0)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in self.named(name))

    def exec_overhead(self) -> float:
        """``run_tasks`` wall time minus its busiest worker's task time."""
        total = 0.0
        for run in self.named("exec.run"):
            busy: Dict[int, float] = defaultdict(float)
            for chunk in self.children[run["id"]]:
                if chunk["name"] == "exec.chunk":
                    busy[chunk["pid"]] += self.duration(chunk)
            total += self.duration(run) - max(busy.values(), default=0.0)
        return total

    def main_self_sum(self, main_pid: int) -> float:
        return sum(self.self_time(s) for s in self.spans if s["pid"] == main_pid)


def layer_metrics(spans: PassSpans, counts: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric for one pass (0 for idle layers)."""
    fast = [s for s in spans.named("harvest.run") if s["attrs"]["engine"] == "fast"]
    fast_s = sum(spans.duration(s) for s in fast)
    steps = float(sum(s["attrs"].get("steps", 0) for s in fast))
    pareto = spans.named("dse.pareto")
    return {
        "dse.pareto_s": spans.total("dse.pareto"),
        "dse.pareto_calls": float(len(pareto)),
        "dse.pareto_max_n": float(max((s["attrs"]["n"] for s in pareto), default=0)),
        "dse.evaluate_s": spans.total("dse.evaluate"),
        "dse.points": spans.attr_sum("dse.evaluate", "points"),
        "dse.nsga2_s": sum(spans.self_time(s) for s in spans.named("dse.nsga2")),
        "dse.front_size": counts.get("dse.front_size", 0.0),
        "spice.crosscheck_s": spans.total("spice.crosscheck"),
        "spice.sweeps": spans.attr_sum("spice.characterize", "sweeps"),
        "harvest.fast_s": fast_s,
        "harvest.steps": steps,
        "harvest.steps_per_s": steps / fast_s if fast_s > 0 else 0.0,
        "batch.dispatch_s": sum(
            spans.self_time(s) for s in spans.named("batch.evaluate_many")
        ),
        "harvest.trace_synth_s": spans.total("harvest.trace_synth"),
        "batch.kernel_s": spans.total("batch.kernel"),
        "batch.lanes": spans.attr_sum("batch.kernel", "lanes"),
        "fleet.enroll_s": spans.total("fleet.enroll"),
        "fleet.enrollments": float(len(spans.named("fleet.enroll"))),
        "fleet.sketch_s": spans.total("fleet.sketch"),
        "fleet.shards": counts.get("fleet.shards", 0.0),
        "exec.overhead_s": spans.exec_overhead(),
        "riscv.run_s": spans.total("riscv.run"),
        "riscv.checkpoint_s": spans.total("riscv.checkpoint"),
        "riscv.insns": counts.get("riscv.insns", 0.0),
        "riscv.power_cycles": counts.get("riscv.power_cycles", 0.0),
        "riscv.checkpoints": counts.get("riscv.checkpoints", 0.0),
        "riscv.restores": counts.get("riscv.restores", 0.0),
        "riscv.nvm_bytes": counts.get("riscv.nvm_bytes", 0.0),
        "riscv.assemble_s": spans.total("riscv.assemble"),
    }
