"""Exact fleet execution.

:class:`FleetRunner` turns a :class:`~repro.fleet.spec.FleetSpec` into a
:class:`~repro.fleet.report.FleetReport` by running the whole fleet as
*one shard* of :func:`repro.fleet.stream.iter_shards`, the fleet shard
loop :func:`~repro.fleet.stream.stream_fleet` and the serve ``fleet``
job share:

1. every device's calibration key resolves through the shared
   :class:`~repro.fleet.cache.CalibrationCache` *in the parent process*
   (devices sharing a tech node + monitor design enroll exactly once);
2. the devices fan out through the :mod:`repro.exec` backbone in one
   contiguous chunk per worker (serially when ``parallel <= 1``), each
   chunk replayed by :func:`~repro.fleet.stream.simulate_devices`.
   Arming :mod:`repro.obs` adds the ``fleet.run`` span and
   run-boundary counters around it, never a different code path;
3. results come back in device-id order, so serial and parallel runs
   produce byte-identical reports.  :func:`record_fleet_run` writes
   the ``mode: run`` recording.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.batch import ENGINES as EVAL_ENGINES
from repro.errors import ConfigurationError
from repro.fleet.cache import CalibrationCache
from repro.fleet.report import DeviceResult, FleetReport
from repro.fleet.spec import FleetSpec
from repro.fleet.stream import DEFAULT_RESERVOIR_CAPACITY, DEFAULT_SHARD_SIZE
from repro.fleet.stream import iter_shards, stream_fleet
from repro.obs import OBS
from repro.trace.format import payload_digest


@dataclass
class FleetRunResult:
    """A finished run: the aggregate report plus execution metadata.

    Metadata (wall time, worker count, cache stats) lives here rather
    than on the report so that ``report.render()`` stays byte-identical
    between serial and parallel executions of the same fleet.
    """

    report: FleetReport
    elapsed: float
    jobs: int
    cache_entries: int
    cache_summary: str

    @property
    def parallel(self) -> int:
        """The requested worker count (alias of the ``jobs`` field)."""
        return self.jobs


class FleetRunner:
    """Execute a fleet, serially or across worker processes."""

    def __init__(
        self,
        fleet: FleetSpec,
        parallel: int = 1,
        cache: Optional[CalibrationCache] = None,
        eval_engine: str = "auto",
    ):
        if eval_engine not in EVAL_ENGINES:
            raise ConfigurationError(
                f"unknown eval engine {eval_engine!r}; choose from {EVAL_ENGINES}"
            )
        if parallel < 1:
            raise ConfigurationError("parallel must be >= 1")
        self.fleet = fleet
        self.parallel = parallel
        self.cache = cache if cache is not None else CalibrationCache()
        self.eval_engine = eval_engine

    def run(self, record=None) -> FleetRunResult:
        """Execute the fleet.

        ``record`` is the :mod:`repro.trace` seam: the run becomes one
        ``fleet`` recording whose header embeds the full declarative
        fleet spec, with one ``device`` event per device (in device
        order, parallel or not — results are order-preserved) carrying
        the digest of that device's result payload.  Any single device
        can then be replayed in isolation from the recording alone
        (``repro replay <trace> --device ID``).
        """
        start = time.perf_counter()
        hits0, misses0 = self.cache.stats.hits, self.cache.stats.misses
        with OBS.tracer.span(
            "fleet.run",
            fleet=self.fleet.name,
            devices=len(self.fleet.devices),
            parallel=self.parallel,
        ) as span:
            # One shard of the whole fleet, so each worker gets one
            # contiguous chunk: the kernel's throughput grows with lane
            # count, so each worker should see the biggest batch
            # load-balancing allows.
            [(_shard, results)] = iter_shards(
                self.fleet.devices,
                shard_size=len(self.fleet),
                parallel=self.parallel,
                cache=self.cache,
                eval_engine=self.eval_engine,
                label="fleet.batched",
            )
            report = FleetReport(fleet_name=self.fleet.name, results=results)
            if record is not None:
                record_fleet_run(
                    record, self.fleet, self.eval_engine, results, report=report
                )
            elapsed = time.perf_counter() - start
            cache_hits = self.cache.stats.hits - hits0
            cache_misses = self.cache.stats.misses - misses0
            span.set(
                elapsed=elapsed, cache_hits=cache_hits, cache_misses=cache_misses
            )
        OBS.metrics.incr("fleet.runs")
        OBS.metrics.incr("fleet.devices", len(results))
        OBS.metrics.observe("fleet.elapsed", elapsed)
        OBS.metrics.incr("fleet.cache_hits", cache_hits)
        OBS.metrics.incr("fleet.cache_misses", cache_misses)
        return FleetRunResult(
            report=report,
            elapsed=elapsed,
            jobs=self.parallel,
            cache_entries=len(self.cache),
            cache_summary=self.cache.stats.summary(),
        )

    def run_streaming(
        self,
        shard_size: Optional[int] = None,
        sample: float = 1.0,
        sample_seed: int = 0,
        capacity: Optional[int] = None,
        on_shard=None,
        record=None,
    ):
        """Execute the fleet shard by shard into mergeable sketches.

        The constant-memory counterpart of :meth:`run`: results are
        folded into a :class:`~repro.fleet.stream.FleetSketch` one
        shard at a time and never accumulated, so memory is flat in
        fleet size.  Returns a :class:`~repro.fleet.stream.
        FleetStreamResult` whose report's stats equal :meth:`run`'s
        exactly for fleets that fit the percentile reservoir (mean and
        energy totals are exact at *any* size).  See
        :func:`repro.fleet.stream.stream_fleet` for the knobs.
        """
        return stream_fleet(
            self.fleet.devices,
            name=self.fleet.name,
            parallel=self.parallel,
            cache=self.cache,
            eval_engine=self.eval_engine,
            sample=sample,
            sample_seed=sample_seed,
            shard_size=DEFAULT_SHARD_SIZE if shard_size is None else shard_size,
            capacity=DEFAULT_RESERVOIR_CAPACITY if capacity is None else capacity,
            on_shard=on_shard,
            record=record,
        )


def record_fleet_run(
    record,
    fleet: FleetSpec,
    eval_engine: str,
    results: List[DeviceResult],
    report: FleetReport,
) -> None:
    """Write one ``mode: run`` fleet recording from materialized results.

    The single source of truth for the fleet-run recording layout —
    shared by :meth:`FleetRunner.run` and the serve ``fleet`` handler so
    the two produce byte-identical recordings for the same fleet.
    ``results`` must be in ``fleet.devices`` order.  Wall-clock metadata
    stays out: the recording is a pure function of the fleet spec.
    """
    record.begin(
        "fleet",
        eval_engine,
        {"mode": "run", "fleet": fleet.to_dict(), "eval_engine": eval_engine},
    )
    for device, result in zip(fleet.devices, results):
        record.event(
            "device",
            device=device.device_id,
            digest=payload_digest(result.to_dict()),
            checkpoints=result.checkpoints,
            power_failures=result.power_failures,
        )
    record.finish({"report": report.to_dict()})


def run_fleet(
    fleet: FleetSpec,
    parallel: int = 1,
    cache: Optional[CalibrationCache] = None,
    eval_engine: str = "auto",
) -> FleetRunResult:
    """Convenience wrapper: build a runner and run it."""
    return FleetRunner(
        fleet,
        parallel=parallel,
        cache=cache,
        eval_engine=eval_engine,
    ).run()
