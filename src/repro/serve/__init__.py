"""``repro.serve`` — the long-lived simulation service.

Failure-Sentinels simulations as traffic: a stdlib-only
(``http.server.ThreadingHTTPServer``) HTTP job service that accepts
fleet / DSE / experiment / characterization requests as the library's
own ``to_dict`` JSON payloads, queues them through a bounded FIFO onto
a worker pool, and streams incremental results — per-device
:class:`DeviceResult`\\ s, generation-by-generation Pareto fronts, live
obs counter snapshots — as NDJSON or SSE while the job runs.
Calibration and characterization caches are process-lifetime and shared
across requests, so a warm server answers repeat workloads without
re-paying SPICE.

Layering (modeled on a server/streaming/exporter split):

* :mod:`repro.serve.app` — the stdlib HTTP transport, routing, the
  stream writer;
* :mod:`repro.serve.jobs` — queue, job state machine, worker pool,
  cancellation, the shared caches;
* :mod:`repro.serve.streams` — NDJSON/SSE encoders and the bounded
  per-subscriber buffers (drop-oldest back-pressure);
* :mod:`repro.serve.handlers` — per-job-type adapters over
  :mod:`repro.api`;
* :mod:`repro.serve.client` — blocking submit/stream/result/cancel
  helpers used by tests, benchmarks, and examples.

Start it with ``python -m repro serve --port 8733 --workers 2``; the
full HTTP API is documented in ``docs/serving.md``.
"""

from repro.serve.app import DEFAULT_HOST, DEFAULT_PORT, ReproServer, ServerThread
from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobCancelled,
    JobContext,
    JobEvictedError,
    JobManager,
    QueueFullError,
    UnknownJobError,
)
from repro.serve.streams import Subscriber, encode_ndjson, encode_sse

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "JOB_STATES",
    "Job",
    "JobCancelled",
    "JobContext",
    "JobEvictedError",
    "JobManager",
    "QueueFullError",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "ServerThread",
    "Subscriber",
    "TERMINAL_STATES",
    "UnknownJobError",
    "encode_ndjson",
    "encode_sse",
]
