"""The HTTP face of the job service: routing, streaming, lifecycle.

The transport is the stdlib's :class:`http.server.ThreadingHTTPServer`
with one :class:`~http.server.BaseHTTPRequestHandler` subclass — no
frameworks, no new dependencies, no hand-written request parsing.  One
thread per connection; compute never runs on those threads (jobs
execute on the :class:`~repro.serve.jobs.JobManager` worker threads and
fan out through :mod:`repro.exec` process pools), so a connection
thread only ever reads a small request and shovels bytes.

Routes (see ``docs/serving.md`` for the full API):

========  =========================  =======================================
 method    path                       behaviour
========  =========================  =======================================
 GET       /healthz                   liveness + version + job counts
 GET       /metrics                   obs counter snapshot (when armed)
 POST      /jobs                      submit ``{"type": t, "request": {...}}``
 GET       /jobs                      list all jobs
 GET       /jobs/<id>                 one job's status
 GET       /jobs/<id>/result          final result payload (done jobs)
 GET       /jobs/<id>/stream          NDJSON (default) or SSE event stream
 DELETE    /jobs/<id>                 cancel
========  =========================  =======================================

Every error, including the stdlib parser's own rejections (400, 414,
431, 501, 505), answers ``{"error": ...}`` JSON.  Streaming responses
replay the job's full event history, then follow live events until the
terminal ``end`` event; the writer thread sleeps on a per-subscriber
:class:`threading.Event` that the job's publisher sets.  The
subscriber's bounded buffer (see :mod:`repro.serve.streams`) is what
keeps a slow consumer from ever back-pressuring the compute path.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.serve.jobs import (
    JobEvictedError,
    JobManager,
    QueueFullError,
    TERMINAL_STATES,
    UnknownJobError,
)
from repro.serve.streams import encode_ndjson, encode_sse

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ReproServer", "ServerThread"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8733

#: Largest accepted request body (a fleet spec for ~100k devices).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Per-connection socket deadline (seconds): a client that stalls this
#: long mid-request is disconnected, as is a stream consumer that stops
#: reading for this long.
READ_TIMEOUT_S = 30.0


class _HttpError(Exception):
    """Routed straight to a JSON error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """One connection, one request; the app logic lives on ReproServer."""

    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate small writes; without
    # TCP_NODELAY, Nagle holds the second one until the client ACKs.
    disable_nagle_algorithm = True
    # The stdlib treats a request line without a version as HTTP/0.9 and
    # answers it with no status line at all; every answer here has one.
    default_request_version = "HTTP/1.0"

    def setup(self) -> None:
        self.timeout = READ_TIMEOUT_S  # read per connection, so it can be patched
        super().setup()

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass  # the service keeps stderr for its own output

    def send_json(self, status: int, payload: Dict) -> None:
        body = encode_ndjson(payload)  # one compact JSON line
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def send_error(self, code: int, message=None, explain=None) -> None:
        """The stdlib parser's rejections, in the service's JSON shape."""
        self.send_json(code, {"error": message or self.responses[code][0]})

    def read_body(self) -> bytes:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise _HttpError(
                400, f"Content-Length must be a non-negative integer, got {raw!r}"
            )
        length = int(raw)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length)
        if len(body) < length:
            raise _HttpError(400, f"request body is {len(body)} of {length} bytes")
        return body

    def dispatch(self) -> None:
        try:
            return self.server.app._route(self, self.read_body())
        except _HttpError as exc:
            status, error = exc.status, str(exc)
        except JobEvictedError as exc:
            status, error = 410, str(exc)
        except UnknownJobError as exc:
            status, error = 404, str(exc)
        except OSError:
            return  # the client went away, stalled, or stopped reading
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            status, error = 500, f"{type(exc).__name__}: {exc}"
        try:
            self.send_json(status, {"error": error})
        except OSError:
            pass

    do_GET = do_POST = do_DELETE = dispatch


class _HTTPServer(ThreadingHTTPServer):
    # An open event stream must not hold up stop(); its writer thread
    # exits on its own once the server is down.
    block_on_close = False

    def __init__(self, app: "ReproServer"):
        self.app = app
        super().__init__((app.host, app.port), _Handler)


class ReproServer:
    """The long-lived simulation service.

    ``port=0`` binds an ephemeral port (tests); the bound port is
    available as :attr:`port` once the server is up.  ``manager`` may be
    injected to share caches or stub handlers; otherwise one is built
    from ``workers``/``queue_depth``/``buffer_limit``.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        workers: int = 2,
        queue_depth: int = 16,
        buffer_limit: int = 256,
        manager: Optional[JobManager] = None,
    ):
        self.host = host
        self.port = port
        self.manager = manager or JobManager(
            workers=workers, queue_depth=queue_depth, buffer_limit=buffer_limit
        )
        self._httpd: Optional[_HTTPServer] = None
        self._ready = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self, on_ready=None) -> None:
        """Blocking entry point: serve until :meth:`stop`; Ctrl-C stops cleanly."""
        self.manager.start()
        try:
            self._httpd = _HTTPServer(self)
            self.port = self._httpd.server_address[1]
            self._ready.set()
            if on_ready is not None:
                on_ready(self)
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self._ready.clear()
            httpd, self._httpd = self._httpd, None
            if httpd is not None:
                httpd.server_close()
            self.manager.stop()

    def stop(self) -> None:
        """Stop the accept loop (threadsafe; returns once it has stopped)."""
        httpd = self._httpd
        if httpd is not None:
            httpd.shutdown()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, request: _Handler, body: bytes) -> None:
        method = request.command
        split = urlsplit(request.path)
        query = parse_qs(split.query)
        parts = [p for p in split.path.split("/") if p]
        if parts == ["healthz"] and method == "GET":
            return request.send_json(200, self._health())
        if parts == ["metrics"] and method == "GET":
            return request.send_json(200, self._metrics())
        if parts == ["jobs"]:
            if method == "POST":
                return request.send_json(*self._submit(body))
            if method == "GET":
                return request.send_json(
                    200, {"jobs": [j.to_dict() for j in self.manager.jobs()]}
                )
            raise _HttpError(405, f"{method} not allowed on /jobs")
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            job = self.manager.get(job_id)  # 404 unknown, 410 evicted
            if len(parts) == 2:
                if method == "GET":
                    return request.send_json(200, job.to_dict())
                if method == "DELETE":
                    return request.send_json(
                        200, self.manager.cancel(job_id).to_dict()
                    )
                raise _HttpError(405, f"{method} not allowed on /jobs/<id>")
            if parts[2] == "result" and method == "GET":
                return request.send_json(*self._result(job))
            if parts[2] == "stream" and method == "GET":
                accept = request.headers.get("Accept", "")
                sse = "sse" in query or "text/event-stream" in accept
                return self._stream(job_id, request, sse=sse)
            raise _HttpError(404, f"unknown endpoint /jobs/<id>/{parts[2]}")
        raise _HttpError(404, f"unknown path {split.path!r}")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _health(self) -> Dict:
        states: Dict[str, int] = {}
        for job in self.manager.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "ok": True,
            "version": __version__,
            "queue_depth": self.manager.queue_depth,
            "queued": self.manager.queue_length(),
            "workers": self.manager.workers,
            "jobs": states,
        }

    def _metrics(self) -> Dict:
        if not OBS.metrics.enabled:
            return {"enabled": False}
        snap = OBS.metrics.snapshot()
        return {"enabled": True, "counters": snap["counters"], "ops": snap["ops"]}

    def _submit(self, body: bytes) -> Tuple[int, Dict]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _HttpError(400, "request body must be JSON")
        if not isinstance(payload, dict) or "type" not in payload:
            raise _HttpError(400, 'submit payload must be {"type": ..., "request": {...}}')
        try:
            job = self.manager.submit(payload["type"], payload.get("request", {}))
        except QueueFullError as exc:
            return 503, {"error": str(exc), "retry": True}
        except ConfigurationError as exc:
            raise _HttpError(400, str(exc))
        return 202, {"job": job.to_dict()}

    def _result(self, job) -> Tuple[int, Dict]:
        if job.state == "done":
            return 200, {"job": job.to_dict(), "result": job.result}
        if job.state in TERMINAL_STATES:
            return 409, {"job": job.to_dict(), "error": job.error or job.state}
        return 409, {"job": job.to_dict(), "error": f"job is {job.state}"}

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def _stream(self, job_id: str, request: _Handler, sse: bool) -> None:
        wake = threading.Event()
        job, subscriber, replay = self.manager.subscribe(job_id, notify=wake.set)
        encode = encode_sse if sse else encode_ndjson
        try:
            request.send_response(200)
            request.send_header(
                "Content-Type", "text/event-stream" if sse else "application/x-ndjson"
            )
            request.send_header("Cache-Control", "no-store")
            request.send_header("Connection", "close")
            request.end_headers()
            request.wfile.write(b"".join(encode(event) for event in replay))
            ended = any(event.get("event") == "end" for event in replay)
            while not ended:
                batch = subscriber.drain()
                if not batch:
                    # The 0.5 s timeout is a liveness backstop (the server
                    # stopping mid-stream), not the normal wake path.
                    if not wake.wait(timeout=0.5) and (
                        not self._ready.is_set()
                        or (job.state in TERMINAL_STATES and not len(subscriber))
                    ):
                        break
                    wake.clear()
                    continue
                # Back-pressure lands HERE, on this subscriber's socket
                # only — the job keeps publishing into the bounded
                # buffer (dropping oldest) while the write blocks.
                request.wfile.write(b"".join(encode(event) for event in batch))
                ended = any(event.get("event") == "end" for event in batch)
        finally:
            job.unsubscribe(subscriber)


class ServerThread:
    """A live server on a background thread (tests, benchmarks).

    ::

        with ServerThread(workers=1) as server:
            client = ServeClient(port=server.port)
            ...

    Binds an ephemeral port by default; ``__enter__`` returns the
    running :class:`ReproServer` with :attr:`~ReproServer.port` bound.
    """

    def __init__(self, **kwargs):
        kwargs.setdefault("port", 0)
        self.server = ReproServer(**kwargs)
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> ReproServer:
        self._thread = threading.Thread(
            target=self.server.run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self.server._ready.wait(timeout=10.0):
            raise RuntimeError("serve thread failed to come up within 10 s")
        return self.server

    def __exit__(self, *exc_info) -> None:
        self.server.stop()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
