"""Hostile input over raw sockets: every malformed request gets a typed
4xx/501 with a JSON body, never a 500, and never a connection that is
held open forever.  Finished jobs evicted from the registry answer 410.
"""

import json
import socket
import time

import pytest

from repro.serve import ServeClient, ServerThread, app, jobs
from repro.serve.jobs import JobManager


@pytest.fixture(scope="module")
def server():
    manager = JobManager(handlers={"noop": lambda ctx, req: {}}, workers=1)
    with ServerThread(manager=manager) as live:
        yield live


def _exchange(port, data, timeout=10.0):
    """Send raw bytes, half-close, and read the full answer.

    A server that rejects a request before reading all of it may reset
    the connection after answering; the answer read so far stands.
    """
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def _parse(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    return status_line, json.loads(body.decode("utf-8"))


HOSTILE = {
    "content_length_not_a_number": (
        b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
        400,
    ),
    "content_length_negative": (
        b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
        400,
    ),
    "header_line_70kb": (
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
        431,
    ),
    "request_line_70kb": (
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        414,
    ),
    "body_over_limit": (
        b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (app.MAX_BODY_BYTES + 1),
        413,
    ),
    "body_truncated": (
        b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b'{"type": "no',
        400,
    ),
    "one_word_request_line": (b"GET\r\n\r\n", 400),
    "bad_http_version": (b"GET /healthz HTTP/9.9\r\n\r\n", 505),
    "unsupported_method": (b"PUT /jobs HTTP/1.1\r\n\r\n", 501),
}


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_typed_json_error(self, server, case):
        request, status = HOSTILE[case]
        status_line, payload = _parse(_exchange(server.port, request))
        assert status_line.startswith(f"HTTP/1.1 {status} "), status_line
        assert isinstance(payload["error"], str) and payload["error"]
        # The server is still healthy after every hostile request.
        assert ServeClient(port=server.port).health()["ok"] is True


class TestReadDeadline:
    def test_stalled_request_line_is_disconnected(self, server, monkeypatch):
        monkeypatch.setattr(app, "READ_TIMEOUT_S", 0.5)
        with socket.create_connection(("127.0.0.1", server.port), timeout=10.0) as sock:
            sock.sendall(b"GET /hea")  # half a request line, then nothing
            started = time.monotonic()
            # Other connections are served while the stalled one waits.
            assert ServeClient(port=server.port).health()["ok"] is True
            try:
                closed = sock.recv(1024) == b""
            except ConnectionResetError:
                closed = True
            assert closed
            assert time.monotonic() - started < 5.0


class TestEvictedJobs:
    def test_evicted_id_is_gone_unknown_id_is_404(self, server, monkeypatch):
        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 2)
        client = ServeClient(port=server.port)
        submitted = [client.submit("noop", {})["id"] for _ in range(3)]
        # One worker runs jobs FIFO: the last one done means all are.
        client.wait(submitted[-1], timeout=10.0)
        status, payload = client._request("GET", f"/jobs/{submitted[0]}")
        assert status == 410 and "evicted" in payload["error"]
        status, _ = client._request("GET", f"/jobs/{submitted[0]}/stream")
        assert status == 410
        status, _ = client._request("GET", "/jobs/j999999")
        assert status == 404
