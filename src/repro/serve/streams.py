"""Event encoding and per-subscriber buffering for the job service.

Two wire encodings of the same event dicts:

* **NDJSON** (the default, ``application/x-ndjson``) — one compact JSON
  object per line, trivially parsed by ``readline()`` loops;
* **SSE** (``text/event-stream``, selected via ``Accept``) — the
  browser-native ``event:``/``data:`` framing, same payloads.

:class:`Subscriber` is the back-pressure boundary between the compute
path and a stream consumer.  Publishing is a bounded-deque append under
a lock — it never blocks, whatever the consumer is doing.  When the
buffer is full the *oldest* event is dropped and counted; the next
:meth:`~Subscriber.drain` leads with a ``{"event": "dropped",
"count": n}`` marker so the consumer knows its view has a gap.  A slow
reader therefore costs itself events, never the job's wall time.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Callable, Dict, List, Optional

__all__ = [
    "DEFAULT_BUFFER_LIMIT",
    "Subscriber",
    "dropped_marker",
    "encode_ndjson",
    "encode_sse",
]

#: Per-subscriber buffer bound (events) before drop-oldest kicks in.
DEFAULT_BUFFER_LIMIT = 256


def encode_ndjson(event: Dict) -> bytes:
    """One event as a compact JSON line (``application/x-ndjson``)."""
    return (json.dumps(event, separators=(",", ":")) + "\n").encode("utf-8")


def encode_sse(event: Dict) -> bytes:
    """One event as a Server-Sent-Events frame (``text/event-stream``)."""
    name = event.get("event", "message")
    data = json.dumps(event, separators=(",", ":"))
    return f"event: {name}\ndata: {data}\n\n".encode("utf-8")


def dropped_marker(count: int) -> Dict:
    """The gap marker a drain leads with after drop-oldest fired."""
    return {"event": "dropped", "count": count}


class Subscriber:
    """One stream consumer's bounded event buffer.

    ``notify`` (optional) is called after every :meth:`push`, outside
    the buffer lock — the HTTP layer points it at a
    :class:`threading.Event`'s ``set`` to wake the stream writer thread.
    It must be cheap and must not raise.
    """

    def __init__(
        self,
        limit: int = DEFAULT_BUFFER_LIMIT,
        notify: Optional[Callable[[], None]] = None,
    ):
        if limit < 1:
            raise ValueError(f"subscriber buffer limit must be >= 1, got {limit}")
        self.limit = limit
        self.notify = notify
        self._lock = threading.Lock()
        self._events: deque = deque()
        self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def dropped(self) -> int:
        """Events lost to drop-oldest since the last drain."""
        with self._lock:
            return self._dropped

    def push(self, event: Dict) -> None:
        """Append one event; full buffers drop their oldest entry.

        Never blocks — this runs on the job worker thread, and a stalled
        consumer must not stall the compute path.
        """
        with self._lock:
            if len(self._events) >= self.limit:
                self._events.popleft()
                self._dropped += 1
            self._events.append(event)
        if self.notify is not None:
            self.notify()

    def drain(self) -> List[Dict]:
        """Take everything buffered, oldest first.

        If events were dropped since the last drain, the returned list
        leads with a :func:`dropped_marker` so the consumer sees the gap
        exactly where it happened.
        """
        with self._lock:
            events = list(self._events)
            self._events.clear()
            dropped, self._dropped = self._dropped, 0
        if dropped:
            return [dropped_marker(dropped)] + events
        return events
