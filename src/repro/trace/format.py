"""The ``repro.trace`` wire format: versioned headers, events, recordings.

A *recording* is the durable artifact of one run: a header naming the
run kind, engine id, seeds and a config payload sufficient to re-execute
the run from nothing else; an ordered stream of :class:`TraceEvent`
values capturing every decision the engine made (checkpoint fired,
power failed, device folded into a sketch, RNG consumed); and the final
result payload with its digest.  On disk a recording is JSONL — one
header line, one line per event, one result line — gzip-compressed
transparently when the path ends in ``.gz``.

Two recordings of the same run are *byte-identical*: every payload is
compared via :func:`canonical_json` (sorted keys, no whitespace), the
same convention ``tests/test_roundtrip.py`` enforces for every other
wire type in the repo.  Non-finite floats ride the stdlib ``Infinity``
policy (``docs/api.md``), so an ideal monitor's infinite sample rate
survives the trip.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Bump when the on-disk layout changes incompatibly.  Readers reject
#: versions they do not understand rather than misparse them.
TRACE_FORMAT_VERSION = 1

#: Recording kinds, one per engine family behind the ``record=`` seam.
KINDS = ("harvest", "batch", "riscv", "fleet")


def canonical_json(payload: Any) -> str:
    """The byte-identity form: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Any) -> str:
    """Short stable fingerprint of a JSON-ready payload."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceHeader:
    """Everything needed to re-execute the run: the declarative half.

    ``config`` must be a JSON-ready payload that the kind's replay
    runner can rebuild the run from alone — no ambient state.
    ``fingerprint`` is the digest of that config, so two recordings can
    be compared for "same run?" without walking their event streams.
    """

    kind: str
    engine: str
    config: Dict[str, Any]
    seeds: Dict[str, int] = field(default_factory=dict)
    version: int = TRACE_FORMAT_VERSION
    repro_version: str = ""
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown recording kind {self.kind!r}; choose from {KINDS}"
            )
        if self.version != TRACE_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported trace format version {self.version} "
                f"(this build reads version {TRACE_FORMAT_VERSION})"
            )

    @classmethod
    def create(
        cls,
        kind: str,
        engine: str,
        config: Dict[str, Any],
        seeds: Optional[Dict[str, int]] = None,
    ) -> "TraceHeader":
        """Build a header with the fingerprint and version filled in."""
        from repro import __version__

        return cls(
            kind=kind,
            engine=engine,
            config=config,
            seeds=dict(seeds or {}),
            repro_version=__version__,
            fingerprint=payload_digest(config),
        )

    def verify_fingerprint(self) -> bool:
        return self.fingerprint == payload_digest(self.config)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return {
            "version": self.version,
            "kind": self.kind,
            "engine": self.engine,
            "config": self.config,
            "seeds": self.seeds,
            "repro_version": self.repro_version,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceHeader":
        return cls(
            kind=data["kind"],
            engine=data["engine"],
            config=dict(data["config"]),
            seeds=dict(data.get("seeds", {})),
            version=int(data.get("version", TRACE_FORMAT_VERSION)),
            repro_version=data.get("repro_version", ""),
            fingerprint=data.get("fingerprint", ""),
        )


@dataclass(frozen=True)
class TraceEvent:
    """One engine decision: sequence number, kind, sim time, payload."""

    seq: int
    kind: str
    t: Optional[float] = None
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "t": self.t,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=int(data["seq"]),
            kind=data["kind"],
            t=data.get("t"),
            payload=dict(data.get("payload", {})),
        )

    def render(self) -> str:
        """Human one-liner used by diff messages."""
        parts = [f"[{self.seq}] {self.kind}"]
        if self.t is not None:
            parts.append(f"t={self.t:.6g}s")
        parts.extend(f"{k}={self.payload[k]}" for k in sorted(self.payload))
        return " ".join(parts)


def _open_text(path: str, mode: str) -> io.TextIOBase:
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


@dataclass
class Recording:
    """A complete run artifact: header + event stream + result payload."""

    header: TraceHeader
    events: List[TraceEvent] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    result_digest: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload; inverse of :meth:`from_dict` (the serve
        ``trace`` event / ``replay`` job wire format)."""
        return {
            "header": self.header.to_dict(),
            "events": [e.to_dict() for e in self.events],
            "result": self.result,
            "result_digest": self.result_digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Recording":
        return cls(
            header=TraceHeader.from_dict(data["header"]),
            events=[TraceEvent.from_dict(e) for e in data.get("events", [])],
            result=data.get("result"),
            result_digest=data.get("result_digest", ""),
        )

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write JSONL: header line, event lines, result line."""
        with _open_text(path, "w") as fh:
            fh.write(canonical_json({"header": self.header.to_dict()}) + "\n")
            for event in self.events:
                fh.write(canonical_json({"event": event.to_dict()}) + "\n")
            fh.write(
                canonical_json(
                    {"result": self.result, "result_digest": self.result_digest}
                )
                + "\n"
            )

    @classmethod
    def load(cls, path: str) -> "Recording":
        """Read a recording back; any malformed input is a
        :class:`ConfigurationError` naming ``path:line``."""
        header: Optional[TraceHeader] = None
        events: List[TraceEvent] = []
        result: Optional[Dict[str, Any]] = None
        result_digest = ""
        lineno = 0
        try:
            with _open_text(path, "r") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except ValueError:
                        raise ConfigurationError(
                            f"{path}:{lineno}: not a repro.trace recording "
                            "(bad JSON line)"
                        )
                    try:
                        if "header" in row:
                            header = TraceHeader.from_dict(row["header"])
                        elif "event" in row:
                            events.append(TraceEvent.from_dict(row["event"]))
                        elif "result" in row:
                            result = row["result"]
                            result_digest = row.get("result_digest", "")
                    except (KeyError, TypeError, ValueError, AttributeError) as exc:
                        raise ConfigurationError(
                            f"{path}:{lineno}: malformed recording row "
                            f"({type(exc).__name__}: {exc})"
                        )
        except OSError as exc:  # missing file, permissions, bad gzip
            raise ConfigurationError(f"cannot read recording {path}: {exc}")
        except EOFError:
            raise ConfigurationError(
                f"{path}:{lineno + 1}: truncated recording (compressed stream ends early)"
            )
        except UnicodeDecodeError:
            raise ConfigurationError(
                f"{path}: not a repro.trace recording (binary data)"
            )
        if header is None:
            raise ConfigurationError(f"{path}: not a repro.trace recording (no header line)")
        return cls(header=header, events=events, result=result, result_digest=result_digest)
