"""Structured events: typed records, a ring buffer, and a JSONL journal.

An :class:`Event` is the unit the fleet coordinator (ROADMAP) will
consume: a timestamp, a coarse *category* (``service``, ``kernel``,
``admission``, ``trace``, ``resource``), a dotted *name*
(``job.started``, ``kernel.rescale``), and a small JSON-able payload.

Two sinks, both always consistent:

* an **in-memory ring buffer** with a monotonically increasing sequence
  cursor — a :class:`CursorLog`, the ring every ``since`` stream of the
  program shares, and the backing store of ``/v1/events?since=``.
  The cursor survives eviction (``since`` past the evicted prefix just
  returns the retained suffix), which makes polling clients trivial;
* an optional **append-only JSONL journal** with size-capped rotation
  (``path`` → ``path.1`` … ``path.N``): one JSON document per line, no
  framing, safe to ``tail`` and safe to parse after a crash (a torn
  final line is skipped by any line-wise reader).

Emission is cheap and never raises into the instrumented caller: a
disabled switch (see :mod:`repro.obs.metrics`) short-circuits before
any payload formatting, and journal I/O errors disable the journal
rather than poison the hot path.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Deque, Dict, Generic, List, Optional, Tuple, TypeVar

from .metrics import counter, is_enabled

__all__ = [
    "CursorLog",
    "Event",
    "EventLog",
    "RotatingJournal",
    "event_log",
    "emit",
]

T = TypeVar("T")


class RotatingJournal:
    """Append-only JSONL file with size-capped rotation.

    The write path shared by the event log and the span log: one JSON
    document per line, rotation ``path`` → ``path.1`` … ``path.N`` once
    *max_bytes* is exceeded, and any :class:`OSError` (full disk,
    revoked mount) closes the journal instead of raising into the
    instrumented caller.
    """

    def __init__(
        self,
        path: str,
        max_bytes: int = 4 * 1024 * 1024,
        backups: int = 2,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self._lock = threading.Lock()
        self._path = path
        self._max_bytes = max_bytes
        self._backups = max(0, backups)
        self._handle: Optional[io.TextIOWrapper] = open(
            path, "a", encoding="utf-8"
        )
        self._size = self._handle.tell()

    @property
    def path(self) -> str:
        return self._path

    @property
    def closed(self) -> bool:
        return self._handle is None

    def write_line(self, line: str) -> None:
        """Append one line; never raises (errors close the journal)."""
        with self._lock:
            handle = self._handle
            if handle is None:
                return
            try:
                handle.write(line)
                handle.write("\n")
                handle.flush()
                self._size += len(line) + 1
                if self._size >= self._max_bytes:
                    self._rotate_locked()
            except OSError:
                # A full disk must not take the analysis down with it.
                self._close_locked()

    def _rotate_locked(self) -> None:
        assert self._handle is not None
        self._handle.close()
        path = self._path
        if self._backups > 0:
            oldest = f"{path}.{self._backups}"
            if os.path.exists(oldest):
                os.remove(oldest)
            for index in range(self._backups - 1, 0, -1):
                src = f"{path}.{index}"
                if os.path.exists(src):
                    os.replace(src, f"{path}.{index + 1}")
            os.replace(path, f"{path}.1")
        else:
            os.remove(path)
        self._handle = open(path, "a", encoding="utf-8")
        self._size = 0

    def _close_locked(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close failure is benign
                pass
        self._handle = None

    def close(self) -> None:
        with self._lock:
            self._close_locked()

_EVENTS_TOTAL = counter(
    "repro_events_emitted_total",
    "Structured events emitted, by category.",
    labelnames=("category",),
)


@dataclass(frozen=True)
class Event:
    """One structured observability record."""

    seq: int
    ts: float
    category: str
    name: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "category": self.category,
            "name": self.name,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Event":
        return cls(
            seq=int(document.get("seq", 0)),
            ts=float(document.get("ts", 0.0)),
            category=str(document.get("category", "")),
            name=str(document.get("name", "")),
            payload=dict(document.get("payload") or {}),
        )


class CursorLog(Generic[T]):
    """A bounded ring of records under one contiguous absolute sequence.

    Every ``since`` stream of the program sits on this class: the event
    log, the span log, an admission session's decision log, and the
    fleet's merged copies of the first two.  Each appended record takes
    the next sequence number (1, 2, 3, ...) and the ring keeps the
    newest *capacity* of them.  Eviction and :meth:`clear` only ever
    drop a prefix, so the retained seqs are always the contiguous run
    ending at :attr:`last_seq`; :meth:`since` finds its page by offset
    arithmetic on that run instead of comparing seqs.

    The cursor survives eviction: ``since`` behind the evicted prefix
    just returns the retained suffix, which makes polling clients
    trivial.  An optional :class:`RotatingJournal` receives one JSON
    line per record.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._ring: Deque[T] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._journal: Optional[RotatingJournal] = None

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------

    def attach_journal(
        self,
        path: str,
        max_bytes: int = 4 * 1024 * 1024,
        backups: int = 2,
    ) -> None:
        """Start appending records to *path* with size-capped rotation.

        When the file exceeds *max_bytes* it is renamed to ``path.1``
        (existing backups shift up, the oldest past *backups* is
        dropped) and a fresh file is started.
        """
        journal = RotatingJournal(path, max_bytes=max_bytes, backups=backups)
        with self._lock:
            if self._journal is not None:
                self._journal.close()
            self._journal = journal

    def detach_journal(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
            self._journal = None

    @property
    def journal_path(self) -> Optional[str]:
        journal = self._journal
        if journal is None or journal.closed:
            return None
        return journal.path

    def _journal_line(self, item: T) -> str:
        """One record as its journal line."""
        return json.dumps(item, separators=(",", ":"), default=str)

    # ------------------------------------------------------------------
    # Appends and reads
    # ------------------------------------------------------------------

    def append(self, item: T) -> int:
        """Append one record; returns the sequence number it took."""
        with self._lock:
            self._seq += 1
            self._ring.append(item)
            if self._journal is not None:
                self._journal.write_line(self._journal_line(item))
            return self._seq

    def since(self, cursor: int = 0, limit: int = 500) -> Tuple[List[T], int]:
        """Records with ``seq > cursor`` (oldest first) and the next cursor.

        The next cursor is the seq of the last record returned, or
        :attr:`last_seq` when the page is empty, so a poller parked at
        (or past) the tail stays there.  The copy walks in from
        whichever end of the ring is nearer the page, so a tail page —
        the polling case — costs its own length, not the ring's.
        """
        with self._lock:
            size = len(self._ring)
            first = self._seq - size + 1  # seq of the oldest retained record
            start = max(cursor + 1, first) - first
            stop = min(size, start + limit)
            if start >= stop:
                return [], self._seq
            if start <= size - stop:
                items = list(islice(self._ring, start, stop))
            else:
                items = list(
                    islice(reversed(self._ring), size - stop, size - start)
                )
                items.reverse()
            return items, first + stop - 1

    @property
    def last_seq(self) -> int:
        return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        """Drop every retained record (the cursor keeps advancing; tests)."""
        with self._lock:
            self._ring.clear()


class EventLog(CursorLog[Event]):
    """The structured-event stream: :class:`Event` records on a cursor log."""

    def __init__(self, capacity: int = 2048) -> None:
        super().__init__(capacity)

    def _journal_line(self, item: Event) -> str:
        return json.dumps(item.to_dict(), separators=(",", ":"))

    def _add(
        self,
        ts: Optional[float],
        category: str,
        name: str,
        payload: Dict[str, Any],
    ) -> Event:
        with self._lock:
            self._seq += 1
            event = Event(
                self._seq,
                time.time() if ts is None else ts,
                category,
                name,
                payload,
            )
            self._ring.append(event)
            if self._journal is not None:
                self._journal.write_line(self._journal_line(event))
        return event

    def emit(
        self, category: str, name: str, /, **payload: Any
    ) -> Optional[Event]:
        """Record one event; returns it, or ``None`` when disabled.

        ``category`` and ``name`` are positional-only so payload keys
        may reuse those words (``emit("x", "y", name="job-7")``).
        """
        if not is_enabled():
            return None
        event = self._add(None, category, name, payload)
        _EVENTS_TOTAL.labels(category).inc()
        return event

    def ingest(
        self, document: Dict[str, Any], worker: str = ""
    ) -> Optional[Event]:
        """Replay another process's event into this log (worker merge).

        The original timestamp, category, name, and payload are kept;
        the sequence number is re-assigned by *this* log, and a
        ``worker`` payload key tags provenance.  Unlike :meth:`emit`
        this does not bump ``repro_events_emitted_total`` — the worker
        already counted the emission in its metrics delta.
        """
        if not is_enabled():
            return None
        payload = dict(document.get("payload") or {})
        if worker:
            payload.setdefault("worker", worker)
        return self._add(
            float(document.get("ts") or time.time()),
            str(document.get("category", "")),
            str(document.get("name", "")),
            payload,
        )

    def page(self, cursor: int = 0, limit: int = 500) -> Dict[str, Any]:
        """One ``/v1/events`` cursor page: ``{"since", "next", "events"}``."""
        events, next_cursor = self.since(cursor, limit)
        return {
            "since": cursor,
            "next": next_cursor,
            "events": [event.to_dict() for event in events],
        }


_LOG = EventLog()


def event_log() -> EventLog:
    """The process-global event log."""
    return _LOG


def emit(category: str, name: str, /, **payload: Any) -> Optional[Event]:
    """Emit one event on the global log."""
    return _LOG.emit(category, name, **payload)
