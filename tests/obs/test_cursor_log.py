"""The cursor-log contract shared by every ``since`` stream.

One parametrized suite runs over the three record shapes built on
:class:`repro.obs.events.CursorLog` — the event log, the span log and an
admission session's decision log — so the paging rules the HTTP
endpoints document hold for each of them.
"""

import random

import pytest

from repro.obs import EventLog, SpanLog
from repro.online import AdmissionController
from repro.online.trace import ArrivalEvent
from repro.service import AdmissionSession

CAPACITY = 4


class _Stream:
    """Append/seq adapter over one record shape."""

    def __init__(self, kind):
        self.kind = kind
        if kind == "events":
            self.log = EventLog(capacity=CAPACITY)
        elif kind == "spans":
            self.log = SpanLog(capacity=CAPACITY)
        else:
            self.session = AdmissionSession(
                "s", AdmissionController(), max_log=CAPACITY
            )
            self.log = self.session.decisions
        self.appended = 0

    def add(self):
        self.appended += 1
        if self.kind == "events":
            assert self.log.emit("test", f"e{self.appended}") is not None
        elif self.kind == "spans":
            assert self.log.record({"name": f"s{self.appended}"}) is not None
        else:
            # Departures of unknown names are decided without analysis.
            self.session.apply(
                ArrivalEvent.depart(f"ghost{self.appended}", time=self.appended)
            )

    def seq(self, item):
        if self.kind == "events":
            return item.seq
        if self.kind == "spans":
            return item["seq"]
        return item["index"] + 1

    def seqs(self, items):
        return [self.seq(item) for item in items]


@pytest.fixture(params=["events", "spans", "decisions"])
def stream(request):
    return _Stream(request.param)


def test_cursor_behind_evicted_window_gets_retained_suffix(stream):
    for _ in range(10):
        stream.add()
    assert len(stream.log) == CAPACITY
    items, next_cursor = stream.log.since(0)
    assert stream.seqs(items) == [7, 8, 9, 10]
    assert next_cursor == 10


def test_cursor_at_tail_and_beyond_end_parks_at_last_seq(stream):
    for _ in range(6):
        stream.add()
    for cursor in (6, 7, 1000):
        items, next_cursor = stream.log.since(cursor)
        assert items == []
        assert next_cursor == stream.log.last_seq == 6


def test_limit_pages_across_eviction(stream):
    for _ in range(3):
        stream.add()
    first, cursor = stream.log.since(0, limit=2)
    assert stream.seqs(first) == [1, 2]
    assert cursor == 2
    for _ in range(5):  # evicts seqs 1-4 while the poller is away
        stream.add()
    pages = []
    while True:
        items, next_cursor = stream.log.since(cursor, limit=3)
        if not items:
            break
        assert next_cursor == stream.seq(items[-1])
        pages.append(stream.seqs(items))
        cursor = next_cursor
    assert pages == [[5, 6, 7], [8]]
    assert cursor == stream.log.last_seq == 8


def test_non_positive_limit_returns_empty_page(stream):
    stream.add()
    assert stream.log.since(0, limit=0) == ([], 1)
    assert stream.log.since(0, limit=-3) == ([], 1)


def test_since_after_clear(stream):
    for _ in range(3):
        stream.add()
    stream.log.clear()
    assert len(stream.log) == 0
    assert stream.log.since(0) == ([], 3)
    stream.add()
    items, next_cursor = stream.log.since(0)
    assert stream.seqs(items) == [4]
    assert next_cursor == 4


def test_since_matches_a_linear_scan(stream):
    """Offset arithmetic agrees with filtering the retained seqs."""
    rng = random.Random(20240)
    for _ in range(30):
        stream.add()
        last = stream.log.last_seq
        retained = list(range(1, last + 1))[-CAPACITY:]
        for _ in range(6):
            cursor = rng.randint(-2, last + 2)
            limit = rng.randint(0, CAPACITY + 1)
            expected = [seq for seq in retained if seq > cursor][:limit]
            items, next_cursor = stream.log.since(cursor, limit)
            assert stream.seqs(items) == expected
            assert next_cursor == (expected[-1] if expected else last)
