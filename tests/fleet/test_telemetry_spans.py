"""The span stream of the fleet telemetry plane: cursor-guarded ingest."""

from repro.fleet import FleetTelemetry


def _span(seq, name):
    return {
        "seq": seq,
        "trace_id": "a" * 32,
        "span_id": f"{seq:016x}",
        "parent_id": None,
        "name": name,
        "start": float(seq),
        "duration": 0.001,
        "attrs": {"test": "qpa"},
    }


def test_ingest_spans_drops_replayed_page():
    telemetry = FleetTelemetry()
    page = [_span(1, "engine.analyze"), _span(2, "kernel.qpa")]
    assert telemetry.ingest_spans("w1", page, next_cursor=2) == 2
    # The same page again (a restarted scraper re-pulling with a stale
    # in-thread cursor) must not double-ingest.
    assert telemetry.ingest_spans("w1", page, next_cursor=2) == 0
    assert telemetry.cursors("w1") == (0, 2)
    records, _ = telemetry.spans.since(0)
    assert [r["name"] for r in records] == ["engine.analyze", "kernel.qpa"]
    assert all(r["attrs"] == {"test": "qpa", "worker": "w1"} for r in records)
    # Identity survives the merge; only the sequence is re-assigned.
    assert [r["span_id"] for r in records] == [s["span_id"] for s in page]
    view = telemetry.snapshot()["workers"]["w1"]
    assert view["spans_cursor"] == 2 and view["spans_ingested"] == 2
    assert view["events_cursor"] == 0 and view["events_ingested"] == 0


def test_ingest_spans_keeps_only_records_past_the_cursor():
    telemetry = FleetTelemetry()
    telemetry.ingest_spans("w1", [_span(1, "a"), _span(2, "b")], next_cursor=2)
    overlapping = [_span(2, "b"), _span(3, "c")]
    assert telemetry.ingest_spans("w1", overlapping, next_cursor=3) == 1
    records, _ = telemetry.spans.since(0)
    assert [r["name"] for r in records] == ["a", "b", "c"]


def test_ingest_spans_adopts_smaller_cursor_on_worker_restart():
    telemetry = FleetTelemetry()
    telemetry.ingest_spans("w1", [_span(7, "old")], next_cursor=7)
    # Worker process restarted: its sequence space begins again.
    assert telemetry.ingest_spans("w1", [_span(1, "fresh")], next_cursor=1) == 1
    assert telemetry.cursors("w1") == (0, 1)


def test_span_and_event_cursors_are_independent():
    telemetry = FleetTelemetry()
    telemetry.ingest_spans("w1", [_span(5, "s")], next_cursor=5)
    event = {"seq": 1, "ts": 1.0, "category": "c", "name": "e", "payload": {}}
    assert telemetry.ingest_events("w1", [event], next_cursor=1) == 1
    assert telemetry.cursors("w1") == (1, 5)
