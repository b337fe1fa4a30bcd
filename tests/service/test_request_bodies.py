"""Request bodies and cursor queries on both HTTP servers.

The analysis server and the fleet worker share one request handler
base, so a bad ``Content-Length`` and a bad ``?since=&limit=`` query get
the same typed answers from each.  Body tests send headers only: a
claimed size is rejected before anything is read or allocated.
"""

import http.client
import json
import threading
from urllib.parse import urlsplit

import pytest

from repro.fleet import FaultPlan, FleetWorker
from repro.service import AnalysisServer

_TERABYTE = str(1 << 40)


@pytest.fixture(scope="module")
def servers():
    analysis = AnalysisServer(port=0, sampler_interval=None).start()
    # The worker serves HTTP only: its coordinator loops never start,
    # so the coordinator URL is never contacted.
    worker = FleetWorker("http://127.0.0.1:9", faults=FaultPlan())
    thread = threading.Thread(
        target=worker.httpd.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    yield {
        "server": (analysis.url, "/v1/jobs"),
        "worker": (worker.url, "/v1/fleet/shard"),
    }
    worker.httpd.shutdown()
    worker.httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    analysis.close()


def _request(url, method, path, headers=()):
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.putrequest(method, path)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders()
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


@pytest.mark.parametrize("kind", ["server", "worker"])
@pytest.mark.parametrize(
    "length, status",
    [("abc", 400), ("12x", 400), ("", 400), ("0", 400), (_TERABYTE, 413)],
)
def test_content_length_is_checked_before_reading(servers, kind, length, status):
    url, path = servers[kind]
    got, document = _request(
        url,
        "POST",
        path,
        [("Content-Type", "application/json"), ("Content-Length", length)],
    )
    assert got == status
    assert "error" in document


@pytest.mark.parametrize("kind", ["server", "worker"])
def test_malformed_json_body_is_400(servers, kind):
    url, path = servers[kind]
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        conn.request(
            "POST", path, body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert "invalid JSON" in json.loads(response.read())["error"]
    finally:
        conn.close()


@pytest.mark.parametrize("kind", ["server", "worker"])
@pytest.mark.parametrize(
    "query",
    ["since=-1", "since=abc", "limit=0", "limit=-5", "limit=1.5"],
)
def test_bad_cursor_queries_are_400(servers, kind, query):
    url, _ = servers[kind]
    status, document = _request(url, "GET", f"/v1/events?{query}")
    assert status == 400
    assert "error" in document


@pytest.mark.parametrize("kind", ["server", "worker"])
def test_cursor_pages_share_one_shape(servers, kind):
    url, _ = servers[kind]
    status, events = _request(url, "GET", "/v1/events?since=0&limit=999999")
    assert status == 200
    assert set(events) == {"since", "next", "events"}
    assert len(events["events"]) <= 1000
    status, spans = _request(url, "GET", "/v1/traces?since=0&limit=3")
    assert status == 200
    assert set(spans) == {"since", "next", "spans"}
    assert len(spans["spans"]) <= 3
