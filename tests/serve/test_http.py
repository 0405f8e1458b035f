"""HTTP façade tests: routes, keep-alive, and the 4xx error taxonomy.

The recurring pattern — send something malformed, then prove a
well-formed request on the *same* connection (or a fresh one) still
succeeds — pins the satellite requirement that no client input can crash
the server loop.
"""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest

from repro import obs
from repro.obs.telemetry import TELEMETRY
from repro.serve import FleetSpec, SchedulerService, start_http_server


@pytest.fixture()
def server():
    service = SchedulerService()
    service.add_fleet(FleetSpec(name="edge", num_vms=10, scheduler="greedy-mct"))
    service.add_fleet(FleetSpec(name="rr", num_vms=4, scheduler="basetest"))
    with start_http_server(service) as handle:
        yield service, handle


def raw_request(handle, data: bytes) -> tuple[int, dict]:
    with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
        sock.sendall(data)
        return _read_response(sock)


def _read_response(sock) -> tuple[int, dict]:
    status, _, payload = _read_full_response(sock)
    return status, payload


def _read_full_response(sock) -> tuple[int, dict[str, str], dict]:
    """Status, lower-cased headers and decoded body of one response."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError(f"connection closed mid-response: {buf!r}")
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    while len(rest) < length:
        rest += sock.recv(65536)
    return status, headers, json.loads(rest[:length])


def _closed_by_server(sock) -> bool:
    """True once the server has closed its end (EOF or reset)."""
    try:
        return sock.recv(65536) == b""
    except ConnectionResetError:
        return True


def http(handle, method: str, path: str, payload=None) -> tuple[int, dict]:
    """One request on a fresh connection; ``bytes`` payloads go out as-is."""
    if payload is None or isinstance(payload, bytes):
        body = payload or b""
    else:
        body = json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode()
    return raw_request(handle, head + body)


class TestRoutes:
    def test_healthz(self, server):
        _, handle = server
        status, payload = http(handle, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "fleets": ["edge", "rr"]}

    def test_fleet_listing_and_detail(self, server):
        _, handle = server
        status, payload = http(handle, "GET", "/v1/fleets")
        assert status == 200
        assert [f["name"] for f in payload["fleets"]] == ["edge", "rr"]
        status, detail = http(handle, "GET", "/v1/fleets/edge")
        assert status == 200
        assert detail["scheduler"] == "greedy-mct"
        assert detail["manifest"]["engine"] == "serve"
        assert detail["fingerprint"]

    def test_submit_roundtrip_matches_inprocess(self, server):
        service, handle = server
        status, payload = http(
            handle, "POST", "/v1/fleets/rr/submit", {"cloudlets": [10.0, 20.0, 30.0]}
        )
        assert status == 200
        assert payload["offset"] == 0
        assert payload["count"] == 3
        assert payload["placements"] == [0, 1, 2]
        # The in-process view advanced identically.
        assert service.fleet("rr").offset == 3

    def test_keep_alive_serves_multiple_requests(self, server):
        _, handle = server
        body = json.dumps({"count": 2, "length": 5.0}).encode()
        one = (
            f"POST /v1/fleets/rr/submit HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
            offsets = []
            for _ in range(3):
                sock.sendall(one)
                status, payload = _read_response(sock)
                assert status == 200
                offsets.append(payload["offset"])
        assert offsets == [0, 2, 4]

    def test_not_found_and_method_not_allowed(self, server):
        _, handle = server
        assert http(handle, "GET", "/nope")[0] == 404
        assert http(handle, "POST", "/healthz")[0] == 405
        assert http(handle, "GET", "/v1/fleets/edge/submit")[0] == 405
        status, payload = http(handle, "POST", "/v1/fleets/ghost/submit", {"count": 1, "length": 1.0})
        assert status == 404
        assert payload["error"] == "unknown-fleet"


class TestMalformedInputsNeverKillTheLoop:
    def test_bad_json_then_good_request_same_connection(self, server):
        _, handle = server
        bad = b"{not json"
        head = (
            f"POST /v1/fleets/edge/submit HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(bad)}\r\n\r\n"
        ).encode()
        good_body = json.dumps({"count": 1, "length": 7.0}).encode()
        good = (
            f"POST /v1/fleets/edge/submit HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(good_body)}\r\n\r\n"
        ).encode() + good_body
        with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
            sock.sendall(head + bad)
            status, payload = _read_response(sock)
            assert status == 400
            assert payload["error"] == "bad-json"
            sock.sendall(good)
            status, payload = _read_response(sock)
            assert status == 200
            assert payload["offset"] == 0

    @pytest.mark.parametrize(
        "payload,status,code",
        [
            ({"cloudlets": []}, 400, "empty-batch"),
            ({"cloudlets": [-1.0]}, 400, "bad-request"),
            ({"count": 0, "length": 1.0}, 400, "bad-request"),
            ({"count": 10**8, "length": 1.0}, 413, "batch-too-large"),
            ([1, 2, 3], 400, "bad-request"),
        ],
    )
    def test_malformed_submissions_get_clean_4xx(self, server, payload, status, code):
        _, handle = server
        got_status, got = http(handle, "POST", "/v1/fleets/edge/submit", payload)
        assert got_status == status
        assert got["error"] == code
        # And the server still answers afterwards.
        assert http(handle, "GET", "/healthz")[0] == 200

    def test_garbage_request_line(self, server):
        _, handle = server
        status, payload = raw_request(handle, b"NONSENSE\r\n\r\n")
        assert status == 400
        assert payload["error"] == "bad-http"
        assert http(handle, "GET", "/healthz")[0] == 200

    def test_oversized_body_is_413(self, server):
        _, handle = server
        head = (
            "POST /v1/fleets/edge/submit HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {64 * 2**20}\r\n\r\n"
        ).encode()
        status, payload = raw_request(handle, head)
        assert status == 413
        assert payload["error"] == "body-too-large"
        assert http(handle, "GET", "/healthz")[0] == 200

    def test_oversized_numbers_are_400_not_500(self, server):
        service, handle = server
        too_big = 10**400  # a JSON integer past float range
        bodies = [
            ({"cloudlets": [too_big]}, "bad-request"),
            ({"cloudlets": [{"length": 1.0, "file_size": too_big}]}, "bad-request"),
            ({"count": 2, "length": too_big}, "bad-request"),
            # Past Python's 4,300-digit int-conversion limit.
            (b'{"cloudlets": [1' + b"0" * 5000 + b"]}", "bad-json"),
        ]
        with obs.enabled(True):
            before = TELEMETRY.snapshot().counters.get("serve.errors", 0)
            for body, code in bodies:
                status, payload = http(handle, "POST", "/v1/fleets/edge/submit", body)
                assert (status, payload["error"]) == (400, code)
            after = TELEMETRY.snapshot().counters.get("serve.errors", 0)
        assert after == before
        assert service.fleet("edge").offset == 0
        assert http(handle, "GET", "/healthz")[0] == 200

    def test_chunked_request_gets_one_bad_http_and_a_close(self, server):
        service, handle = server
        body = json.dumps({"count": 1, "length": 7.0}).encode()
        chunked = (
            "POST /v1/fleets/edge/submit HTTP/1.1\r\nHost: t\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
        ).encode() + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
            sock.sendall(chunked)
            status, headers, payload = _read_full_response(sock)
            assert (status, payload["error"]) == (400, "bad-http")
            assert "Content-Length" in payload["detail"]
            assert headers["connection"] == "close"
            # No second answer: the chunk framing is never read as a request.
            assert _closed_by_server(sock)
        assert service.fleet("edge").offset == 0
        assert http(handle, "GET", "/healthz")[0] == 200

    def test_internal_error_keeps_the_requested_close(self, server, monkeypatch):
        service, handle = server

        def explode(name, payload):
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "submit", explode)
        body = json.dumps({"count": 1, "length": 7.0}).encode()
        with obs.enabled(True):
            before = TELEMETRY.snapshot().counters.get("serve.errors", 0)
            with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
                sock.sendall(
                    (
                        "POST /v1/fleets/edge/submit HTTP/1.1\r\nHost: t\r\n"
                        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                    ).encode()
                    + body
                )
                status, headers, payload = _read_full_response(sock)
                assert (status, payload["error"]) == (500, "internal")
                assert headers["connection"] == "close"
                assert _closed_by_server(sock)
            after = TELEMETRY.snapshot().counters.get("serve.errors", 0)
        assert after == before + 1
        assert http(handle, "GET", "/healthz")[0] == 200

    def test_rejected_batches_do_not_advance_admission(self, server):
        service, handle = server
        http(handle, "POST", "/v1/fleets/edge/submit", {"cloudlets": []})
        http(handle, "POST", "/v1/fleets/edge/submit", {"cloudlets": [0.0]})
        status, payload = http(
            handle, "POST", "/v1/fleets/edge/submit", {"count": 1, "length": 1.0}
        )
        assert status == 200
        assert payload["offset"] == 0
        assert service.fleet("edge").requests == 1
