"""Minimal asyncio HTTP/1.1 façade over :class:`~repro.serve.service.SchedulerService`.

Stdlib only (``asyncio.start_server`` plus hand-rolled request parsing):
the repo's no-new-dependencies rule extends to the serving layer.  The
surface is deliberately small:

=======  ==============================  =======================================
Method   Path                            Response
=======  ==============================  =======================================
GET      ``/healthz``                    ``{"status": "ok", "fleets": [...]}``
GET      ``/v1/fleets``                  fleet stats (one entry per fleet)
GET      ``/v1/fleets/{name}``           fleet stats + full run manifest
GET      ``/v1/stats``                   alias of ``/v1/fleets``
POST     ``/v1/fleets/{name}/submit``    ``{"offset": ..., "placements": [...]}``
=======  ==============================  =======================================

Connections are keep-alive by default; a request sent with
``Connection: close`` is closed after its answer, whatever the status.
Bodies must come with ``Content-Length``: any ``Transfer-Encoding`` is
refused with a 400.  Every client-side fault maps to a JSON 4xx via
:class:`~repro.serve.protocol.ServeError` and the connection loop
continues; unexpected exceptions map to a JSON 500 and are counted as
``serve.errors`` — the server loop itself never dies from a request
(pinned in ``tests/serve/test_http.py``).

Two entry points: :func:`run_server` blocks the calling thread (the CLI
``serve`` target), and :func:`start_http_server` runs the loop on a
daemon thread and returns a handle with the bound port — what the tests,
the load generator and the smoke tool use.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any

from repro.obs.telemetry import TELEMETRY as _TEL
from repro.serve.protocol import MAX_BODY_BYTES, ServeError, decode_json
from repro.serve.service import SchedulerService

_MAX_HEADER_BYTES = 16 * 1024
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def _encode_response(status: int, payload: Any, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("ascii")
    return head + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, dict[str, str], bytes] | None":
    """Parse one request; ``None`` on clean EOF before a request line."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServeError(400, "bad-http", "truncated request line")
    except asyncio.LimitOverrunError:
        raise ServeError(400, "bad-http", "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ServeError(400, "bad-http", f"malformed request line: {line[:80]!r}")
    method, path, _version = parts

    headers: dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise ServeError(400, "bad-http", "truncated headers")
        if line == b"\r\n":
            break
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise ServeError(400, "bad-http", "headers too large")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise ServeError(400, "bad-http", f"malformed header: {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        # Chunked bodies are not parsed; reading on would take the chunk
        # framing for the next request line.
        raise ServeError(
            400, "bad-http", "Transfer-Encoding is not supported; send a Content-Length body"
        )
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ServeError(400, "bad-http", "non-numeric Content-Length")
        if length < 0:
            raise ServeError(400, "bad-http", "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise ServeError(
                413, "body-too-large",
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} cap",
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise ServeError(400, "bad-http", "body shorter than Content-Length")
    return method, path, headers, body


class ServeHTTP:
    """The asyncio protocol handler bound to one service instance."""

    def __init__(self, service: SchedulerService) -> None:
        self.service = service
        self._server: "asyncio.AbstractServer | None" = None
        self.port: "int | None" = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=2**16
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = True
                try:
                    request = await _read_request(reader)
                    if request is None:
                        break
                    method, path, headers, body = request
                    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                    status, payload = self._route(method, path, body)
                except ServeError as exc:
                    # Client fault: answer and, for protocol-level faults
                    # (we may be desynchronised mid-stream), drop the
                    # connection — the server loop itself stays up.
                    if exc.code in ("bad-http", "body-too-large"):
                        keep_alive = False
                    status, payload = exc.status, exc.to_payload()
                except (ConnectionResetError, BrokenPipeError):
                    break
                except Exception as exc:  # noqa: BLE001 - the loop must survive
                    _TEL.count("serve.errors")
                    status, payload = 500, {"error": "internal", "detail": str(exc)}
                writer.write(_encode_response(status, payload, keep_alive))
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not keep_alive:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, Any]:
        service = self.service
        if path == "/healthz":
            if method != "GET":
                raise ServeError(405, "method-not-allowed", f"{method} {path}")
            return 200, {"status": "ok", "fleets": service.fleet_names}
        if path in ("/v1/fleets", "/v1/stats"):
            if method != "GET":
                raise ServeError(405, "method-not-allowed", f"{method} {path}")
            return 200, service.stats()
        if path.startswith("/v1/fleets/"):
            rest = path[len("/v1/fleets/"):]
            if rest.endswith("/submit"):
                if method != "POST":
                    raise ServeError(405, "method-not-allowed", f"{method} {path}")
                name = rest[: -len("/submit")]
                t0 = time.perf_counter()
                placed = service.submit(name, decode_json(body))
                service.fleet(name).observe_latency(time.perf_counter() - t0)
                return 200, placed.to_payload()
            if method != "GET":
                raise ServeError(405, "method-not-allowed", f"{method} {path}")
            return 200, service.fleet(rest).describe()
        raise ServeError(404, "not-found", f"no route for {method} {path}")


def run_server(
    service: SchedulerService, host: str = "127.0.0.1", port: int = 8080
) -> None:
    """Serve on the calling thread until interrupted (the CLI entry point)."""

    async def _main() -> None:
        http = ServeHTTP(service)
        await http.start(host, port)
        print(f"serving on http://{host}:{http.port} (Ctrl-C to stop)")
        await http.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServerHandle:
    """A live background server: ``host``/``port``/``url``, ``close()`` stops it."""

    def __init__(self, host: str, port: int, loop, thread) -> None:
        self.host = host
        self.port = port
        self.url = f"http://{host}:{port}"
        self._loop = loop
        self._thread = thread

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_http_server(
    service: SchedulerService, host: str = "127.0.0.1", port: int = 0
) -> ServerHandle:
    """Start the HTTP layer on a daemon thread; returns once it is listening.

    ``port=0`` binds an ephemeral port (the tests' and smoke tool's mode);
    read the bound one off the returned handle.
    """
    loop = asyncio.new_event_loop()
    http = ServeHTTP(service)
    started = threading.Event()
    failure: list[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(http.start(host, port))
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(http.aclose())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve-http", daemon=True)
    thread.start()
    started.wait(timeout=10)
    if failure:
        raise failure[0]
    assert http.port is not None
    return ServerHandle(host, http.port, loop, thread)


__all__ = ["ServeHTTP", "ServerHandle", "run_server", "start_http_server"]
