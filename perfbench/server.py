"""The scheduling service in its own process, plus a one-connection client.

The server process hosts a :class:`~repro.serve.service.SchedulerService`
behind :func:`~repro.serve.http.start_http_server` and answers a control
pipe: ``"stats"`` returns its CPU time and telemetry snapshot,
``"trace-on"``/``"trace-off"`` switch telemetry, and ``"stop"`` shuts
it down.  Keeping the server out of the benchmark process means the
load generator never competes with it for the interpreter lock.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
from dataclasses import asdict
from typing import Any

HOST = "127.0.0.1"


def server_main(conn, specs: list[dict], trace: bool) -> None:
    """Entry point of the spawned server process."""
    # The last allowed CPU; the client takes the first while it drives us.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from repro.obs.telemetry import TELEMETRY
    from repro.serve.http import start_http_server
    from repro.serve.service import FleetSpec, SchedulerService

    service = SchedulerService()
    for spec in specs:
        service.add_fleet(FleetSpec(**spec))
    if trace:
        from perfbench.tracing import install_serve

        install_serve()
    handle = start_http_server(service, host=HOST)
    conn.send(handle.port)
    try:
        while True:
            try:
                command = conn.recv()
            except EOFError:
                break
            if command == "stop":
                break
            if command in ("trace-on", "trace-off"):
                TELEMETRY.enabled = command == "trace-on"
                continue
            conn.send(
                {
                    "cpu_s": time.process_time(),
                    "telemetry": TELEMETRY.snapshot().to_dict(),
                }
            )
    finally:
        handle.close()
        conn.close()


class ServerProcess:
    """Handle on a spawned server: ``wait_ready()``, ``port``, ``stats()``, ``stop()``."""

    def __init__(self, specs: list, trace: bool) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(
            target=server_main,
            args=(child, [asdict(spec) for spec in specs], trace),
            name="perfbench-server",
        )
        self._process.start()
        child.close()
        self.port: "int | None" = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the server listens (it boots while the caller works)."""
        if not self._conn.poll(timeout):
            self.stop()
            raise RuntimeError(f"server process did not report a port within {timeout} s")
        self.port = self._conn.recv()

    def stats(self) -> dict[str, Any]:
        self._conn.send("stats")
        return self._conn.recv()

    def set_tracing(self, on: bool) -> None:
        self._conn.send("trace-on" if on else "trace-off")

    def stop(self) -> None:
        try:
            self._conn.send("stop")
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=30)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=10)
        self._conn.close()


def _read_status(reader) -> int:
    """Read one HTTP/1.1 response off ``reader``; returns its status code."""
    status = int(reader.readline().split()[1])
    length = 0
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    reader.read(length)
    return status


def closed_loop(port: int, fleet: str, trace, requests: int) -> tuple[float, float, int]:
    """Send ``requests`` submissions back to back on one connection.

    Each request goes out only after the previous reply arrived.  Bodies
    come from the trace's own encoder, cycling through its batches.
    Returns ``(wall_s, summed_round_trip_s, failed)``; replies are checked
    for status 200 only, since decoding placements would add client cost.
    """
    head = (
        f"POST /v1/fleets/{fleet}/submit HTTP/1.1\r\n"
        "Host: perfbench\r\nContent-Length: "
    ).encode("ascii")
    failed = 0
    round_trips = 0.0
    with socket.create_connection((HOST, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with sock.makefile("rb") as reader:
            t0 = time.perf_counter()
            for i in range(requests):
                body = trace.body(i % trace.num_requests)
                message = head + f"{len(body)}\r\n\r\n".encode("ascii") + body
                sent = time.perf_counter()
                sock.sendall(message)
                if _read_status(reader) != 200:
                    failed += 1
                round_trips += time.perf_counter() - sent
            wall = time.perf_counter() - t0
    return wall, round_trips, failed
