"""The server subprocess and the closed-loop HTTP clients that drive it.

Loop model: closed loop.  Callers of this system (``repro checkout URL``,
``ServiceClient``, ``RemoteBackend``) each wait for their reply before they
send again, so each client thread here owns one keep-alive connection and
sends its next request when the previous response has been read and checked.
Never more client threads than cores: the server's one interpreter must not
have to share a core with its own load generator.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

HERE = os.path.dirname(os.path.abspath(__file__))
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0  # a repack is one request
# Each client pauses a seeded random 0..THINK_S before every request.  Two
# closed loops against one interpreter otherwise settle into lockstep (or
# into colliding) for a whole run, and which of the two a run gets moves its
# median latency by several per cent; the pause keeps them out of phase.
THINK_S = 0.0005


@dataclass(frozen=True)
class Request:
    """One HTTP exchange and the check its decoded response must pass."""

    kind: str  # "checkout", "batch", "commit" or "repack"
    method: str
    path: str
    body: Any = None  # JSON-encoded when sent
    check: Callable[[dict], bool] = lambda response: True


@dataclass(frozen=True)
class Sample:
    kind: str
    request_id: str
    latency_ms: float
    ok: bool
    response_bytes: int
    finished: float  # perf_counter when the response had been read


class Server:
    """A ``repro serve`` subprocess (or its traced twin), reaped on exit.

    ``cpus`` pins the server (and the threads it starts) to those cores, so
    that it never shares one with the load generator.
    """

    def __init__(
        self,
        src_dir: str,
        repository: str,
        flags: list[str],
        trace_out: str | None = None,
        cpus: set[int] | None = None,
    ) -> None:
        self.traced = trace_out is not None
        env = dict(os.environ, PYTHONPATH=src_dir)
        if self.traced:
            entry = [os.path.join(HERE, "traced_server.py")]
            env["BENCH_TRACE_OUT"] = trace_out
        else:
            entry = ["-m", "repro"]
        command = [sys.executable, "-u", *entry, "serve", repository, "--port", "0", *flags]
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True
        )
        if cpus:
            os.sched_setaffinity(self.process.pid, cpus)
        self.port = 0
        self._lines: queue.Queue[str] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)

    def _expect(self, text: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"server did not print {text!r} (exit code {self.process.poll()})")
            try:
                line = self._lines.get(timeout=min(remaining, 0.2))
            except queue.Empty:
                continue
            if text in line:
                return line

    def wait_ready(self) -> None:
        """Block until ``GET /healthz`` answers 200 on the port it printed."""
        line = self._expect("serving ", START_TIMEOUT_S)
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        client = Client(self.port, "ready")
        try:
            status, _, _ = client.call("GET", "/healthz")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def enable_tracing(self) -> None:
        self.process.send_signal(signal.SIGUSR1)
        self._expect("tracing on", START_TIMEOUT_S)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mib(self) -> float:
        """``VmHWM`` of the server plus any pool children it has."""
        pids = [self.process.pid]
        try:
            with open(f"/proc/{pids[0]}/task/{pids[0]}/children", encoding="ascii") as handle:
                pids += [int(pid) for pid in handle.read().split()]
        except OSError:
            pass
        total_kib = 0
        for pid in pids:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def stop(self) -> None:
        """Shut down as an operator would, wait, and kill what will not go."""
        if self.process.poll() is None:
            # ctrl-c is the CLI's clean shutdown (final state save); the
            # traced twin maps SIGTERM onto it and then writes its spans.
            self.process.send_signal(signal.SIGTERM if self.traced else signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(STOP_TIMEOUT_S)
        if self.process.stdout is not None:
            self.process.stdout.close()


class Client:
    """One keep-alive connection; every exchange is timed and never raises."""

    def __init__(self, port: int, name: str, seed: int = 0) -> None:
        self.name = name
        self._port = port
        self._think = random.Random(f"{seed}-{name}")
        self._sequence = 0
        self._transport_failures = 0  # consecutive
        self._connection = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self._port, timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        self._connection.close()

    @property
    def unreachable(self) -> bool:
        """True once the server stopped answering (it died); stop sending."""
        return self._transport_failures >= 3

    def call(
        self, method: str, path: str, body: Any = None, request_id: str | None = None
    ) -> tuple[int, bytes, float]:
        """Returns (status, raw body, seconds); status 0 is a transport failure."""
        headers = {}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Bench-Request"] = request_id
        started = time.perf_counter()
        try:
            self._connection.request(method, path, body=data, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
            status = response.status
            self._transport_failures = 0
        except (OSError, http.client.HTTPException):
            self._connection.close()
            self._connection = self._connect()
            status, raw = 0, b""
            self._transport_failures += 1
        return status, raw, time.perf_counter() - started

    def send(self, request: Request) -> Sample:
        """Send ``request`` under a fresh id; pause and check are off the clock."""
        time.sleep(self._think.random() * THINK_S)
        self._sequence += 1
        request_id = f"{self.name}-{self._sequence}"
        status, raw, seconds = self.call(
            request.method, request.path, request.body, request_id
        )
        finished = time.perf_counter()
        ok = False
        if 200 <= status < 300:
            try:
                ok = bool(request.check(json.loads(raw)))
            except (ValueError, KeyError, TypeError):
                ok = False  # a malformed response is a wrong response
        return Sample(request.kind, request_id, seconds * 1000.0, ok, len(raw), finished)


def run_phase(
    clients: list[Client],
    sources: list[Iterable[Request]],
    seconds: float | None = None,
    stop_when_dry: bool = False,
) -> tuple[list[Sample], float, float]:
    """Drive each client from its own source; returns (samples, start, wall s).

    A client stops at the deadline or when its source runs dry; with
    ``stop_when_dry`` the first source to run dry stops the others too (the
    reader that reads for as long as the writer's one repack takes).  A
    request in flight at the deadline is allowed to finish and is counted:
    dropping it would hide slow requests.
    """
    results: list[list[Sample]] = [[] for _ in clients]
    errors: list[Exception] = []
    dry = threading.Event()
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else None

    def drive(index: int) -> None:
        try:
            for request in sources[index]:
                results[index].append(clients[index].send(request))
                if (dry.is_set() and stop_when_dry) or clients[index].unreachable:
                    return
                if deadline is not None and time.perf_counter() >= deadline:
                    return
            dry.set()
        except Exception as error:  # re-raised on the calling thread
            errors.append(error)
            dry.set()

    threads = [
        threading.Thread(
            target=drive, args=(index,), name=f"loadgen-{index}", daemon=True
        )
        for index in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return [sample for per_client in results for sample in per_client], started, wall
