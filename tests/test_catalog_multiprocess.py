"""Two-process sharing oracle for the ``sqlite://`` metadata catalog.

The whole point of the transactional catalog is that *several processes*
can serve one store.  This battery actually spawns two ``repro serve``
processes on the same ``sqlite://`` repository and drives them over HTTP:

* commits interleaved across both servers all land, with distinct version
  ids, and every version checks out byte-identically from **both** servers;
* an online repack triggered through one server is adopted by the other
  (its epoch advances, bytes stay identical);
* repacks raced through both servers resolve to single activations — the
  number of epochs equals the number of *applied* repacks, never more.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.server.remote import ServiceClient

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def start_server(directory: str) -> tuple[subprocess.Popen, ServiceClient]:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", directory, "--port", "0",
         "--cache-size", "8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if not match:  # pragma: no cover - startup failure diagnostics
        process.kill()
        raise AssertionError(f"server failed to start: {line!r}")
    client = ServiceClient(f"http://{match.group(1)}:{match.group(2)}")
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            client.healthz()
            return process, client
        except Exception:
            time.sleep(0.05)
    process.kill()  # pragma: no cover
    raise AssertionError("server never became healthy")


@pytest.fixture
def shared_store(tmp_path):
    directory = str(tmp_path / "repo")
    init = subprocess.run(
        [sys.executable, "-m", "repro", "init", directory,
         "--backend", "sqlite://catalog.db"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert init.returncode == 0, init.stderr
    proc_a, client_a = start_server(directory)
    proc_b, client_b = start_server(directory)
    try:
        yield client_a, client_b
    finally:
        for process in (proc_a, proc_b):
            process.terminate()
        for process in (proc_a, proc_b):
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()


def base_payload(width: int = 24) -> list[str]:
    return [f"row,{i},{i * i}" for i in range(width)]


class TestTwoServersOneStore:
    def test_interleaved_commits_and_repack_byte_parity(self, shared_store):
        client_a, client_b = shared_store

        # Interleave commits across both servers: each extends the chain
        # the other just grew, so every server must adopt peer commits.
        payload = base_payload()
        vids = [client_a.commit(payload, message="base")]
        for step in range(1, 8):
            payload = list(payload)
            payload[step * 3 % len(payload)] = f"edited,{step}"
            payload.append(f"appended,{step}")
            client = client_a if step % 2 else client_b
            vids.append(
                client.commit(payload, parents=[vids[-1]], message=f"step {step}")
            )
        assert len(set(vids)) == len(vids)  # the shared counter never collides

        expected = {vid: client_a.checkout(vid)["payload"] for vid in vids}
        for vid in vids:
            assert client_b.checkout(vid)["payload"] == expected[vid]

        # One repack through server A; server B must adopt the new epoch
        # and keep serving identical bytes.
        report = client_a.repack(problem=3)
        assert report["applied"] is True
        assert report["epoch"] == 1.0
        for vid in vids:
            assert client_b.checkout(vid)["payload"] == expected[vid]
        assert client_b.stats()["repack"]["epoch"] == 1

        # Commits keep landing on either server after the swap.
        after = expected[vids[-1]] + ["after,repack"]
        late = client_b.commit(after, parents=[vids[-1]], message="after swap")
        assert client_a.checkout(late)["payload"] == after

    def test_raced_repacks_activate_exactly_once_each(self, shared_store):
        client_a, client_b = shared_store
        payload = base_payload()
        vids = [client_a.commit(payload, message="base")]
        for step in range(1, 6):
            payload = list(payload)
            payload.append(f"appended,{step}")
            vids.append(
                client_a.commit(payload, parents=[vids[-1]], message=f"s{step}")
            )
        expected = {vid: client_b.checkout(vid)["payload"] for vid in vids}

        reports: list[dict] = []
        errors: list[Exception] = []

        def fire(client: ServiceClient) -> None:
            try:
                reports.append(client.repack(problem=3))
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [
            threading.Thread(target=fire, args=(client,))
            for client in (client_a, client_b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(reports) == 2

        applied = [r for r in reports if r.get("applied")]
        conflicted = [r for r in reports if not r.get("applied")]
        # The single-activation oracle: every applied repack owns exactly
        # one epoch, and a loser reports the conflict instead of applying.
        epochs = {client_a.stats()["repack"]["epoch"],
                  client_b.stats()["repack"]["epoch"]}
        assert max(epochs) == len(applied)
        for report in conflicted:
            assert "conflict" in report

        for vid in vids:
            assert client_a.checkout(vid)["payload"] == expected[vid]
            assert client_b.checkout(vid)["payload"] == expected[vid]
