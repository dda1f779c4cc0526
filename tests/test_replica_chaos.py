"""Replica-group chaos battery: kill, pause and race real serve processes.

The headline proof of replica-group serving: N real ``repro serve --join``
subprocesses share one ``sqlite://`` store and survive the classic
distributed-systems failure modes —

* **SIGKILL the lease holder** (mid-repack when the schedule lands
  there): a surviving replica steals the planner lease within a TTL and
  the store converges with byte-identical checkouts across survivors;
* **SIGSTOP a holder past its TTL, then SIGCONT** (the zombie planner):
  the group elects a new planner while the zombie is frozen, and the
  zombie's post-resume planning is refused — either up front with a 409
  (its renewal thread learned the lease was lost) or at activation by
  the fencing token (deterministically exercised in-process below and in
  ``tests/test_lease.py``);
* **raced repacks across all replicas**: every epoch has exactly one
  ``activate_snapshot`` winner — non-holders get 409, the epoch counter
  equals the number of applied repacks, and exactly one snapshot row is
  active.

Lease TTLs here are aggressive (~1.5 s) so failover fits in test time;
production guidance lives in docs/serving.md.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.server.remote import RemoteServiceError, ServiceClient

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TTL = 1.5
RENEW = 0.4


class Replica:
    """One ``repro serve --join`` subprocess and its HTTP client."""

    def __init__(self, process: subprocess.Popen, client: ServiceClient, rid: str):
        self.process = process
        self.client = client
        self.replica_id = rid

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def lease(self) -> dict:
        return self.client.stats()["repack"]["lease"]


def start_replica(
    directory: str, rid: str, *, ttl: float = TTL, renew: float = RENEW
) -> Replica:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", directory, "--port", "0",
         "--cache-size", "8",
         "--join", "--replica-id", rid,
         "--lease-ttl", str(ttl), "--lease-renew", str(renew)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if not match:  # pragma: no cover - startup failure diagnostics
        process.kill()
        raise AssertionError(f"replica {rid} failed to start: {line!r}")
    client = ServiceClient(f"http://{match.group(1)}:{match.group(2)}", timeout=30.0)
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            client.healthz()
            return Replica(process, client, rid)
        except Exception:
            time.sleep(0.05)
    process.kill()  # pragma: no cover
    raise AssertionError(f"replica {rid} never became healthy")


@pytest.fixture
def cluster(tmp_path):
    """Three --join replicas over one freshly initialised sqlite store."""
    directory = str(tmp_path / "repo")
    init = subprocess.run(
        [sys.executable, "-m", "repro", "init", directory,
         "--backend", "sqlite://catalog.db"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    assert init.returncode == 0, init.stderr
    replicas = [start_replica(directory, f"chaos-{i}") for i in range(3)]
    try:
        yield replicas
    finally:
        for replica in replicas:
            if replica.alive:
                replica.process.terminate()
        for replica in replicas:
            try:
                replica.process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                replica.process.kill()


def wait_for_holder(
    replicas: list[Replica], *, timeout: float = 15.0, exclude: str | None = None
) -> Replica:
    """Poll /stats until some live replica reports holding the lease."""
    deadline = time.time() + timeout
    last: dict | None = None
    while time.time() < deadline:
        for replica in replicas:
            if not replica.alive or replica.replica_id == exclude:
                continue
            try:
                last = replica.lease()
            except Exception:
                continue
            if last["is_holder"]:
                return replica
        time.sleep(0.1)
    raise AssertionError(
        f"no live replica took the lease within {timeout}s (last state: {last})"
    )


def grow_chain(replicas: list[Replica], vids: list[str], steps: int) -> dict:
    """Commit a chain round-robin across replicas; returns vid → payload."""
    payload = (
        [f"row,{i},{i * 3}" for i in range(20)]
        if not vids
        else None
    )
    expected: dict[str, list[str]] = {}
    if payload is not None:
        vids.append(replicas[0].client.commit(payload, message="base"))
        expected[vids[-1]] = payload
    else:
        payload = replicas[0].client.checkout(vids[-1])["payload"]
    for step in range(steps):
        payload = list(payload)
        payload[step % len(payload)] = f"edited,{step},{len(vids)}"
        payload.append(f"appended,{step},{len(vids)}")
        client = replicas[step % len(replicas)].client
        vids.append(client.commit(payload, parents=[vids[-1]], message=f"s{step}"))
        expected[vids[-1]] = payload
    return expected


def assert_byte_parity(replicas: list[Replica], expected: dict) -> None:
    """Every known version must read identically from every live replica."""
    for replica in replicas:
        if not replica.alive:
            continue
        for vid, payload in expected.items():
            got = replica.client.checkout(vid)["payload"]
            assert got == payload, (
                f"{replica.replica_id} diverged at {vid}"
            )


def decision_events(replica: Replica) -> list[str]:
    return [d["event"] for d in replica.client.stats()["repack"]["decisions"]]


class TestKillTheLeader:
    def test_holder_sigkill_fails_over_and_store_converges(self, cluster):
        vids: list[str] = []
        expected = grow_chain(cluster, vids, steps=8)

        holder = wait_for_holder(cluster)
        survivors = [r for r in cluster if r is not holder]

        # Fire a repack through the holder and SIGKILL it while the
        # request is in flight — when the schedule lands mid-staging the
        # staged snapshot is orphaned and must be fenced out by the
        # based_on/activation checks, never half-applied.
        def fire() -> None:
            try:
                holder.client.repack(problem=3)
            except Exception:
                pass  # the process dies under the request

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.15)
        holder.process.send_signal(signal.SIGKILL)
        holder.process.wait(timeout=10)
        thread.join(timeout=30)

        # A survivor steals the lease within ~TTL + renew interval.
        new_holder = wait_for_holder(survivors, exclude=holder.replica_id)
        assert new_holder.replica_id != holder.replica_id
        lease = new_holder.lease()
        assert lease["holder"] == new_holder.replica_id

        # The steal is in the persisted decision log (any replica sees it).
        events = decision_events(new_holder)
        assert any(e in ("lease_stolen", "lease_acquired") for e in events)

        # The group keeps working: commits land, the new holder repacks,
        # and every survivor serves byte-identical payloads.
        expected.update(grow_chain(survivors, vids, steps=4))
        report = new_holder.client.repack(problem=3)
        assert report["applied"] in (True, False)  # conflict allowed, crash not
        assert_byte_parity(survivors, expected)

        # Exactly one active snapshot, whatever the kill interrupted.
        snapshots = new_holder.client.snapshots()["snapshots"]
        assert sum(1 for s in snapshots if s["status"] == "active") == 1


class TestZombiePlanner:
    def test_sigstopped_holder_is_superseded_and_refused(self, cluster):
        vids: list[str] = []
        expected = grow_chain(cluster, vids, steps=6)

        holder = wait_for_holder(cluster)
        others = [r for r in cluster if r is not holder]

        # Freeze the holder past its TTL: the classic paused-VM zombie.
        holder.process.send_signal(signal.SIGSTOP)
        try:
            new_holder = wait_for_holder(others, exclude=holder.replica_id)
            assert new_holder.lease()["token"] > 1  # the steal bumped it
        finally:
            holder.process.send_signal(signal.SIGCONT)

        # The zombie resumes. Its planning must be refused: with a 409
        # once its renewal thread learns the lease is lost, or via the
        # fencing token at activation if it staged first — either way the
        # epoch it might have planned never goes live after the steal's
        # token bump.
        time.sleep(RENEW * 3)  # let the resumed renewal thread run
        outcome = "applied"
        try:
            report = holder.client.repack(problem=3)
            if report.get("fenced"):
                outcome = "fenced"
            elif report.get("conflict"):
                outcome = "conflict"
            elif not report.get("applied"):
                outcome = "refused"
        except RemoteServiceError as error:
            assert error.status == 409, f"unexpected failure: {error}"
            outcome = "409"
        assert outcome in ("409", "fenced", "conflict", "refused"), (
            f"zombie planner repacked after losing the lease ({outcome})"
        )

        # The zombie's /stats shows it knows it is not the holder now.
        deadline = time.time() + 10
        while time.time() < deadline:
            if not holder.lease()["is_holder"]:
                break
            time.sleep(0.2)
        assert not holder.lease()["is_holder"]

        # Convergence: all three replicas serve identical bytes.
        assert_byte_parity(cluster, expected)
        snapshots = new_holder.client.snapshots()["snapshots"]
        assert sum(1 for s in snapshots if s["status"] == "active") == 1


class TestSingleActivationInvariant:
    def test_raced_repacks_have_one_winner_per_epoch(self, cluster):
        vids: list[str] = []
        expected = grow_chain(cluster, vids, steps=6)
        wait_for_holder(cluster)

        applied = []
        refused = []
        errors = []

        def fire(replica: Replica) -> None:
            try:
                report = replica.client.repack(problem=3)
                (applied if report.get("applied") else refused).append(
                    (replica.replica_id, report)
                )
            except RemoteServiceError as error:
                if error.status == 409:
                    refused.append((replica.replica_id, {"status": 409}))
                else:
                    errors.append(error)

        for _ in range(2):
            threads = [
                threading.Thread(target=fire, args=(replica,))
                for replica in cluster
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

        assert not errors, f"unexpected error: {errors[0]}"
        # Non-holders were turned away at the door: of 6 raced attempts,
        # only the holder's ever staged, and each applied one owns one
        # epoch exactly.
        snapshots = cluster[0].client.snapshots()["snapshots"]
        active = [s for s in snapshots if s["status"] == "active"]
        assert len(active) == 1
        epoch = cluster[0].client.stats()["repack"]["epoch"]
        assert epoch == len(applied)
        assert len(applied) >= 1
        assert len(refused) == 6 - len(applied)
        assert_byte_parity(cluster, expected)

    def test_prune_on_non_holder_is_409(self, cluster):
        grow_chain(cluster, [], steps=4)
        holder = wait_for_holder(cluster)
        follower = next(r for r in cluster if not r.lease()["is_holder"])

        with pytest.raises(RemoteServiceError) as excinfo:
            follower.client.prune()
        assert excinfo.value.status == 409

        holder.client.repack(problem=3)
        report = holder.client.prune()
        assert report["pruned_snapshots"] >= 1


@pytest.mark.slow
class TestChaosBattery:
    def test_repeated_leader_kills_under_traffic(self, tmp_path):
        """Two rounds of kill-the-leader with concurrent commit traffic."""
        directory = str(tmp_path / "repo")
        init = subprocess.run(
            [sys.executable, "-m", "repro", "init", directory,
             "--backend", "sqlite://catalog.db"],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
        )
        assert init.returncode == 0, init.stderr
        replicas = [start_replica(directory, f"battery-{i}") for i in range(3)]
        spawned = 3
        try:
            vids: list[str] = []
            expected = grow_chain(replicas, vids, steps=6)

            for round_index in range(2):
                live = [r for r in replicas if r.alive]
                holder = wait_for_holder(live)
                survivors = [r for r in live if r is not holder]

                stop = threading.Event()
                traffic_errors: list[BaseException] = []

                def traffic() -> None:
                    step = 0
                    while not stop.is_set():
                        step += 1
                        try:
                            payload = survivors[0].client.checkout(vids[-1])[
                                "payload"
                            ] + [f"traffic,{round_index},{step}"]
                            vid = survivors[step % len(survivors)].client.commit(
                                payload, parents=[vids[-1]],
                                message=f"traffic {round_index}.{step}",
                            )
                            vids.append(vid)
                            expected[vid] = payload
                        except BaseException as error:
                            traffic_errors.append(error)
                            return

                thread = threading.Thread(target=traffic)
                thread.start()
                time.sleep(0.3)
                holder.process.send_signal(signal.SIGKILL)
                holder.process.wait(timeout=10)
                new_holder = wait_for_holder(
                    survivors, exclude=holder.replica_id
                )
                stop.set()
                thread.join(timeout=30)
                assert not traffic_errors, (
                    f"round {round_index}: traffic failed {traffic_errors[0]!r}"
                )

                # Refill the cluster like an orchestrator would.
                replicas = survivors + [
                    start_replica(directory, f"battery-{spawned}")
                ]
                spawned += 1
                new_holder.client.repack(problem=3)
                assert_byte_parity(replicas, expected)

            snapshots = replicas[0].client.snapshots()["snapshots"]
            assert sum(1 for s in snapshots if s["status"] == "active") == 1
        finally:
            for replica in replicas:
                if replica.alive:
                    replica.process.terminate()
            for replica in replicas:
                try:
                    replica.process.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    replica.process.kill()
