"""Planner-lease state machine: acquire / renew / steal / fence properties.

The catalog's lease table is the coordination primitive of replica-group
serving, so its invariants are tested exhaustively and adversarially:

* the single-transaction state machine (acquired / renewed / stolen /
  rejected) under direct unit probes;
* fencing-token monotonicity — renewals never move the token, holder
  changes always increment it, release never resets it;
* mutual exclusion of two stealers racing one expired lease from real
  threads;
* a seeded interleaving oracle (``stress_seed`` fixture) driving many
  contenders with a manual clock through thousands of transitions,
  checking every invariant after each one;
* :class:`PlannerLease` holdership transitions (lost leases, zombie
  belief) with injected clocks;
* the in-process zombie-fencing path: a planner whose lease is stolen
  mid-staging has its activation rejected by the token check.
"""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro.delta.line_diff import LineDiffEncoder
from repro.exceptions import LeaseFencedError, NotLeaseHolderError, ReproError
from repro.server.service import VersionStoreService
from repro.storage.catalog import MetadataCatalog
from repro.storage.lease import PLANNER_ROLE, PlannerLease
from repro.storage.repository import Repository
from repro.storage.testing import SkewedClock


@pytest.fixture
def catalog(tmp_path):
    return MetadataCatalog(os.path.join(tmp_path, "catalog.db"))


# --------------------------------------------------------------------- #
# the transactional state machine
# --------------------------------------------------------------------- #
class TestAcquireStateMachine:
    def test_first_acquire_gets_token_one(self, catalog):
        result = catalog.acquire_lease("planner", "a", 10.0, now=100.0)
        assert result["event"] == "acquired"
        assert result["holder"] == "a"
        assert result["token"] == 1
        assert result["expires_at"] == pytest.approx(110.0)

    def test_renewal_extends_expiry_without_moving_token(self, catalog):
        catalog.acquire_lease("planner", "a", 10.0, now=100.0)
        result = catalog.acquire_lease("planner", "a", 10.0, now=105.0)
        assert result["event"] == "renewed"
        assert result["token"] == 1
        assert result["expires_at"] == pytest.approx(115.0)

    def test_live_lease_rejects_contender(self, catalog):
        catalog.acquire_lease("planner", "a", 10.0, now=100.0)
        result = catalog.acquire_lease("planner", "b", 10.0, now=109.9)
        assert result["event"] == "rejected"
        assert result["holder"] == "a"
        assert catalog.lease_state("planner")["holder"] == "a"

    def test_expired_lease_is_stolen_with_token_bump(self, catalog):
        catalog.acquire_lease("planner", "a", 10.0, now=100.0)
        result = catalog.acquire_lease("planner", "b", 10.0, now=110.5)
        assert result["event"] == "stolen"
        assert result["holder"] == "b"
        assert result["token"] == 2
        assert result["stolen_from"] == "a"

    def test_release_clears_holder_but_keeps_token(self, catalog):
        catalog.acquire_lease("planner", "a", 10.0, now=100.0)
        assert catalog.release_lease("planner", "a") is True
        state = catalog.lease_state("planner")
        assert state["holder"] is None
        assert state["token"] == 1
        # Re-acquire after release still bumps the token: anything staged
        # under the released holdership must stay fenced.
        result = catalog.acquire_lease("planner", "b", 10.0, now=101.0)
        assert result["event"] == "acquired"
        assert result["token"] == 2

    def test_release_by_non_holder_is_a_noop(self, catalog):
        catalog.acquire_lease("planner", "a", 10.0, now=100.0)
        assert catalog.release_lease("planner", "b") is False
        assert catalog.lease_state("planner")["holder"] == "a"

    def test_roles_are_independent(self, catalog):
        catalog.acquire_lease("planner", "a", 10.0, now=100.0)
        result = catalog.acquire_lease("pruner", "b", 10.0, now=100.0)
        assert result["event"] == "acquired"
        assert catalog.lease_state("planner")["holder"] == "a"
        assert catalog.lease_state("pruner")["holder"] == "b"

    def test_unknown_lease_state_is_none(self, catalog):
        assert catalog.lease_state("no-such-role") is None

    def test_non_positive_ttl_rejected(self, catalog):
        with pytest.raises(ValueError):
            catalog.acquire_lease("planner", "a", 0.0, now=100.0)


# --------------------------------------------------------------------- #
# fencing at activation
# --------------------------------------------------------------------- #
class TestActivationFence:
    def _stage(self, catalog):
        snapshot_id, _ = catalog.create_snapshot()
        return snapshot_id

    def test_current_token_activates(self, catalog):
        result = catalog.acquire_lease("planner", "a", 10.0, now=100.0)
        snapshot_id = self._stage(catalog)
        epoch = catalog.activate_snapshot(
            snapshot_id, fence=("planner", result["token"])
        )
        assert epoch is not None

    def test_stale_token_is_fenced_and_rolls_back(self, catalog):
        result = catalog.acquire_lease("planner", "a", 10.0, now=100.0)
        snapshot_id = self._stage(catalog)
        # The lease is stolen between staging and activation.
        catalog.acquire_lease("planner", "b", 10.0, now=111.0)
        epoch_before = catalog.epoch()
        with pytest.raises(LeaseFencedError):
            catalog.activate_snapshot(snapshot_id, fence=("planner", result["token"]))
        # The raise happened inside the activation transaction: nothing
        # about the active epoch moved.
        assert catalog.epoch() == epoch_before
        statuses = {s["id"]: s["status"] for s in catalog.snapshots()}
        assert statuses[snapshot_id] == "staged"

    def test_missing_lease_row_counts_as_token_zero(self, catalog):
        snapshot_id = self._stage(catalog)
        with pytest.raises(LeaseFencedError):
            catalog.activate_snapshot(snapshot_id, fence=("planner", 1))
        epoch = catalog.activate_snapshot(snapshot_id, fence=("planner", 0))
        assert epoch is not None

    def test_no_fence_keeps_single_owner_semantics(self, catalog):
        snapshot_id = self._stage(catalog)
        assert catalog.activate_snapshot(snapshot_id) is not None


# --------------------------------------------------------------------- #
# racing stealers: mutual exclusion from real threads
# --------------------------------------------------------------------- #
def test_two_stealers_exactly_one_wins(catalog, stress_seed):
    rng = random.Random(stress_seed)
    for round_index in range(10):
        role = f"planner-{round_index}"
        catalog.acquire_lease(role, "old-holder", 1.0, now=100.0)
        now = 102.0 + rng.random()  # expired for both contenders
        barrier = threading.Barrier(2, timeout=10)
        results: dict[str, dict] = {}

        def steal(name: str, jitter: float) -> None:
            barrier.wait()
            results[name] = catalog.acquire_lease(role, name, 5.0, now=now + jitter)

        threads = [
            threading.Thread(target=steal, args=(name, rng.random() * 0.01))
            for name in ("stealer-a", "stealer-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)

        events = sorted(r["event"] for r in results.values())
        assert events == ["rejected", "stolen"], (
            f"seed={stress_seed} round={round_index}: both stealers saw "
            f"{events} — mutual exclusion violated"
        )
        winner = next(r for r in results.values() if r["event"] == "stolen")
        state = catalog.lease_state(role)
        assert state["holder"] == winner["holder"]
        assert state["token"] == 2  # exactly one bump for one steal


# --------------------------------------------------------------------- #
# seeded interleaving oracle over many contenders
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("stress_seed", [7, 23], indirect=True)
def test_lease_interleaving_oracle(catalog, stress_seed):
    """Random transitions from N contenders never violate the invariants.

    A manual clock advances by random increments; each step one contender
    tries to acquire (or the holder releases).  After every transition:

    * the token never decreases, and increments exactly on holder change;
    * a renewal keeps holder and token;
    * a rejection changes nothing;
    * an unexpired lease is never stolen (per the clock the catalog saw).
    """
    rng = random.Random(stress_seed)
    contenders = [f"replica-{i}" for i in range(5)]
    now = 1000.0
    ttl = 5.0
    prev = None  # last lease_state snapshot
    for step in range(600):
        now += rng.random() * 3.0  # sometimes past TTL, sometimes not
        actor = contenders[rng.randrange(len(contenders))]
        if prev is not None and prev["holder"] is not None and rng.random() < 0.1:
            catalog.release_lease("planner", prev["holder"])
            state = catalog.lease_state("planner")
            assert state["holder"] is None
            assert state["token"] == prev["token"], "release moved the token"
            prev = state
            continue
        result = catalog.acquire_lease("planner", actor, ttl, now=now)
        state = catalog.lease_state("planner")
        assert state["token"] >= (prev["token"] if prev else 0), (
            f"seed={stress_seed} step={step}: token regressed"
        )
        if result["event"] == "renewed":
            assert prev is not None and prev["holder"] == actor
            assert state["token"] == prev["token"]
            assert state["holder"] == actor
        elif result["event"] == "rejected":
            assert prev is not None
            assert state["holder"] == prev["holder"]
            assert state["token"] == prev["token"]
            assert prev["expires_at"] > now, (
                f"seed={stress_seed} step={step}: an expired lease "
                "rejected a contender"
            )
        elif result["event"] == "stolen":
            assert prev is not None and prev["holder"] not in (None, actor)
            assert prev["expires_at"] <= now, (
                f"seed={stress_seed} step={step}: a live lease was stolen"
            )
            assert state["token"] == prev["token"] + 1
            assert state["holder"] == actor
        else:  # acquired
            assert prev is None or prev["holder"] is None
            assert state["holder"] == actor
            if prev is not None:
                assert state["token"] == prev["token"] + 1
        prev = state


# --------------------------------------------------------------------- #
# PlannerLease holdership transitions
# --------------------------------------------------------------------- #
class TestPlannerLease:
    def test_acquire_renew_and_fence(self, catalog):
        clock = SkewedClock(manual=True)
        events: list[dict] = []
        lease = PlannerLease(
            catalog, "r1", ttl=10.0, clock=clock, on_event=events.append
        )
        assert lease.try_acquire() is True
        assert lease.is_holder
        assert lease.fence() == (PLANNER_ROLE, 1)
        clock.advance(5.0)
        assert lease.try_acquire() is True  # renewal
        assert lease.token == 1
        assert [e["event"] for e in events] == ["acquired", "renewed"]

    def test_zombie_learns_it_lost(self, catalog):
        clock = SkewedClock(manual=True)
        events: list[dict] = []
        zombie = PlannerLease(
            catalog, "zombie", ttl=2.0, clock=clock, on_event=events.append
        )
        thief = PlannerLease(catalog, "thief", ttl=10.0, clock=clock)
        assert zombie.try_acquire() is True
        assert thief.try_acquire() is False  # rejected while zombie is live
        clock.advance(3.0)  # zombie pauses past its TTL
        assert thief.try_acquire() is True
        assert thief.token == 2
        # The zombie still *believes* it holds the lease (its renewal
        # thread never learned otherwise) — its fence is stale.
        assert zombie.is_holder
        assert zombie.fence() == (PLANNER_ROLE, 1)
        # Its next renewal attempt surfaces the loss.
        assert zombie.try_acquire() is False
        assert not zombie.is_holder
        assert events[-1]["event"] == "lost"

    def test_release_hands_over_immediately(self, catalog):
        clock = SkewedClock(manual=True)
        first = PlannerLease(catalog, "first", ttl=100.0, clock=clock)
        second = PlannerLease(catalog, "second", ttl=100.0, clock=clock)
        assert first.try_acquire() is True
        assert second.try_acquire() is False
        assert first.release() is True
        assert second.try_acquire() is True  # no TTL wait after release
        assert second.token == 2

    def test_renewal_thread_keeps_holding(self, catalog):
        lease = PlannerLease(catalog, "bg", ttl=0.4, renew_interval=0.1)
        lease.try_acquire()
        lease.start()
        try:
            contender = PlannerLease(catalog, "contender", ttl=0.4)
            deadline = threading.Event()
            deadline.wait(0.8)  # two TTLs: without renewal this expires
            assert contender.try_acquire() is False
            assert lease.is_holder
        finally:
            lease.stop()
        assert catalog.lease_state(PLANNER_ROLE)["holder"] is None

    def test_state_snapshot_shape(self, catalog):
        lease = PlannerLease(catalog, "r1", ttl=10.0)
        lease.try_acquire()
        state = lease.state()
        assert state["is_holder"] is True
        assert state["holder"] == "r1"
        assert state["replica_id"] == "r1"
        assert state["catalog_token"] == state["token"] == 1
        assert state["events"] == {"acquired": 1}

    def test_invalid_knobs_rejected(self, catalog):
        with pytest.raises(ValueError):
            PlannerLease(catalog, "x", ttl=0.0)
        with pytest.raises(ValueError):
            PlannerLease(catalog, "x", ttl=1.0, renew_interval=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_ttl_rejected(self, catalog, bad):
        with pytest.raises(ValueError, match="ttl"):
            PlannerLease(catalog, "x", ttl=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_renew_interval_rejected(self, catalog, bad):
        with pytest.raises(ValueError, match="renew interval"):
            PlannerLease(catalog, "x", ttl=1.0, renew_interval=bad)


# --------------------------------------------------------------------- #
# clock-skew determinism
# --------------------------------------------------------------------- #
def test_skewed_clock_is_deterministic(stress_seed):
    a = SkewedClock(manual=True, offset=2.0, jitter=0.5, seed=stress_seed)
    b = SkewedClock(manual=True, offset=2.0, jitter=0.5, seed=stress_seed)
    readings_a = []
    readings_b = []
    for _ in range(50):
        a.advance(1.0)
        b.advance(1.0)
        readings_a.append(a())
        readings_b.append(b())
    assert readings_a == readings_b
    assert all(abs(r - (i + 1) - 2.0) <= 0.5 for i, r in enumerate(readings_a))


def test_fast_clock_steals_early(catalog):
    """A replica whose clock runs fast steals before the true expiry."""
    slow = SkewedClock(manual=True)
    fast = SkewedClock(manual=True, offset=3.0)  # 3 seconds ahead
    holder = PlannerLease(catalog, "holder", ttl=5.0, clock=slow)
    eager = PlannerLease(catalog, "eager", ttl=5.0, clock=fast)
    assert holder.try_acquire() is True
    slow.advance(2.5)
    fast.advance(2.5)
    # True clock says the lease has 2.5s left; the fast replica already
    # sees it expired and steals — the documented hazard of skew larger
    # than the TTL margin, reproduced deterministically.
    assert eager.try_acquire() is True
    assert eager.token == 2


# --------------------------------------------------------------------- #
# service-level gating and in-process zombie fencing
# --------------------------------------------------------------------- #
class TestServiceGating:
    def test_replica_mode_requires_catalog(self):
        repo = Repository(cache_size=0)
        with pytest.raises(ReproError, match="catalog"):
            VersionStoreService(repo, replica_id="r1")

    def test_non_holder_repack_prune_and_adaptive_raise(self, tmp_path):
        spec = "sqlite://" + os.path.join(tmp_path, "cat.db")
        repo1 = Repository(LineDiffEncoder(), backend=spec)
        for i in range(5):
            repo1.commit("payload\n" * (i + 1), message=f"c{i}")
        holder = VersionStoreService(repo1, replica_id="holder", lease_ttl=30.0)
        repo2 = Repository(LineDiffEncoder(), backend=spec)
        follower = VersionStoreService(repo2, replica_id="follower", lease_ttl=30.0)
        try:
            assert holder.lease.is_holder
            assert not follower.lease.is_holder
            with pytest.raises(NotLeaseHolderError):
                follower.repack()
            with pytest.raises(NotLeaseHolderError):
                follower.prune_epochs()
            with pytest.raises(NotLeaseHolderError):
                follower.policy.cycle()
            # Dry runs are read-only and allowed everywhere.
            report = follower.repack(dry_run=True)
            assert report["applied"] is False
            # The holder itself repacks fine.
            assert holder.repack()["applied"] is True
        finally:
            holder.close()
            follower.close()

    def test_zombie_staging_is_fenced_at_activation(self, tmp_path):
        spec = "sqlite://" + os.path.join(tmp_path, "cat.db")
        repo = Repository(LineDiffEncoder(), backend=spec)
        for i in range(6):
            repo.commit("row\n" * (i + 2), message=f"c{i}")
        service = VersionStoreService(
            repo, replica_id="zombie", lease_ttl=0.2, lease_renew=60.0
        )
        try:
            # Simulate SIGSTOP: the renewal thread dies but the in-memory
            # belief (and the fence it will stage under) stays.
            service.lease.stop(release=False)
            assert service.lease.is_holder  # the zombie's stale belief
            threading.Event().wait(0.3)  # TTL lapses
            stolen = repo.catalog.acquire_lease(
                PLANNER_ROLE, "peer", 30.0
            )
            assert stolen["event"] == "stolen"
            epoch_before = repo.catalog.epoch()
            report = service.repack()
            assert report["applied"] is False
            assert "fenced" in report
            assert repo.catalog.epoch() == epoch_before
            # The fencing is observable: a lease_fenced decision record
            # and a failed snapshot.
            events = [r["event"] for r in service.policy.decision_log.tail(50)]
            assert "lease_fenced" in events
            statuses = [s["status"] for s in repo.catalog.snapshots()]
            assert "failed" in statuses
        finally:
            service.close()

    def test_stats_and_metrics_surface_lease(self, tmp_path):
        spec = "sqlite://" + os.path.join(tmp_path, "cat.db")
        repo = Repository(LineDiffEncoder(), backend=spec)
        repo.commit("hello\n", message="c0")
        service = VersionStoreService(repo, replica_id="r1", lease_ttl=30.0)
        try:
            lease_stats = service.stats()["repack"]["lease"]
            assert lease_stats["is_holder"] is True
            assert lease_stats["holder"] == "r1"
            text = service.metrics.render_prometheus()
            assert "repro_lease_holder" in text
            assert "repro_lease_events_total" in text
            snapshot = service.metrics.snapshot()
            holder_series = snapshot["repro_lease_holder"]["series"]
            assert holder_series == [{"labels": {}, "value": 1.0}]
        finally:
            service.close()
