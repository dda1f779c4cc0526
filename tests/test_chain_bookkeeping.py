"""Chain bookkeeping: the read path prices chains in O(replayed suffix).

* **decision equivalence** — a seeded uniform read sequence over a deep,
  mostly linear store, and a ``checkout_many`` sequence over a fork fan,
  make exactly the cache admissions, evictions and replays pinned below
  (recorded from the full-chain-walk implementation these memos replaced)
  and return byte-identical payloads;
* **work bound** — a warm repeat of a deep tip touches a constant number
  of index entries, a cold checkout a number proportional to its replayed
  suffix, never to the chain's depth;
* **stripe keys** — the memoized ``subtree_stripe_key`` equals a
  brute-force root-first scan over random fork graphs while commits, new
  fork points and removals interleave;
* **stale prices** — a victim price memoized before a store removal or a
  repack swap is never reused after it.
"""

from __future__ import annotations

import random

import pytest

from repro.server.service import VersionStoreService
from repro.storage.batch import BatchMaterializer
from repro.storage.objects import ObjectStore
from repro.storage.repository import Repository
from repro.delta.line_diff import LineDiffEncoder

ROWS = 24


def _edit(payload: list[str], rng: random.Random, stamp: int) -> list[str]:
    edited = list(payload)
    row = rng.randrange(ROWS)
    edited[row] = f"row,{row},{stamp},{rng.randrange(10**6)}"
    return edited


def build_deep_store(depth: int = 320, fork_every: int = 40):
    """A ``depth``-commit history, linear but for a short side branch
    every ``fork_every`` commits; returns the repository and the payload
    of every version."""
    rng = random.Random(11)
    repo = Repository(cache_size=0)
    payload = [f"row,{i},0" for i in range(ROWS)]
    head = repo.commit(payload, message="base")
    expected = {head: payload}
    for step in range(1, depth):
        payload = _edit(payload, rng, step)
        head = repo.commit(payload, parents=[head])
        expected[head] = payload
        if step % fork_every == 0:
            side, side_payload = head, payload
            for side_step in range(3):
                side_payload = _edit(side_payload, rng, -step - side_step)
                side = repo.commit(side_payload, parents=[side])
                expected[side] = side_payload
    return repo, expected


def build_fork_fan(arms: int = 8, length: int = 16):
    """A root with ``arms`` linear arms of ``length`` commits each."""
    rng = random.Random(5)
    repo = Repository(cache_size=0)
    root_payload = [f"row,{i},0" for i in range(ROWS)]
    root = repo.commit(root_payload, message="root")
    expected = {root: root_payload}
    for arm in range(arms):
        head, payload = root, root_payload
        for step in range(length):
            payload = _edit(payload, rng, arm * 1000 + step)
            head = repo.commit(payload, parents=[head])
            expected[head] = payload
    return repo, expected


# --------------------------------------------------------------------- #
# decision equivalence
# --------------------------------------------------------------------- #
# Recorded from the full-chain-walk read path: the memos must make the
# same decisions, only cheaper.
PINNED_DEEP = {
    "hits": 1188,
    "misses": 6896,
    "cost_evictions": 390,
    "lru_evictions": 5,
    "admission_rejections": 2989,
    "deltas_applied": 3436,
}
PINNED_DEEP_TIERED = {
    "hits": 398,
    "misses": 3563,
    "cost_evictions": 380,
    "lru_evictions": 7,
    "admission_rejections": 1731,
    "deltas_applied": 1380,
    "tier": {
        "entries": 166,
        "hits": 801,
        "misses": 2762,
        "spills": 1381,
        "cost_evictions": 1202,
        "lru_evictions": 13,
    },
}
PINNED_FAN = {
    "hits": 1264,
    "misses": 1958,
    "cost_evictions": 202,
    "lru_evictions": 9,
    "admission_rejections": 639,
    "deltas_applied": 913,
}


def _counters(service, deltas_applied: int) -> dict[str, object]:
    info = service.materializer.cache_info()
    counters: dict[str, object] = {
        name: info[name] for name in PINNED_FAN if name in info
    }
    counters["deltas_applied"] = deltas_applied
    if "tier" in info:
        counters["tier"] = {
            name: info["tier"][name] for name in PINNED_DEEP_TIERED["tier"]
        }
    return counters


def _uniform_deep_reads(service, expected) -> int:
    rng = random.Random(2024)
    vids = sorted(expected, key=str)
    deltas = 0
    for _ in range(1200):
        vid = rng.choice(vids)
        response = service.checkout(vid)
        assert response.payload == expected[vid]
        deltas += response.deltas_applied
    return deltas


def test_uniform_deep_reads_make_the_pinned_cache_decisions():
    repo, expected = build_deep_store()
    assert max(repo.chain_stats(vid).length for vid in expected) >= 300
    service = VersionStoreService(repo, cache_size=64)
    deltas = _uniform_deep_reads(service, expected)
    assert _counters(service, deltas) == PINNED_DEEP


def test_uniform_deep_reads_over_a_spill_tier_make_the_pinned_decisions(tmp_path):
    repo, expected = build_deep_store()
    service = VersionStoreService(
        repo,
        cache_size=64,
        cache_tier_dir=str(tmp_path / "tier"),
        cache_tier_bytes=40_000,
    )
    deltas = _uniform_deep_reads(service, expected)
    assert _counters(service, deltas) == PINNED_DEEP_TIERED


def test_fork_fan_batches_make_the_pinned_cache_decisions():
    repo, expected = build_fork_fan()
    service = VersionStoreService(repo, cache_size=64)
    rng = random.Random(99)
    vids = sorted(expected, key=str)
    deltas = 0
    for _ in range(80):
        batch = rng.sample(vids, 16)
        result = service.checkout_many(batch)
        for vid in batch:
            assert result.items[vid].payload == expected[vid]
        deltas += result.deltas_applied
    assert _counters(service, deltas) == PINNED_FAN


# --------------------------------------------------------------------- #
# work bound
# --------------------------------------------------------------------- #
class CountingIndex(dict):
    """The store's ``_meta`` index, counting every entry looked up."""

    touches = 0

    def get(self, key, default=None):
        self.touches += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.touches += 1
        return dict.__getitem__(self, key)

    def __contains__(self, key):
        self.touches += 1
        return dict.__contains__(self, key)


def test_chain_queries_cost_the_replayed_suffix_not_the_depth():
    repo, expected = build_deep_store()
    store = repo.store
    by_depth = sorted(expected, key=lambda vid: repo.chain_stats(vid).length)
    service = VersionStoreService(repo, cache_size=64)
    materializer = service.materializer
    sample = materializer.cache.eviction_sample
    service.checkout(by_depth[-1])
    index = store._meta = CountingIndex(store._meta)

    # A warm repeat of a deep tip: nothing to replay, no chain walked.
    deep_cached = [
        vid
        for vid in by_depth
        if repo.chain_stats(vid).length >= 300
        and materializer.warm_chain_cost(repo.object_id_of(vid)).deltas == 0
    ]
    assert deep_cached
    index.touches = 0
    response = service.checkout(deep_cached[-1])
    assert response.deltas_applied == 0
    assert index.touches <= 4

    # Cold checkouts: the suffix walk plus pricing of each put against
    # the sampled victims — proportional to the suffix, whatever the depth.
    rng = random.Random(3)
    for vid in rng.sample(by_depth, 24):
        suffix = materializer.warm_chain_cost(repo.object_id_of(vid)).deltas
        index.touches = 0
        response = service.checkout(vid)
        assert response.payload == expected[vid]
        assert response.deltas_applied == suffix
        assert index.touches <= 2 * (suffix + 1) * (sample + 1)


# --------------------------------------------------------------------- #
# stripe keys
# --------------------------------------------------------------------- #
def reference_stripe_key(store: ObjectStore, object_id: str) -> str | None:
    """The root-first scan: the node below the deepest fork point, with
    fork points counted from the indexed base links themselves."""
    chain = []
    current = object_id
    while current is not None:
        meta = store.meta(current)
        if meta is None:
            return None
        chain.append(current)
        current = meta.base_id
    chain.reverse()
    children: dict[str, int] = {}
    for oid in store.object_ids():
        meta = store.meta(oid)
        if meta is not None and meta.base_id is not None:
            children[meta.base_id] = children.get(meta.base_id, 0) + 1
    key = chain[0]
    for index in range(len(chain) - 1):
        if children.get(chain[index], 0) >= 2:
            key = chain[index + 1]
    return key


@pytest.mark.parametrize("seed", range(6))
def test_memoized_stripe_keys_match_the_root_first_scan(seed):
    rng = random.Random(seed)
    encoder = LineDiffEncoder()
    store = ObjectStore()
    payloads: dict[str, list[str]] = {}
    root = [f"r,{i}" for i in range(8)]
    payloads[store.put_full(root)] = root
    for step in range(160):
        roll = rng.random()
        live = list(payloads)  # insertion order: newest last
        if roll < 0.08 and len(live) > 2:
            # Removing an interior node orphans its subtree's keys.
            victim = rng.choice(live)
            store.remove(victim)
            del payloads[victim]
        elif roll < 0.12:
            fresh = [f"n{step},{i}" for i in range(8)]
            payloads[store.put_full(fresh)] = fresh
        else:
            # Mostly extend a recent node; sometimes fork an old one.
            base = live[-1] if roll < 0.6 else rng.choice(live)
            edited = list(payloads[base])
            edited[rng.randrange(8)] = f"e{step}"
            payloads[store.put_delta(base, encoder.diff(payloads[base], edited))] = (
                edited
            )
        # Query between mutations, so the memo is warm when the next
        # commit, fork point or removal lands.
        present = list(payloads)
        for oid in rng.sample(present, min(6, len(present))):
            assert store.subtree_stripe_key(oid) == reference_stripe_key(store, oid)
    for oid in payloads:
        assert store.subtree_stripe_key(oid) == reference_stripe_key(store, oid)


def test_a_branch_a_peer_removed_stops_counting_as_a_fork(tmp_path):
    """A reader that prunes a peer's removal from its index (while
    totalling storage) no longer keys the surviving branch below a fork
    point that has one branch left."""
    encoder = LineDiffEncoder()
    directory = str(tmp_path / "objects")
    reader = ObjectStore(backend=f"file://{directory}")
    base = reader.put_full(["x", "y"])
    left = reader.put_delta(base, encoder.diff(["x", "y"], ["x", "l"]))
    right = reader.put_delta(base, encoder.diff(["x", "y"], ["x", "r"]))
    assert reader.subtree_stripe_key(right) == right
    ObjectStore(backend=f"file://{directory}").remove(left)
    reader.total_storage_cost()
    assert reader.meta(left) is None
    assert reader.subtree_stripe_key(right) == base
    assert reference_stripe_key(reader, right) == base


# --------------------------------------------------------------------- #
# victim prices
# --------------------------------------------------------------------- #
def _linear(length: int = 10):
    repo = Repository(cache_size=0)
    payload = [f"row,{i}" for i in range(20)]
    vids = [repo.commit(payload)]
    for step in range(1, length):
        payload = list(payload) + [f"appended,{step}"]
        vids.append(repo.commit(payload))
    return repo, vids


def _fresh_price(engine: BatchMaterializer, key: str) -> float | None:
    return engine.store.marginal_chain_cost(key, engine.cache.__contains__)


def test_memoized_prices_follow_the_cache_key_set():
    repo, vids = _linear()
    engine = BatchMaterializer(repo.store, repo.encoder, cache_size=8)
    chain = repo.store.chain_ids(repo.object_id_of(vids[-1]))
    tip = chain[-1]
    engine.cache.put(tip, "tip payload")
    price = engine.cache.victim_cost
    assert price(tip) == pytest.approx(repo.chain_stats(vids[-1]).phi_total)
    # An ancestor entering the cache cuts the walk short...
    engine.cache.put(chain[4], "mid payload")
    assert price(tip) == _fresh_price(engine, tip)
    assert price(tip) < repo.chain_stats(vids[-1]).phi_total
    # ...and leaving it lengthens the walk again.
    engine.cache.clear()
    engine.cache.put(tip, "tip payload")
    assert price(tip) == pytest.approx(repo.chain_stats(vids[-1]).phi_total)


def test_refused_puts_reuse_the_sampled_victims_prices(monkeypatch):
    repo, vids = _linear(14)
    engine = BatchMaterializer(repo.store, repo.encoder, cache_size=4)
    chain = repo.store.chain_ids(repo.object_id_of(vids[-1]))
    for oid in (chain[0], chain[5], chain[9], chain[13]):
        engine.cache.put(oid, oid)
    walked: list[str] = []
    real = repo.store.marginal_chain_cost

    def counting(object_id, cached):
        walked.append(object_id)
        return real(object_id, cached)

    monkeypatch.setattr(repo.store, "marginal_chain_cost", counting)
    # chain[1]'s base is the cached root: one delta to rebuild, cheaper
    # than every sampled victim, so refused.
    engine.cache.put(chain[1], "cheap")
    assert engine.cache.admission_rejections == 1
    first = list(walked)
    walked.clear()
    engine.cache.put(chain[1], "cheap")
    assert engine.cache.admission_rejections == 2
    # The second refusal prices only the candidate: the key set did not
    # change, so every sampled victim's price was reused.
    assert walked == [chain[1]]
    assert len(first) > 1


def test_a_price_never_outlives_a_store_removal():
    repo, vids = _linear()
    engine = BatchMaterializer(repo.store, repo.encoder, cache_size=8)
    chain = repo.store.chain_ids(repo.object_id_of(vids[-1]))
    tip = chain[-1]
    engine.cache.put(tip, "tip payload")
    assert engine.cache.victim_cost(tip) == pytest.approx(
        repo.chain_stats(vids[-1]).phi_total
    )
    repo.store.remove(chain[3])
    # The walk now meets an unindexed link: unpriceable, not the old sum.
    assert _fresh_price(engine, tip) is None
    assert engine.cache.victim_cost(tip) is None


def test_a_price_never_outlives_a_repack_swap():
    repo, vids = _linear(12)
    service = VersionStoreService(repo, cache_size=64)
    for vid in vids:
        service.checkout(vid)
    cache = service.materializer.cache
    priced = {key: cache.victim_cost(key) for key in list(cache._entries)}
    assert priced and all(price is not None for price in priced.values())
    report = service.repack(problem=3, threshold_factor=1.5)
    assert report["applied"]
    for key, old in priced.items():
        assert cache.victim_cost(key) == _fresh_price(service.materializer, key)
    for vid in vids:
        service.checkout(vid)
    for key in list(cache._entries):
        assert cache.victim_cost(key) == _fresh_price(service.materializer, key)


# --------------------------------------------------------------------- #
# the memos under races (slow: the repack-e2e stress battery runs it)
# --------------------------------------------------------------------- #
@pytest.mark.slow
def test_memos_stay_exact_while_readers_race_repacks_and_fork_commits():
    import sys
    import threading

    repo, expected = build_deep_store(depth=120, fork_every=30)
    service = VersionStoreService(repo, cache_size=32)
    store = repo.store
    failures: list[BaseException] = []
    done = threading.Event()

    def reader(seed: int) -> None:
        rng = random.Random(seed)
        try:
            while not done.is_set():
                vids = list(expected)
                vid = rng.choice(vids)
                response = service.checkout(vid)
                assert response.payload == expected[vid]
                if rng.random() < 0.2:
                    batch = rng.sample(vids, 6)
                    result = service.checkout_many(batch)
                    for key in batch:
                        assert result.items[key].payload == expected[key]
        except BaseException as error:  # reported by the main thread
            failures.append(error)
            done.set()

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads mid-walk as often as possible
    for thread in threads:
        thread.start()
    rng = random.Random(17)
    applied = 0
    try:
        for round_ in range(6):
            report = service.repack(
                problem=3, threshold_factor=1.5 + 0.5 * (round_ % 3)
            )
            applied += bool(report["applied"])
            # A commit on an old version turns it into a new fork point.
            parent = rng.choice(sorted(expected, key=str))
            payload = _edit(expected[parent], rng, 10_000 + round_)
            vid = service.commit(payload, parents=[parent])
            expected[vid] = payload
            if failures:
                break
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=120)
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert applied >= 2, "the swaps the battery races must happen"
    assert service.stats_counters.checkout_requests >= 100

    for vid, payload in expected.items():
        assert service.checkout(vid).payload == payload
        oid = repo.object_id_of(vid)
        assert store.subtree_stripe_key(oid) == reference_stripe_key(store, oid)
    cache = service.materializer.cache
    for key in list(cache._entries):
        assert cache.victim_cost(key) == _fresh_price(service.materializer, key)
