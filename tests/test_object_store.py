"""Tests for the content-addressed object store and the materializer."""

from __future__ import annotations

import pytest

from repro.delta.line_diff import LineDiffEncoder
from repro.exceptions import ObjectNotFoundError
from repro.storage.batch import BatchMaterializer
from repro.storage.objects import ObjectStore


class TestObjectStore:
    def test_put_and_get_full(self):
        store = ObjectStore()
        object_id = store.put_full(["a", "b"])
        obj = store.get(object_id)
        assert obj.payload == ["a", "b"]
        assert not obj.is_delta
        assert object_id in store

    def test_identical_payloads_deduplicated(self):
        store = ObjectStore()
        first = store.put_full(["same", "content"])
        second = store.put_full(["same", "content"])
        assert first == second
        assert len(store) == 1

    def test_put_delta_requires_existing_base(self):
        store = ObjectStore()
        encoder = LineDiffEncoder()
        delta = encoder.diff(["a"], ["b"])
        with pytest.raises(ObjectNotFoundError):
            store.put_delta("missing", delta)

    def test_delta_chain_walks_to_full_object(self):
        store = ObjectStore()
        encoder = LineDiffEncoder()
        base_id = store.put_full(["a", "b", "c"])
        delta1 = encoder.diff(["a", "b", "c"], ["a", "x", "c"])
        mid_id = store.put_delta(base_id, delta1)
        delta2 = encoder.diff(["a", "x", "c"], ["a", "x", "c", "d"])
        leaf_id = store.put_delta(mid_id, delta2)
        chain = store.delta_chain(leaf_id)
        assert [obj.object_id for obj in chain] == [base_id, mid_id, leaf_id]
        assert store.delta_chain(base_id) == [store.get(base_id)]

    def test_get_many_omits_missing_ids(self):
        store = ObjectStore()
        first = store.put_full(["one"])
        second = store.put_full(["two"])
        found = store.get_many([first, "missing", second])
        assert set(found) == {first, second}
        assert found[first].payload == ["one"]
        assert found[second].payload == ["two"]
        assert store.get_many([]) == {}

    def test_get_many_indexes_what_it_reads(self, tmp_path):
        directory = str(tmp_path / "objects")
        writer = ObjectStore(directory=directory)
        encoder = LineDiffEncoder()
        base_id = writer.put_full(["a", "b"])
        leaf_id = writer.put_delta(base_id, encoder.diff(["a", "b"], ["a", "c"]))
        reader = ObjectStore(directory=directory)
        # The index answers nothing it has not been told: no key, no meta.
        assert reader.subtree_stripe_key(leaf_id) is None
        assert reader.meta(leaf_id) is None and reader.meta(base_id) is None
        reader.get_many([base_id, leaf_id])
        assert reader.meta(leaf_id).base_id == base_id
        assert reader.meta(base_id).base_id is None
        assert reader.subtree_stripe_key(leaf_id) == base_id

    def test_get_missing_raises(self):
        with pytest.raises(ObjectNotFoundError):
            ObjectStore().get("nope")

    def test_remove(self):
        store = ObjectStore()
        object_id = store.put_full("payload")
        store.remove(object_id)
        assert object_id not in store
        store.remove(object_id)  # idempotent

    def test_total_storage_cost_counts_deltas_and_fulls(self):
        store = ObjectStore()
        encoder = LineDiffEncoder()
        base_id = store.put_full(["line one", "line two"])
        delta = encoder.diff(["line one", "line two"], ["line one", "changed"])
        store.put_delta(base_id, delta)
        expected = store.get(base_id).storage_cost() + delta.storage_cost
        assert store.total_storage_cost() == pytest.approx(expected)

    def test_disk_persistence_roundtrip(self, tmp_path):
        directory = str(tmp_path / "objects")
        store = ObjectStore(directory=directory)
        object_id = store.put_full(["persisted"])
        reopened = ObjectStore(directory=directory)
        assert reopened.get(object_id).payload == ["persisted"]

    def test_iteration(self):
        store = ObjectStore()
        ids = {store.put_full(f"payload {i}") for i in range(3)}
        assert {obj.object_id for obj in store} == ids


class TestMaterializer:
    def build_chain(self):
        store = ObjectStore()
        encoder = LineDiffEncoder()
        payloads = [[f"line {i}" for i in range(20)]]
        for step in range(4):
            previous = payloads[-1]
            payloads.append(previous[:10] + [f"edit {step}"] + previous[10:])
        ids = [store.put_full(payloads[0])]
        for previous, current in zip(payloads, payloads[1:]):
            delta = encoder.diff(previous, current)
            ids.append(store.put_delta(ids[-1], delta))
        return store, encoder, payloads, ids

    def test_materialize_full_object(self):
        store, encoder, payloads, ids = self.build_chain()
        result = BatchMaterializer(store, encoder).materialize(ids[0])
        assert result.payload == payloads[0]
        assert result.chain_length == 0

    def test_materialize_deep_delta(self):
        store, encoder, payloads, ids = self.build_chain()
        result = BatchMaterializer(store, encoder).materialize(ids[-1])
        assert result.payload == payloads[-1]
        assert result.chain_length == 4

    def test_recreation_cost_equals_chain_sum(self):
        store, encoder, payloads, ids = self.build_chain()
        result = BatchMaterializer(store, encoder).materialize(ids[-1])
        chain = store.delta_chain(ids[-1])
        expected = chain[0].storage_cost() + sum(
            obj.payload.recreation_cost for obj in chain[1:]
        )
        assert result.recreation_cost == pytest.approx(expected)

    def test_cache_hits_reduce_work(self):
        store, encoder, payloads, ids = self.build_chain()
        materializer = BatchMaterializer(store, encoder, cache_size=10)
        first = materializer.materialize(ids[-1])
        second = materializer.materialize(ids[-1])
        assert first.cache_hits == 0
        assert second.cache_hits == len(ids)  # the cached tip covers the chain
        assert second.deltas_applied == 0
        assert second.payload == payloads[-1]

    def test_cache_eviction_respects_size(self):
        store, encoder, payloads, ids = self.build_chain()
        materializer = BatchMaterializer(store, encoder, cache_size=1)
        materializer.materialize(ids[-1])
        assert len(materializer.cache) == 1

    def test_clear_cache(self):
        store, encoder, payloads, ids = self.build_chain()
        materializer = BatchMaterializer(store, encoder, cache_size=5)
        materializer.materialize(ids[-1])
        materializer.clear_cache()
        assert materializer.materialize(ids[-1]).cache_hits == 0
