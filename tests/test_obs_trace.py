"""Span-tree tracing and the repack decision log (ring + persistence)."""

from __future__ import annotations

import threading

import pytest

from repro.obs import DecisionLog, JsonLogSink, Trace
from repro.obs.trace import NULL_TRACE, NullTrace
from repro.storage.catalog import MetadataCatalog


class TestTrace:
    def test_span_nesting_and_dump(self):
        trace = Trace("request")
        with trace.span("shared", version="v1") as shared:
            with shared.span("materialize", object="abc") as span:
                span.add_lock_wait(0.002)
                span.tag("deltas_applied", 3)
        dump = trace.to_dict()
        assert dump["trace_id"] == trace.trace_id
        root = dump["span"]
        assert root["name"] == "request"
        shared_dump = root["children"][0]
        assert shared_dump["tags"] == {"version": "v1"}
        child = shared_dump["children"][0]
        assert child["name"] == "materialize"
        assert child["lock_wait_ms"] == pytest.approx(2.0)
        assert child["tags"]["deltas_applied"] == 3
        assert child["wall_ms"] >= 0.0

    def test_exception_inside_span_is_tagged(self):
        trace = Trace()
        with pytest.raises(RuntimeError):
            with trace.span("boom"):
                raise RuntimeError("nope")
        dump = trace.to_dict()
        assert dump["span"]["children"][0]["tags"]["error"] == "RuntimeError"

    def test_trace_ids_are_unique(self):
        assert Trace().trace_id != Trace().trace_id

    def test_null_trace_is_inert_and_shared(self):
        assert Trace.null() is NULL_TRACE
        assert isinstance(NULL_TRACE, NullTrace)
        assert NULL_TRACE.enabled is False
        span = NULL_TRACE.span("anything", k="v")
        with span:
            span.add_lock_wait(1.0)
            span.tag("k", "v")
        assert NULL_TRACE.span("other") is span
        assert NULL_TRACE.to_dict() == {}


class TestDecisionLog:
    def test_ring_buffer_caps_and_orders(self):
        log = DecisionLog(capacity=3)
        for index in range(5):
            log.append({"event": "adaptive_evaluate", "index": index})
        tail = log.tail()
        assert [record["index"] for record in tail] == [2, 3, 4]
        assert [record["seq"] for record in tail] == [3, 4, 5]
        assert len(log) == 3
        assert log.last_seq == 5
        assert [r["index"] for r in log.tail(limit=2)] == [3, 4]

    def test_append_returns_stamped_copy(self):
        log = DecisionLog(capacity=4)
        record = {"event": "repack"}
        stamped = log.append(record)
        assert stamped["seq"] == 1
        assert "seq" not in record  # the caller's dict is untouched

    def test_concurrent_appends_stay_sequential(self):
        log = DecisionLog(capacity=1000)

        def worker() -> None:
            for _ in range(100):
                log.append({"event": "x"})

        pool = [threading.Thread(target=worker) for _ in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert log.last_seq == 400
        seqs = [record["seq"] for record in log.tail(limit=400)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 400

    def test_catalog_persistence_survives_restart(self, tmp_path):
        """Records written through the catalog reload into a fresh log."""
        path = str(tmp_path / "cat.db")
        catalog = MetadataCatalog(path)
        log = DecisionLog(capacity=8, catalog=catalog)
        log.append({"event": "adaptive_evaluate", "verdict": "held"})
        log.append({"event": "repack", "applied": True})
        catalog.close()

        reopened = MetadataCatalog(path)
        restored = DecisionLog(capacity=8, catalog=reopened)
        tail = restored.tail()
        assert [record["event"] for record in tail] == [
            "adaptive_evaluate",
            "repack",
        ]
        # Sequencing continues after the restart instead of restarting at 1.
        assert restored.append({"event": "repack"})["seq"] == 3
        reopened.close()

    def test_catalog_retention_is_bounded(self, tmp_path):
        from repro.storage import catalog as catalog_module

        path = str(tmp_path / "cat.db")
        catalog = MetadataCatalog(path)
        keep = catalog_module._DECISION_RETENTION
        for index in range(keep + 10):
            catalog.append_repack_decision({"event": "x", "index": index})
        rows = catalog.repack_decisions(limit=keep + 100)
        assert len(rows) == keep
        assert rows[0]["index"] == 10  # the 10 oldest were trimmed
        assert rows[-1]["index"] == keep + 9
        catalog.close()

    def test_log_without_catalog_does_not_persist(self):
        log = DecisionLog(capacity=4, catalog=None)
        log.append({"event": "x"})
        assert len(log) == 1

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            DecisionLog(capacity=0)

    def test_unpersisted_records_stay_out_of_the_catalog(self, tmp_path):
        catalog = MetadataCatalog(str(tmp_path / "cat.db"))
        log = DecisionLog(capacity=8, catalog=catalog)
        log.append({"event": "lease_renewed"}, persist=False)
        log.append({"event": "repack"})
        assert [r["event"] for r in log.tail()] == ["lease_renewed", "repack"]
        assert [r["event"] for r in catalog.repack_decisions(limit=8)] == ["repack"]
        catalog.close()

    def test_unreadable_catalog_starts_an_empty_log(self):
        class BrokenCatalog:
            def repack_decisions(self, limit):
                raise OSError("catalog is gone")

            def append_repack_decision(self, record):
                raise OSError("catalog is gone")

        log = DecisionLog(capacity=4, catalog=BrokenCatalog())
        assert len(log) == 0
        # A failed write-through keeps the record in the ring buffer.
        stamped = log.append({"event": "repack"})
        assert stamped["seq"] == 1
        assert log.tail() == [stamped]


class TestJsonLogSink:
    def test_events_are_appended_as_json_lines(self, tmp_path):
        import json

        path = str(tmp_path / "events.jsonl")
        with JsonLogSink(path) as sink:
            sink.emit("request", endpoint="checkout", status=200)
            sink.emit("repack_decision", verdict="held")
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8").read().splitlines()
        ]
        assert [line["event"] for line in lines] == ["request", "repack_decision"]
        assert lines[0]["endpoint"] == "checkout"
        assert all("ts" in line for line in lines)

    def test_failed_write_disables_the_sink(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonLogSink(path)
        sink._fh.close()  # simulate the file handle dying under the sink
        sink.emit("request", endpoint="checkout")  # must not raise
        sink.emit("request", endpoint="checkout")
        assert sink._fh is None
        sink.close()
