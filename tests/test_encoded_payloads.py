"""The HTTP server's memo of encoded checkout payloads.

A checkout body is written around the memoized ``json.dumps(payload)``
bytes; these tests pin that every body stays byte-identical to
``json.dumps(response.to_dict())``, that the memo keeps to its byte cap and
its frequency ranking, and that a repack never serves an old object's bytes.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import types
import urllib.request

import pytest

from repro.server import httpd
from repro.server.httpd import (
    COUNT_HALVING_PERIOD,
    ENCODED_PAYLOAD_BYTES,
    EncodedPayloads,
    serve_in_thread,
)
from repro.server.service import VersionStoreService
from repro.storage.batch import BatchMaterializer
from repro.storage.repository import Repository

ODD_ROWS = [
    'quote " inside',
    "back\\slash",
    "tab\tnew\nline \x01 \x1f",
    "non-ascii é ß 漢字 🙂",
    "</script>",
]


def big(tag: str, size: int) -> str:
    """A str payload whose encoding is ``size + 2`` bytes."""
    return tag + "x" * (size - len(tag))


class Served:
    """A served repository whose checkouts record what the service answered."""

    def __init__(self, repo: Repository) -> None:
        self.repo = repo
        self.service = VersionStoreService(repo, cache_size=64)
        self.answered: list = []
        checkout = self.service.checkout

        def recording(version_id, *, trace=None):
            response = checkout(version_id, trace=trace)
            self.answered.append((response, trace))
            return response

        self.service.checkout = recording
        self.server, _thread = serve_in_thread(self.service, port=0)

    def get(self, path: str) -> bytes:
        with urllib.request.urlopen(self.server.url + path, timeout=30) as reply:
            return reply.read()

    def post(self, path: str, body: dict) -> bytes:
        request = urllib.request.Request(
            self.server.url + path,
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.read()

    def expected(self, response, trace) -> bytes:
        """What the server sent before the memo: the whole dict, encoded."""
        body = response.to_dict()
        if trace is not None:
            body["trace"] = trace.to_dict()
        return json.dumps(body).encode("utf-8")

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def served():
    repo = Repository(cache_size=0)
    rows = [f"row,{i},{i * 7}" for i in range(30)]
    vids = [repo.commit(rows, message="ascii")]
    vids.append(repo.commit(rows + ODD_ROWS, message="escapes"))
    vids.append(repo.commit({"name": "é\"\\", "rows": ODD_ROWS, "n": 1.5}))
    for step in range(4):
        rows = rows + [f"appended,{step}"]
        vids.append(repo.commit(rows, message=f"step {step}"))
    server = Served(repo)
    try:
        yield server, vids
    finally:
        server.close()


class TestByteIdentity:
    @pytest.mark.parametrize("index", [0, 1, 2, 6], ids=["ascii", "escapes", "dict", "delta"])
    def test_get_cold_and_warm(self, served, index):
        server, vids = served
        for _ in range(3):  # a miss, then hits from the memo
            body = server.get(f"/checkout/{vids[index]}")
            assert body == server.expected(*server.answered[-1])
        assert json.loads(body)["payload"] == server.repo.checkout(vids[index]).payload
        assert server.server.encoded_payloads.hits == 2

    def test_traced(self, served):
        server, vids = served
        for path in (f"/checkout/{vids[1]}", f"/checkout/{vids[1]}?trace=1"):
            body = server.get(path)
            response, trace = server.answered[-1]
            assert body == server.expected(response, trace)
        assert trace is not None and list(json.loads(body))[-1] == "trace"

    def test_post(self, served):
        server, vids = served
        for body in ({"version": vids[2]}, {"version": vids[2], "trace": True}):
            sent = server.post("/checkout", body)
            assert sent == server.expected(*server.answered[-1])

    def test_coalesced(self, served):
        server, vids = served
        materializer = server.service.materializer
        materialize = materializer.materialize
        leading, release = threading.Event(), threading.Event()

        def held(object_id):
            leading.set()
            assert release.wait(10)
            return materialize(object_id)

        materializer.materialize = held
        checkout = server.service.checkout
        waiting = threading.Event()

        def second(version_id, *, trace=None):
            if leading.is_set():
                waiting.set()
            return checkout(version_id, trace=trace)

        server.service.checkout = second
        bodies = []
        path = f"/checkout/{vids[5]}"
        threads = [
            threading.Thread(target=lambda: bodies.append(server.get(path)))
            for _ in range(2)
        ]
        threads[0].start()
        assert leading.wait(10)
        threads[1].start()
        assert waiting.wait(10)
        # The follower finds the leader's in-flight entry at once.
        threading.Event().wait(0.2)
        release.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        flags = sorted(json.loads(body)["coalesced"] for body in bodies)
        assert flags == [False, True]
        expected = {server.expected(*answer) for answer in server.answered}
        assert set(bodies) == expected


class TestMemo:
    def test_cap_is_never_exceeded(self):
        memo = EncodedPayloads()
        sizes = [300_000, 40_000, 500_000, 7, 260_000, 1_000_000, 90_000]
        for round_ in range(6):
            for index, size in enumerate(sizes):
                for _ in range(index % 3 + round_ % 2 + 1):
                    memo.encoded(f"o{index}", big(f"{index}", size))
                assert memo.bytes == sum(map(len, memo._bodies.values()))
                assert memo.bytes <= ENCODED_PAYLOAD_BYTES

    def test_bodies_are_the_payload_encoding(self):
        memo = EncodedPayloads()
        payload = {"rows": ODD_ROWS, "n": [1, 2.5, None, True]}
        first = memo.encoded("a", payload)
        assert first == json.dumps(payload).encode("utf-8")
        kept = memo.encoded("a", payload)
        assert kept == first
        assert memo.encoded("a", payload) is kept
        assert (memo.hits, memo.misses) == (2, 1)

    def test_hot_key_displaces_a_cold_one_never_the_reverse(self):
        memo = EncodedPayloads()
        third = ENCODED_PAYLOAD_BYTES // 3 - 8
        for key in ("cold1", "cold2", "cold3"):
            memo.encoded(key, big(key, third))
        assert set(memo._bodies) == {"cold1", "cold2", "cold3"}
        memo.encoded("hot", big("hot", third))
        assert "hot" not in memo._bodies  # counted 1, like every entry
        memo.encoded("hot", big("hot", third))
        assert "hot" not in memo._bodies  # twice, not more than twice
        memo.encoded("hot", big("hot", third))
        assert "hot" in memo._bodies
        assert len(memo._bodies) == 3
        for _ in range(3):
            memo.encoded("hot", big("hot", third))
        for key in ("cold4", "cold4", "cold5", "cold5", "cold5"):
            memo.encoded(key, big(key, third))
        assert "hot" in memo._bodies
        assert memo.bytes <= ENCODED_PAYLOAD_BYTES

    def test_uniform_reads_seldom_turn_the_memo_over(self):
        memo = EncodedPayloads()
        payloads = {f"id{index}": big(f"{index}", 21_000) for index in range(400)}
        keys = random.Random(0).choices(list(payloads), k=2 * COUNT_HALVING_PERIOD)
        displaced = 0
        for key in keys:
            kept = set(memo._bodies)
            memo.encoded(key, payloads[key])
            displaced += len(kept - set(memo._bodies))
        # Admitting on any higher count displaces 415 entries here (about
        # one every 20 requests); the factor of two leaves 54.
        assert len(memo._bodies) == 49
        assert displaced < 100

    def test_oversize_payload_is_served_but_not_kept(self):
        memo = EncodedPayloads()
        memo.encoded("small", ["row"])
        payload = big("huge", ENCODED_PAYLOAD_BYTES)
        for _ in range(3):
            assert memo.encoded("huge", payload) == json.dumps(payload).encode()
        assert set(memo._bodies) == {"small"}
        assert memo.misses == 4

    def test_counts_halve_and_unread_ids_age_out(self):
        memo = EncodedPayloads()
        for _ in range(4):
            memo.encoded("kept", ["row"])
        memo.encoded("once", ["other"])
        for index in range(COUNT_HALVING_PERIOD - 5):
            memo.encoded(f"id{index % 7}", [index % 7])
        # The halving ran: counts of 1 are gone unless the id is kept.
        assert memo._counts["kept"] == 2
        assert memo._counts["once"] == 0  # kept, so still ranked
        assert memo._requests == 0

    def test_halving_while_encoding_keeps_every_kept_entry_counted(self, monkeypatch):
        memo = EncodedPayloads()
        dumps = json.dumps

        def busy_meanwhile(payload):
            # Other requests roll the halving period over while ["late"] is
            # encoded, so the halving drops its count of 1 (it is not kept
            # yet) before it is admitted.
            if payload == ["late"]:
                for _ in range(COUNT_HALVING_PERIOD):
                    memo.encoded("busy", ["busy"])
            return dumps(payload)

        monkeypatch.setattr(httpd, "json", types.SimpleNamespace(dumps=busy_meanwhile))
        memo.encoded("late", ["late"])
        assert memo._requests == 1  # the halving ran
        assert set(memo._bodies) == {"late", "busy"}
        assert set(memo._bodies) <= set(memo._counts)
        # A newcomer that needs room ranks every kept entry by its count.
        payload = big("new", ENCODED_PAYLOAD_BYTES - 4)
        for _ in range(2):
            assert memo.encoded("new", payload) == dumps(payload).encode()
        assert set(memo._bodies) == {"late", "busy"}  # "busy" outranks "new"
        assert memo.bytes <= ENCODED_PAYLOAD_BYTES

    def test_threads_on_one_key_get_identical_bytes(self):
        memo = EncodedPayloads()
        payload = [f"row,{i}" for i in range(2000)]
        expected = json.dumps(payload).encode()
        per_thread: list[list[bytes]] = [[] for _ in range(6)]
        calls = 200

        def hammer(results: list[bytes]) -> None:
            for key in ["hot", "other"] * (calls // 2):
                results.append(memo.encoded(key, payload))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(results,)) for results in per_thread
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        results = [result for results in per_thread for result in results]
        assert len(results) == 6 * calls
        assert all(bytes(result) == expected for result in results)
        assert memo.hits + memo.misses == 6 * calls
        assert memo._counts["hot"] == 6 * calls // 2
        assert memo.bytes == 2 * len(expected)

    def test_threads_over_http_get_identical_payload_bytes(self, served):
        server, vids = served
        path = f"/checkout/{vids[1]}"
        encoded = json.dumps(server.repo.checkout(vids[1]).payload).encode()
        per_thread: list[list[bytes]] = [[] for _ in range(4)]

        def fetch(bodies: list[bytes]) -> None:
            for _ in range(10):
                bodies.append(server.get(path))

        threads = [threading.Thread(target=fetch, args=(bodies,)) for bodies in per_thread]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        head = b'{"version": "%s", "payload": ' % vids[1].encode()
        bodies = [body for bodies in per_thread for body in bodies]
        assert len(bodies) == 40
        for body in bodies:
            assert body.startswith(head + encoded + b', "chain_length": ')


class TestRepack:
    def test_repacked_version_serves_its_new_objects_encoding(self, served):
        server, vids = served
        before = {vid: server.repo.object_id_of(vid) for vid in vids}
        for vid in vids:
            server.get(f"/checkout/{vid}")
            server.get(f"/checkout/{vid}")
        assert server.server.encoded_payloads.hits == len(vids)
        # Problem 1 (minimum storage) stores all but the roots as deltas.
        server.post("/repack", {"problem": 1, "workload": False})
        moved = [vid for vid in vids if server.repo.object_id_of(vid) != before[vid]]
        assert moved
        for vid in vids:
            body = server.get(f"/checkout/{vid}")
            response, trace = server.answered[-1]
            assert response.object_id == server.repo.object_id_of(vid)
            assert body == server.expected(response, trace)
            # A materializer with no cache replays the new object from the store.
            cold = BatchMaterializer(server.repo.store, server.repo.encoder, cache_size=0)
            fresh = json.dumps(cold.materialize(response.object_id).payload).encode()
            assert body.startswith(b'{"version": "%s", "payload": %s, ' % (vid.encode(), fresh))


class TestObservability:
    def test_stats_and_metrics(self, served):
        server, vids = served
        for _ in range(3):
            server.get(f"/checkout/{vids[0]}")
        block = json.loads(server.get("/stats"))["serving"]["encoded_payloads"]
        assert block["hits"] == 2 and block["misses"] == 1 and block["entries"] == 1
        assert block["capacity_bytes"] == ENCODED_PAYLOAD_BYTES
        assert 0 < block["bytes"] == server.server.encoded_payloads.bytes
        text = server.get("/metrics").decode()
        assert "repro_encoded_payload_hits 2" in text
        assert "repro_encoded_payload_misses 1" in text
        assert f"repro_encoded_payload_bytes {block['bytes']}" in text
