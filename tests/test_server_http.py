"""End-to-end tests for the HTTP serving layer.

Covers the acceptance scenario of the serve subsystem: a service on an
ephemeral port, 20 committed versions, 50 mixed checkout requests (with
concurrent duplicates), byte-identical payloads vs direct repository
checkouts, and warm-cache delta applications strictly below the sequential
cold count the stats endpoint reports.  Also exercises the ``/objects``
endpoints through ``RemoteBackend`` (one repro process mounting another's
object store) and the remote-aware CLI.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.server.httpd import serve_in_thread
from repro.server.remote import RemoteBackend, RemoteServiceError, ServiceClient
from repro.server.service import VersionStoreService
from repro.storage.backends import open_backend
from repro.storage.objects import ObjectStore
from repro.storage.repository import Repository


@pytest.fixture()
def served_repo():
    """A 20-version repository served on an ephemeral port."""
    repo = Repository(cache_size=0)
    payload = [f"row,{i},{i * 7}" for i in range(40)]
    vids = [repo.commit(payload, message="base")]
    for step in range(1, 20):
        payload = payload + [f"appended,{step},{step * 11}"]
        vids.append(repo.commit(payload, message=f"step {step}"))
    service = VersionStoreService(repo, cache_size=256)
    server, _thread = serve_in_thread(service, host="127.0.0.1", port=0)
    try:
        yield server, service, repo, vids
    finally:
        server.shutdown()
        server.server_close()


class TestEndToEnd:
    def test_acceptance_scenario(self, served_repo):
        """20 versions, 50 mixed requests, concurrent duplicates, byte parity."""
        server, service, repo, vids = served_repo
        client = ServiceClient(server.url)

        expected = {
            vid: repo.checkout(vid, record_stats=False).payload for vid in vids
        }
        # Direct checkouts go through the served engine; start the stream cold.
        service.materializer.clear_cache()

        # 30 sequential requests cycling the history (a warm, mixed stream)...
        stream = [vids[i % len(vids)] for i in range(30)]
        responses: dict = {}
        for vid in stream:
            responses[vid] = client.checkout(vid)

        # ...plus 20 concurrent requests aimed at two hot versions, so the
        # duplicates genuinely race and coalesce.
        hot = [vids[-1], vids[-2]] * 10
        concurrent_results: list = []
        errors: list = []
        barrier = threading.Barrier(len(hot))

        def fire(version_id: str) -> None:
            barrier.wait()
            try:
                concurrent_results.append(
                    (version_id, ServiceClient(server.url).checkout(version_id))
                )
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=fire, args=(vid,)) for vid in hot]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(concurrent_results) == 20

        # (a) Byte-identical payloads vs direct Repository.checkout.
        for vid, response in responses.items():
            assert response["payload"] == expected[vid]
            assert json.dumps(response["payload"]).encode() == json.dumps(
                expected[vid]
            ).encode()
        for vid, response in concurrent_results:
            assert response["payload"] == expected[vid]

        # (b) Warm-cache delta applications strictly below the sequential
        # cold count, as reported by the stats endpoint.
        stats = client.stats()["serving"]
        assert stats["checkout_requests"] == 50
        assert stats["deltas_applied"] < stats["naive_delta_applications"]
        # The whole 20-version lineage needs only 19 replays ever.
        assert stats["deltas_applied"] == len(vids) - 1

    def test_checkout_many_over_http(self, served_repo):
        server, service, repo, vids = served_repo
        client = ServiceClient(server.url)
        result = client.checkout_many(vids)
        for vid in vids:
            assert result["items"][vid]["payload"] == repo.checkout(
                vid, record_stats=False
            ).payload
        summary = result["summary"]
        assert summary["deltas_applied"] < summary["naive_delta_applications"]

    def test_commit_over_http_and_persistence_of_graph(self, served_repo):
        server, service, repo, vids = served_repo
        client = ServiceClient(server.url)
        new_vid = client.commit(
            ["entirely", "new", "content"], parents=[vids[0]], message="via http"
        )
        assert client.checkout(new_vid)["payload"] == ["entirely", "new", "content"]
        assert repo.graph.version(new_vid).parents == (vids[0],)

    def test_http_status_codes(self, served_repo):
        server, *_ = served_repo
        health = urllib.request.urlopen(f"{server.url}/healthz")
        assert health.status == 200
        assert json.loads(health.read()) == {"status": "ok"}
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server.url}/checkout/ghost")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server.url}/no/such/route")
        assert err.value.code == 404

    def test_bad_requests_rejected(self, served_repo):
        server, *_ = served_repo
        request = urllib.request.Request(
            f"{server.url}/checkout", data=b'{"nope": 1}', method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_keepalive_survives_unconsumed_bodies(self, served_repo):
        """A POST whose body is never read (unmatched route) must not poison
        the connection stream for later requests."""
        import http.client

        server, service, repo, vids = served_repo
        host, port = server.server_address[:2]
        bad = http.client.HTTPConnection(host, port)
        bad.request("POST", "/no/route", body=b'{"leftover": "bytes"}')
        response = bad.getresponse()
        assert response.status == 404
        response.read()
        # Fresh and reused connections both keep working.
        good = http.client.HTTPConnection(host, port)
        good.request("POST", "/checkout", body=json.dumps({"version": vids[0]}).encode())
        first = good.getresponse()
        assert first.status == 200
        first.read()
        good.request("GET", "/healthz")
        assert good.getresponse().status == 200

    @pytest.mark.parametrize(
        "length, status",
        [("abc", 400), ("-5", 400), (str(64 * 1024 * 1024 + 1), 413)],
    )
    def test_unreadable_content_length_is_rejected_and_counted(
        self, served_repo, length, status
    ):
        """A Content-Length the server will not read gets its status, drops
        the connection, and is still counted as a request."""
        import socket

        server, *_ = served_repo
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                f"POST /commit HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            received = b""
            while chunk := sock.recv(65536):  # b"" = the server hung up
                received += chunk
        assert received.startswith(f"HTTP/1.1 {status} ".encode())
        metrics = urllib.request.urlopen(f"{server.url}/metrics").read().decode()
        counted = f'repro_http_requests_total{{endpoint="commit",code="{status}"}} 1'
        assert counted in metrics

    def test_plan_over_http(self, served_repo):
        server, *_ = served_repo
        report = ServiceClient(server.url).plan(problem=1)
        assert report["algorithm"] == "mst"
        assert report["metrics"]["storage_cost"] > 0


class TestRemoteBackend:
    def test_round_trip_via_objects_api(self, served_repo):
        server, *_ = served_repo
        backend = open_backend(server.url)
        assert isinstance(backend, RemoteBackend)
        backend.put("cafe01", {"rows": [1, 2, 3]})
        assert backend.get("cafe01") == {"rows": [1, 2, 3]}
        assert "cafe01" in list(backend.keys())
        assert "cafe01" in backend
        backend.delete("cafe01")
        with pytest.raises(KeyError):
            backend.get("cafe01")

    def test_repository_mounted_on_remote_store(self, served_repo):
        """One repro process using another as its object store."""
        server, service, remote_repo, vids = served_repo
        local = Repository(backend=server.url)
        payload = [f"local,{i}" for i in range(10)]
        local_vids = [local.commit(payload)]
        local_vids.append(local.commit(payload + ["one more line"]))
        for vid in local_vids:
            assert local.checkout(vid, record_stats=False).payload is not None
        # The object bytes genuinely live in the serving process's store.
        local_oids = {local.object_id_of(vid) for vid in local_vids}
        assert local_oids <= set(remote_repo.store.object_ids())

    def test_second_store_view_sees_remote_objects(self, served_repo):
        server, service, remote_repo, vids = served_repo
        store = ObjectStore(backend=open_backend(server.url))
        oid = remote_repo.object_id_of(vids[0])
        assert store.get(oid).payload == remote_repo.checkout(
            vids[0], record_stats=False
        ).payload

    def test_dead_server_raises_service_error_not_keyerror(self):
        backend = RemoteBackend("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(RemoteServiceError):
            backend.get("anything")


class TestMultiget:
    def test_multiget_round_trip(self, served_repo):
        server, service, repo, vids = served_repo
        backend = open_backend(server.url)
        oids = [repo.object_id_of(vids[0]), repo.object_id_of(vids[1])]
        found = backend.get_many(oids)
        assert set(found) == set(oids)
        assert found[oids[0]].payload == repo.checkout(
            vids[0], record_stats=False
        ).payload

    def test_multiget_omits_missing_keys(self, served_repo):
        server, service, repo, vids = served_repo
        backend = open_backend(server.url)
        oid = repo.object_id_of(vids[0])
        assert set(backend.get_many([oid, "feedbeef"])) == {oid}
        assert backend.get_many([]) == {}

    def test_follow_bases_returns_whole_chain(self, served_repo):
        server, service, repo, vids = served_repo
        backend = open_backend(server.url)
        tip = repo.object_id_of(vids[-1])
        chain = repo.store.delta_chain(tip)
        found = backend.get_many([tip], follow_bases=True)
        assert set(found) == {obj.object_id for obj in chain}

    def test_bad_multiget_body_rejected(self, served_repo):
        server, *_ = served_repo
        request = urllib.request.Request(
            f"{server.url}/objects/multiget",
            data=json.dumps({"keys": "not-a-list"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_chain_replay_is_one_round_trip_per_segment(self, served_repo, monkeypatch):
        """A checkout through a remote-mounted store costs O(1) HTTP
        exchanges per chain segment, not one per chain object."""
        import repro.server.remote as remote_module

        server, service, repo, vids = served_repo
        store = ObjectStore(backend=open_backend(server.url))
        tip = repo.object_id_of(vids[-1])
        chain_length = len(repo.store.delta_chain(tip))
        assert chain_length >= 10  # the fixture builds a 20-deep lineage

        calls: list = []
        original_http = remote_module._http

        def counting_http(method, url, **kwargs):
            calls.append((method, url))
            return original_http(method, url, **kwargs)

        monkeypatch.setattr(remote_module, "_http", counting_http)
        fetched = store.delta_chain(tip)
        assert [obj.object_id for obj in fetched] == [
            obj.object_id for obj in repo.store.delta_chain(tip)
        ]
        assert len(calls) == 1  # the whole segment arrived in one multiget

    def test_remote_batch_materializer_uses_segment_fetches(
        self, served_repo, monkeypatch
    ):
        import repro.server.remote as remote_module
        from repro.storage.batch import BatchMaterializer

        server, service, repo, vids = served_repo
        store = ObjectStore(backend=open_backend(server.url))
        materializer = BatchMaterializer(store, repo.encoder, cache_size=0)
        tip = repo.object_id_of(vids[-1])
        chain_length = len(repo.store.delta_chain(tip))

        calls: list = []
        original_http = remote_module._http

        def counting_http(method, url, **kwargs):
            calls.append(url)
            return original_http(method, url, **kwargs)

        monkeypatch.setattr(remote_module, "_http", counting_http)
        item = materializer.materialize(tip)
        assert item.payload == repo.checkout(vids[-1], record_stats=False).payload
        # One multiget resolves and replays the whole chain; without it the
        # replay alone would cost `chain_length` GET round trips.
        assert len(calls) < chain_length
        assert len(calls) <= 2

    def test_warm_remote_repeat_costs_no_round_trips(self, served_repo, monkeypatch):
        import repro.server.remote as remote_module
        from repro.storage.batch import BatchMaterializer

        server, service, repo, vids = served_repo
        store = ObjectStore(backend=open_backend(server.url))
        materializer = BatchMaterializer(store, repo.encoder, cache_size=64)
        tip = repo.object_id_of(vids[-1])
        first = materializer.materialize(tip)

        calls: list = []
        original_http = remote_module._http

        def counting_http(method, url, **kwargs):
            calls.append(url)
            return original_http(method, url, **kwargs)

        monkeypatch.setattr(remote_module, "_http", counting_http)
        repeat = materializer.materialize(tip)
        assert repeat.payload == first.payload
        assert calls == []  # chain metadata memoized + payload cached

        # A mid-chain request against the warm cache also needs at most one
        # batched exchange for its uncached suffix.
        mid = repo.object_id_of(vids[len(vids) // 2])
        materializer.materialize(mid)
        assert len(calls) <= 1

    def test_remote_union_tree_batch_is_segment_fetched(
        self, served_repo, monkeypatch
    ):
        """checkout_many over a remote backend replays its whole union tree
        in O(1) exchanges — never one round trip per tree node."""
        import repro.server.remote as remote_module
        from repro.storage.batch import BatchMaterializer

        server, service, repo, vids = served_repo
        store = ObjectStore(backend=open_backend(server.url))
        materializer = BatchMaterializer(store, repo.encoder, cache_size=0)
        requests = [(vid, repo.object_id_of(vid)) for vid in vids]
        naive_round_trips = sum(
            len(repo.store.delta_chain(oid)) for _, oid in requests
        )
        assert naive_round_trips >= 20

        calls: list = []
        original_http = remote_module._http

        def counting_http(method, url, **kwargs):
            calls.append(url)
            return original_http(method, url, **kwargs)

        monkeypatch.setattr(remote_module, "_http", counting_http)
        result = materializer.materialize_many(requests)
        for vid in vids:
            expected = repo.checkout(vid, record_stats=False).payload
            assert result.items[vid].payload == expected
        # One multiget primes every chain (metadata + objects); with the
        # cache disabled the union-tree walk may need one more batched
        # fetch — but never per-object exchanges.
        assert len(calls) <= 2, calls

        # A warm repeat with cache disabled still batches: the chains are
        # indexed now, so only the payload objects travel — in one exchange.
        calls.clear()
        materializer.materialize_many(requests)
        assert len(calls) <= 1, calls


class TestRepackOverHTTP:
    def test_repack_endpoint_and_stats_expose_epoch(self, served_repo):
        server, service, repo, vids = served_repo
        client = ServiceClient(server.url)
        expected = {
            vid: repo.checkout(vid, record_stats=False).payload for vid in vids
        }
        for vid in vids:
            client.checkout(vid)

        dry = client.repack(dry_run=True)
        assert dry["dry_run"] is True and dry["epoch"] == 0

        report = client.repack(problem=3, threshold_factor=1.5)
        assert report["workload_aware"] is True
        assert report["epoch"] == 1
        stats = client.stats()
        assert stats["repack"]["epoch"] == 1
        assert stats["workload"]["total_accesses"] == len(vids)
        for vid in vids:
            assert client.checkout(vid)["payload"] == expected[vid]

    def test_remote_cli_repack(self, served_repo, capsys):
        server, service, repo, vids = served_repo
        for vid in vids:
            ServiceClient(server.url).checkout(vid)
        assert main(["repack", server.url, "--workload"]) == 0
        output = capsys.readouterr().out
        assert "workload_aware" in output
        assert service.repacker.epoch == 1


class TestRemoteCLI:
    def test_remote_single_checkout(self, served_repo, tmp_path, capsys):
        server, service, repo, vids = served_repo
        out = tmp_path / "restored.txt"
        assert main(["checkout", server.url, vids[3], "-o", str(out)]) == 0
        expected = "\n".join(repo.checkout(vids[3], record_stats=False).payload) + "\n"
        assert out.read_text() == expected

    def test_remote_batch_checkout(self, served_repo, tmp_path):
        server, service, repo, vids = served_repo
        outdir = tmp_path / "batch"
        code = main(
            ["checkout", server.url, vids[0], vids[1], "--batch", "-o", str(outdir)]
        )
        assert code == 0
        for vid in (vids[0], vids[1]):
            expected = "\n".join(repo.checkout(vid, record_stats=False).payload) + "\n"
            assert (outdir / f"{vid}.txt").read_text() == expected

    def test_remote_stats(self, served_repo, capsys):
        server, *_ = served_repo
        assert main(["stats", server.url]) == 0
        captured = capsys.readouterr().out
        assert "checkout requests" in captured
        assert "naive delta applications" in captured

    def test_remote_error_is_clean(self, capsys):
        code = main(["checkout", "http://127.0.0.1:9", "v0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
