"""End-to-end tests for the HTTP serving layer.

Covers the acceptance scenario of the serve subsystem: a service on an
ephemeral port, 20 committed versions, 50 mixed checkout requests (with
concurrent duplicates), byte-identical payloads vs direct repository
checkouts, and warm-cache delta applications strictly below the sequential
cold count the stats endpoint reports.  Also checks that no route takes
raw object bytes, and exercises the remote-aware CLI.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.server.httpd import serve_in_thread
from repro.server.remote import ServiceClient
from repro.server.service import VersionStoreService
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
            vid: repo.checkout(vid).payload for vid in vids
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
            assert result["items"][vid]["payload"] == repo.checkout(vid).payload
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
        assert json.loads(err.value.read()) == {
            "error": "version 'ghost' does not exist"
        }
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

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/checkout", {"version": [1]}),
            ("/checkout", {"version": 5}),
            ("/checkout_many", {"versions": [[1]]}),
            ("/checkout_many", {"versions": "v1"}),
            ("/commit", {"payload": ["x"], "parents": 5}),
            ("/commit", {"payload": ["x"], "parents": "v1"}),
            ("/commit", {"payload": ["x"], "parents": [1]}),
            ("/commit", {"payload": ["x"], "branch": [1]}),
            ("/commit", {"payload": ["x"], "branch": 5}),
            ("/commit", {"payload": ["x"], "message": 5}),
        ],
    )
    def test_malformed_identifiers_are_400_and_change_nothing(
        self, served_repo, path, body
    ):
        import http.client

        server, service, repo, vids = served_repo
        branches = repo.branches
        connection = http.client.HTTPConnection(*server.server_address[:2])
        connection.request("POST", path, body=json.dumps(body).encode())
        response = connection.getresponse()
        assert response.status == 400, response.read()
        assert "error" in json.loads(response.read())
        assert len(repo) == len(vids)
        assert (repo.branches, repo.current_branch) == (branches, "main")
        assert service.stats()["serving"]["commits"] == 0

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/repack", {"dry_run": "false"}),
            ("/repack", {"dry_run": 0}),
            ("/repack", {"adaptive": "false"}),
            ("/repack", {"adaptive": 1}),
            ("/repack", {"adaptive": True, "dry_run": "false"}),
            ("/repack", {"workload": "false"}),
            ("/checkout", {"version": "VID", "trace": "false"}),
            ("/checkout_many", {"versions": ["VID"], "trace": "false"}),
        ],
    )
    def test_non_bool_flags_are_400_and_change_nothing(
        self, served_repo, path, body
    ):
        """A flag documented as bool is read as one: "false" is not true."""
        import http.client

        server, service, repo, vids = served_repo
        body = json.loads(json.dumps(body).replace("VID", vids[-1]))

        def observed() -> tuple:
            stats = service.stats()
            return (
                stats["repack"]["epoch"],
                stats["repack"]["decision_seq"],
                stats["repack"]["auto_repacks"],
                stats["serving"]["checkout_requests"],
                len(service.policy.decision_log.tail(100)),
            )

        before = observed()
        connection = http.client.HTTPConnection(*server.server_address[:2])
        connection.request("POST", path, body=json.dumps(body).encode())
        response = connection.getresponse()
        assert response.status == 400, response.read()
        assert "must be a bool" in json.loads(response.read())["error"]
        assert observed() == before

    def test_null_flags_mean_default(self, served_repo):
        server, service, repo, vids = served_repo
        client = ServiceClient(server.url)
        client.checkout(vids[-1])
        report = client.repack(workload=None, dry_run=None, adaptive=None)
        assert report["workload_aware"] is True
        assert report["dry_run"] is False

    def test_null_identifiers_mean_not_set(self, served_repo):
        server, service, repo, vids = served_repo
        request = urllib.request.Request(
            f"{server.url}/commit",
            data=json.dumps(
                {"payload": ["x"], "parents": None, "branch": None, "message": None}
            ).encode(),
            method="POST",
        )
        version = json.loads(urllib.request.urlopen(request).read())["version"]
        assert repo.graph.version(version).parents == (vids[-1],)
        assert repo.branches == {"main": version}

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


class TestKeepAliveLatency:
    """Small responses on a reused connection leave at once.

    A response goes out as a header write and a body write; with Nagle's
    algorithm on the accepted socket, the body waited for the client's
    delayed ACK of the headers, ~40 ms per request on a keep-alive
    connection whatever the route cost.
    """

    def test_no_delayed_ack_floor_on_reused_connection(self, served_repo):
        import http.client
        import statistics
        import time

        server, service, repo, vids = served_repo
        connection = http.client.HTTPConnection(*server.server_address[:2], timeout=10)
        requests = (
            [("checkout", "GET", f"/checkout/{vids[-1]}", None)] * 5
            + [("metrics", "GET", "/metrics", None)] * 3
            + [
                ("commit", "POST", "/commit", {"payload": [f"row,{n}"] * 40})
                for n in range(3)
            ]
        )
        latencies: dict[str, list[float]] = {}
        try:
            for index, (route, method, path, body) in enumerate(requests):
                data = json.dumps(body).encode() if body is not None else None
                started = time.perf_counter()
                connection.request(method, path, body=data)
                response = connection.getresponse()
                response.read()
                elapsed = time.perf_counter() - started
                assert response.status == 200
                if index:  # the connection's first request never waits
                    latencies.setdefault(route, []).append(elapsed)
        finally:
            connection.close()
        assert sorted(latencies) == ["checkout", "commit", "metrics"]
        for route, samples in latencies.items():
            assert statistics.median(samples) < 0.020, (route, samples)


class TestNoObjectRoutes:
    """The server speaks JSON only: no route accepts or returns pickles."""

    def test_no_server_module_imports_pickle(self):
        import ast
        import pathlib

        import repro.server

        package = pathlib.Path(repro.server.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert modules
        for module in modules:
            tree = ast.parse(module.read_text(encoding="utf-8"))
            imported = {
                alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names
            } | {
                (node.module or "").split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
            }
            assert "pickle" not in imported, module.name

    def test_pickled_put_is_refused_and_stores_nothing(self, served_repo):
        import http.client
        import pickle

        server, service, repo, vids = served_repo
        backend = repo.store.backend
        before = len(backend)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "PUT",
                "/objects/k",
                body=pickle.dumps({"rows": [1, 2, 3]}),
                headers={"Content-Type": "application/octet-stream"},
            )
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        assert not 200 <= response.status < 300
        assert len(backend) == before
        assert "k" not in backend

    def test_objects_path_is_not_routed(self, served_repo):
        server, *_ = served_repo
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server.url}/objects")
        assert err.value.code == 404


class TestRepackOverHTTP:
    def test_repack_endpoint_and_stats_expose_epoch(self, served_repo):
        server, service, repo, vids = served_repo
        client = ServiceClient(server.url)
        expected = {
            vid: repo.checkout(vid).payload for vid in vids
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
        expected = "\n".join(repo.checkout(vids[3]).payload) + "\n"
        assert out.read_text() == expected

    def test_remote_batch_checkout(self, served_repo, tmp_path):
        server, service, repo, vids = served_repo
        outdir = tmp_path / "batch"
        code = main(
            ["checkout", server.url, vids[0], vids[1], "--batch", "-o", str(outdir)]
        )
        assert code == 0
        for vid in (vids[0], vids[1]):
            expected = "\n".join(repo.checkout(vid).payload) + "\n"
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
