"""One replay engine: a single checkout is a batch of one.

* **batch-of-one parity** — on engines in equal cache states,
  ``materialize(o)`` and ``materialize_many([o]).items[o]`` agree on the
  payload, the accounting and the number of ``encoder.apply`` /
  ``backend.get`` calls, across every encoder × backend, cold, warm and
  half-warm, on a bare engine (as ``Repository`` builds it) and on one
  under stripe locks (as ``VersionStoreService`` builds it);
* **flat commit cost** — a commit reads its parent through the warm
  engine, so the backend gets it pays do not grow with chain depth;
* **one cache** — a serving process has one engine: the service's is the
  repository's, and one ``clear_cache()`` drops everything a swap must;
* **one path** — a single ``.apply(`` call site under ``storage/``, no
  scheduler or cache-policy parameter in any signature, and no process
  or thread pool anywhere under ``src/repro``.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.server.service import VersionStoreService
from repro.storage.backends import MemoryBackend
from repro.storage.batch import BatchMaterializer
from repro.storage.concurrency import StripedLockManager
from repro.storage.repository import Repository
from repro.storage.testing import FlakyBackend

from .test_parallel_serving import BACKENDS, ENCODERS, backend_spec, line_payloads

SRC = pathlib.Path(repro.__file__).parent


def build_forked_repo(encoder_key: str, spec: str) -> tuple[Repository, list[str]]:
    """An 8-deep line with a 2-commit fork off its middle."""
    encoder_factory, payload_factory = ENCODERS[encoder_key]
    repo = Repository(encoder_factory(), backend=spec, cache_size=0)
    payloads = payload_factory(10)
    vids = [repo.commit(payloads[0])]
    for payload in payloads[1:8]:
        vids.append(repo.commit(payload, parents=[vids[-1]]))
    fork = vids[4]
    for payload in payloads[8:]:
        fork = repo.commit(payload, parents=[fork])
        vids.append(fork)
    return repo, vids


class _CallCounter:
    """Counts calls to ``owner.name`` while installed as an instance attribute."""

    def __init__(self, owner, name: str) -> None:
        self.calls = 0
        self._inner = getattr(owner, name)
        setattr(owner, name, self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._inner(*args, **kwargs)


def item_facts(item) -> tuple:
    return (
        item.payload,
        item.recreation_cost,
        item.deltas_applied,
        item.cache_hits,
        item.chain_length,
        item.predicted_cost,
    )


# --------------------------------------------------------------------- #
# (a) batch-of-one parity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("encoder_key", sorted(ENCODERS))
@pytest.mark.parametrize("state", ["cold", "warm", "half-warm"])
@pytest.mark.parametrize("lock_stripes", [None, 64])
def test_single_checkout_is_a_batch_of_one(
    lock_stripes, encoder_key, backend_kind, state, tmp_path
):
    repo, vids = build_forked_repo(encoder_key, backend_spec(backend_kind, tmp_path))
    tip = repo.object_id_of(vids[7])
    warmup = {"cold": None, "warm": vids[7], "half-warm": vids[3]}[state]
    applies = _CallCounter(repo.encoder, "apply")
    gets = _CallCounter(repo.store.backend, "get")

    def run(call) -> tuple:
        engine = BatchMaterializer(
            repo.store,
            repo.encoder,
            cache_size=64,
            lock_manager=lock_stripes and StripedLockManager(lock_stripes),
        )
        if warmup is not None:
            engine.materialize(repo.object_id_of(warmup))
        applies.calls = gets.calls = 0
        return item_facts(call(engine)) + (applies.calls, gets.calls)

    single = run(lambda engine: engine.materialize(tip))
    batch = run(lambda engine: engine.materialize_many([tip]).items[tip])
    assert single == batch
    payload, paid, deltas, _hits, chain_length, predicted, applied, fetched = single
    assert payload == repo.checkout(vids[7]).payload
    assert applied == deltas
    if state == "cold":
        assert deltas == chain_length and fetched == deltas + 1
        assert paid == pytest.approx(predicted)
    elif state == "warm":
        assert deltas == fetched == 0 and paid == 0.0
    elif chain_length:  # "command" deltas never beat a full copy here
        assert 0 < deltas < chain_length and fetched == deltas
        assert 0.0 < paid < predicted


# --------------------------------------------------------------------- #
# (b) commit cost is flat in depth
# --------------------------------------------------------------------- #
def test_commit_pays_a_bounded_number_of_backend_gets_at_every_depth():
    backend = FlakyBackend(MemoryBackend())  # no fault armed: a get counter
    repo = Repository(backend=backend)
    worst = 0
    for depth, payload in enumerate(line_payloads(400)):
        before = backend.gets
        repo.commit(payload)
        worst = max(worst, backend.gets - before)
        assert backend.gets - before <= 16, f"commit at depth {depth}"
    assert repo.store.chain_stats(repo.object_id_of("v399")).num_deltas == 399
    assert worst >= 1  # the parent's own delta is read, just not its chain


# --------------------------------------------------------------------- #
# (c) one cache per serving process
# --------------------------------------------------------------------- #
class TestOneCache:
    def build(self) -> tuple[Repository, VersionStoreService, list[str]]:
        repo = Repository()
        vids = [repo.commit(payload) for payload in line_payloads(12)]
        return repo, VersionStoreService(repo, cache_size=32), vids

    def test_the_service_engine_is_the_repository_engine(self):
        repo, service, vids = self.build()
        assert repo.materializer is service.materializer
        assert repo.checkout(vids[-1]).deltas_applied > 0
        assert service.checkout(vids[-1]).deltas_applied == 0  # same warm cache
        service.close()

    def test_commit_reads_its_parent_through_the_served_cache(self):
        repo, service, vids = self.build()
        head = repo.object_id_of(vids[-1])
        service.materializer.clear_cache()
        service.commit(line_payloads(13)[-1])
        assert head in service.materializer.cache
        service.close()

    def test_one_clear_drops_everything_a_swap_must(self):
        repo, service, vids = self.build()
        for vid in vids:
            service.checkout(vid)
        repo.checkout_many(vids)
        assert len(service.materializer.cache) > 0
        repo.materializer.clear_cache()
        assert len(service.materializer.cache) == 0
        # The swap itself leaves no dead-epoch payload behind either.
        for vid in vids:
            service.checkout(vid)
        assert service.repack(use_workload=False, threshold_factor=3.0)["applied"]
        assert len(service.materializer.cache) == 0
        service.close()


# --------------------------------------------------------------------- #
# (d) one path, no selector knobs
# --------------------------------------------------------------------- #
def test_exactly_one_apply_call_site_in_storage():
    sites = [
        f"{path.name}:{number}"
        for path in sorted((SRC / "storage").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if ".apply(" in line
    ]
    assert len(sites) == 1 and sites[0].startswith("batch.py:"), sites
    assert not (SRC / "storage" / "materializer.py").exists()


def test_replay_never_leaves_the_serving_process():
    """No process pool under ``src/repro``: more cores means more
    ``repro serve`` processes over one catalog, never replay shipped
    elsewhere."""
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "multiprocessing" in line or "ProcessPoolExecutor" in line
    ]
    assert offenders == []
    for gone in ("storage/replay_worker.py", "delta/simulated.py", "delta/registry.py"):
        assert not (SRC / gone).exists()


def test_replay_runs_on_the_request_thread():
    """Nothing under ``src/repro`` imports ``concurrent.futures``: a batch
    replays its root trees one after another on the thread that asked."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if node.module == "concurrent":
                    modules += [f"concurrent.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}:{node.lineno}"
                for module in modules
                if module.startswith("concurrent.futures")
            ]
    assert offenders == []


def test_no_scheduler_or_cache_policy_parameter_in_any_signature():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = node.args
            for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
                name = arg.arg
                if "strategy" in name or "admission" in name or name == "eviction":
                    offenders.append(f"{path.relative_to(SRC)}:{node.name}({name})")
    assert offenders == []
