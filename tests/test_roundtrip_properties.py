"""Round-trip property tests: every delta encoder × every storage backend.

For each combination the same pipeline runs end to end:
``commit`` a chain of related payloads, ``repack`` under the
storage-optimal plan, then ``checkout`` every version and require

* the reconstructed payload equals the original bit for bit, and
* the recreation cost the materializer actually paid matches the Φ chain
  cost the plan predicts.  Directed encoders are deterministic, so model
  and reality agree to rounding; encoders flagged ``symmetric`` collapse
  Φ(a,b) and Φ(b,a) into one undirected model entry even though their
  replay costs differ slightly by direction, so those combinations get a
  proportionally looser tolerance.
"""

from __future__ import annotations

import pytest

from repro.algorithms.mst import minimum_storage_plan
from repro.delta.cell_diff import CellDiffEncoder
from repro.delta.command_delta import CommandDeltaEncoder
from repro.delta.compression import CompressedEncoder
from repro.delta.line_diff import LineDiffEncoder, TwoWayLineDiffEncoder
from repro.delta.xor_diff import XorDeltaEncoder
from repro.storage.repository import Repository


def line_payloads(num_versions: int = 6) -> list[list[str]]:
    payload = [f"row,{i},{i * i}" for i in range(40)]
    chain = [payload]
    for step in range(1, num_versions):
        payload = list(payload)
        payload[step * 3 % len(payload)] = f"edited,{step},0"
        payload.append(f"appended,{step},1")
        chain.append(payload)
    return chain


def table_payloads(num_versions: int = 6) -> list[list[list[str]]]:
    table = [[f"r{i}", str(i), str(i * 2)] for i in range(25)]
    chain = [table]
    for step in range(1, num_versions):
        table = [list(row) for row in table]
        table[step % len(table)][1] = f"edit{step}"
        table.append([f"new{step}", "0", "0"])
        chain.append(table)
    return chain


def bytes_payloads(num_versions: int = 6) -> list[bytes]:
    payload = bytes(range(256)) * 4
    chain = [payload]
    for step in range(1, num_versions):
        mutable = bytearray(payload)
        mutable[step * 7 % len(mutable)] ^= 0xFF
        payload = bytes(mutable)
        chain.append(payload)
    return chain


ENCODERS = {
    "line": (LineDiffEncoder, line_payloads),
    "two-way-line": (TwoWayLineDiffEncoder, line_payloads),
    "cell": (CellDiffEncoder, table_payloads),
    "command": (CommandDeltaEncoder, table_payloads),
    "xor": (XorDeltaEncoder, bytes_payloads),
    "compressed-line": (lambda: CompressedEncoder(LineDiffEncoder()), line_payloads),
}

BACKENDS = ["memory", "file", "zip", "sqlite"]


def backend_spec(kind: str, tmp_path) -> str:
    if kind == "memory":
        return "memory://"
    if kind == "sqlite":
        return f"sqlite://{tmp_path}/store.db"
    return f"{kind}://{tmp_path}/objects"


@pytest.mark.parametrize("backend_kind", BACKENDS)
@pytest.mark.parametrize("encoder_key", sorted(ENCODERS))
class TestCommitRepackCheckout:
    def test_roundtrip_and_cost_matches_plan(self, encoder_key, backend_kind, tmp_path):
        encoder_factory, payload_factory = ENCODERS[encoder_key]
        payloads = payload_factory()
        repo = Repository(
            encoder=encoder_factory(),
            backend=backend_spec(backend_kind, tmp_path),
            cache_size=0,
        )
        version_ids = [
            repo.commit(payload, message=f"step {index}")
            for index, payload in enumerate(payloads)
        ]

        instance = repo.problem_instance(hop_limit=2)
        plan = minimum_storage_plan(instance)
        report = repo.repack(plan)
        assert report["storage_after"] == pytest.approx(repo.total_storage_cost())

        tolerance = 0.15 if repo.encoder.symmetric else 1e-6
        predicted = plan.recreation_costs(instance)
        for vid, original in zip(version_ids, payloads):
            result = repo.checkout(vid)
            assert result.payload == original
            assert result.recreation_cost == pytest.approx(
                predicted[vid], rel=tolerance, abs=1e-6
            )

    def test_batch_checkout_agrees_with_sequential(
        self, encoder_key, backend_kind, tmp_path
    ):
        encoder_factory, payload_factory = ENCODERS[encoder_key]
        payloads = payload_factory()
        repo = Repository(
            encoder=encoder_factory(),
            backend=backend_spec(backend_kind, tmp_path),
            cache_size=0,
        )
        version_ids = [repo.commit(payload) for payload in payloads]
        batch = repo.checkout_many(version_ids)
        for vid, original in zip(version_ids, payloads):
            assert batch.items[vid].payload == original
        assert batch.deltas_applied <= batch.naive_delta_applications
        assert batch.total_recreation_cost <= batch.total_predicted_cost + 1e-9
