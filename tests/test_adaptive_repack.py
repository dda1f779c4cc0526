"""The adaptive repack controller: state machine, convergence, surfaces.

Unit-tests every transition of
:class:`~repro.storage.repack.AdaptiveRepackController` (hysteresis band,
amortization gate, drift re-arm), then drives the whole loop through a
live service: under steady Zipf traffic the controller repacks exactly
once and stands steady over ≥5 evaluation cycles; after the workload
drifts onto expensive chains it re-triggers.  The HTTP/CLI surfaces
(``POST /repack {"adaptive": true}``, ``/stats`` controller fields,
``repro serve --adaptive-repack``) are covered end to end.
"""

from __future__ import annotations

import json
import random
import time
import urllib.request

import pytest

from repro.bench.serve_bench import build_independent_chains
from repro.cli import build_parser
from repro.server.httpd import serve_in_thread
from repro.server.service import VersionStoreService
from repro.storage.repack import AdaptiveRepackController, estimate_repack_cost
from repro.storage.workload_log import frequency_drift


# --------------------------------------------------------------------- #
# pure state-machine units
# --------------------------------------------------------------------- #
class TestControllerStateMachine:
    def test_warms_up_until_min_observations(self):
        controller = AdaptiveRepackController(min_observations=10)
        assert controller.observe(100.0, observations=3) is False
        assert controller.state == "warming"

    def test_uncalibrated_triggers_a_plan(self):
        controller = AdaptiveRepackController(min_observations=4)
        assert controller.observe(100.0, observations=8) is True
        assert controller.state == "triggered"

    def test_approve_fires_when_horizon_recoups(self):
        controller = AdaptiveRepackController(horizon=100, min_observations=1)
        controller.observe(100.0, observations=5)
        assert controller.approve(100.0, 20.0, repack_cost=500.0) is True

    def test_no_gain_stands_down_and_calibrates_baseline(self):
        controller = AdaptiveRepackController(min_observations=1)
        controller.observe(50.0, observations=5)
        assert controller.approve(50.0, 80.0, repack_cost=10.0) is False
        assert controller.state == "stand-down"
        assert controller.baseline == pytest.approx(80.0)

    def test_amortization_failure_stands_down(self):
        controller = AdaptiveRepackController(horizon=10, min_observations=1)
        controller.observe(100.0, observations=5)
        # gain 10/request * horizon 10 = 100 < staging cost 5000
        assert controller.approve(100.0, 90.0, repack_cost=5000.0) is False
        assert controller.state == "stand-down"

    def test_note_repack_resets_to_steady_with_new_baseline(self):
        controller = AdaptiveRepackController(min_observations=1)
        controller.observe(100.0, observations=5)
        controller.approve(100.0, 20.0, repack_cost=1.0)
        controller.note_repack(22.0, frequencies={"v1": 5.0})
        assert controller.state == "steady"
        assert controller.baseline == pytest.approx(22.0)
        assert controller.repacks_fired == 1

    def test_hysteresis_band_holds_state(self):
        controller = AdaptiveRepackController(
            trigger_factor=1.5, standdown_factor=1.15, min_observations=1
        )
        controller.note_repack(100.0)
        # Below the band: steady.
        assert controller.observe(90.0, observations=50) is False
        assert controller.state == "steady"
        # Inside the band [115, 150]: holds steady, no trigger.
        assert controller.observe(130.0, observations=60) is False
        assert controller.state == "steady"
        # Past the trigger line: plan.
        assert controller.observe(160.0, observations=70) is True
        assert controller.state == "triggered"

    def test_steady_drift_triggers_inside_band(self):
        controller = AdaptiveRepackController(
            trigger_factor=2.0, standdown_factor=1.1, drift_threshold=0.3,
            min_observations=1,
        )
        controller.note_repack(100.0, frequencies={"a": 10.0, "b": 1.0})
        # Cost inside the band but the hot set moved entirely: re-plan.
        fired = controller.observe(
            130.0, observations=50, frequencies={"c": 10.0, "d": 5.0}
        )
        assert fired is True
        assert "drift" in controller.last_reason

    def test_standdown_rearms_on_cost_growth(self):
        controller = AdaptiveRepackController(
            trigger_factor=1.5, min_observations=1
        )
        controller.observe(100.0, observations=5)
        controller.approve(100.0, 90.0, repack_cost=10**9)  # stand down
        assert controller.observe(120.0, observations=10) is False
        assert controller.state == "stand-down"
        assert controller.observe(200.0, observations=15) is True
        assert controller.state == "triggered"

    def test_standdown_rearms_on_drift(self):
        controller = AdaptiveRepackController(
            drift_threshold=0.3, min_observations=1
        )
        controller.observe(100.0, observations=5)
        controller.approve(
            100.0, 95.0, repack_cost=10**9, frequencies={"a": 10.0}
        )
        assert controller.state == "stand-down"
        fired = controller.observe(
            100.0, observations=10, frequencies={"z": 10.0}
        )
        assert fired is True
        assert "drift" in controller.last_reason

    def test_note_commit_rearms_standdown(self):
        controller = AdaptiveRepackController(min_observations=1)
        controller.observe(100.0, observations=5)
        controller.approve(100.0, 95.0, repack_cost=10**9)
        assert controller.state == "stand-down"
        controller.note_commit()
        assert controller.state == "steady"

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            AdaptiveRepackController(horizon=0)
        with pytest.raises(ValueError, match="hysteresis"):
            AdaptiveRepackController(trigger_factor=1.1, standdown_factor=1.2)
        with pytest.raises(ValueError, match="standdown_factor"):
            AdaptiveRepackController(standdown_factor=0.9)

    def test_snapshot_is_json_ready(self):
        controller = AdaptiveRepackController()
        controller.observe(10.0, observations=100)
        snapshot = controller.snapshot()
        json.dumps(snapshot)
        assert snapshot["state"] == "triggered"
        assert snapshot["evaluations"] == 1


class TestFrequencyDrift:
    def test_identical_distributions_have_zero_drift(self):
        assert frequency_drift({"a": 2.0, "b": 1.0}, {"a": 2.0, "b": 1.0}) == 0.0

    def test_scale_invariance(self):
        assert frequency_drift({"a": 2.0, "b": 1.0}, {"a": 200.0, "b": 100.0}) == (
            pytest.approx(0.0)
        )

    def test_disjoint_hot_sets_are_maximal(self):
        assert frequency_drift({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)

    def test_empty_handling(self):
        assert frequency_drift({}, {}) == 0.0
        assert frequency_drift({"a": 1.0}, {}) == 1.0
        assert frequency_drift({}, {"a": 1.0}) == 1.0

    def test_partial_overlap_is_between(self):
        drift = frequency_drift({"a": 1.0, "b": 1.0}, {"b": 1.0, "c": 1.0})
        assert 0.0 < drift < 1.0


# --------------------------------------------------------------------- #
# the full loop against a live service
# --------------------------------------------------------------------- #
def build_service(**kwargs):
    # Deep chains over small payloads: the cold chain cost (~size + 13
    # deltas) towers over the materialized-read floor (~size), so a
    # workload-aware plan has real headroom — and a 1-entry cache leaves
    # most of the Zipf mass paying warm costs close to cold ones, which is
    # the regime the controller must act in.
    repo, chains = build_independent_chains(num_chains=6, chain_length=14, num_rows=30)
    defaults = dict(
        cache_size=1,
        adaptive_repack=True,
        repack_horizon=10000,
        auto_repack_interval=10**9,  # background policy off: cycles are manual
    )
    defaults.update(kwargs)
    service = VersionStoreService(repo, **defaults)
    service.workload_log.half_life = 24.0  # fast-moving decayed view
    return service, repo, chains


class TestAdaptiveServiceLoop:
    def test_converges_to_exactly_one_repack_under_steady_zipf(self):
        service, repo, chains = build_service()
        rng = random.Random(5)
        hot = [chains[c][-1] for c in range(4)]
        for _ in range(60):
            service.checkout(hot[rng.randrange(4)])

        first = service.adaptive_repack_cycle()
        assert first["fired"] is True, first["reason"]
        assert service.repacker.epoch == 1
        assert first["controller"]["state"] == "steady"

        states = []
        for _cycle in range(5):
            for _ in range(12):
                service.checkout(hot[rng.randrange(4)])
            out = service.adaptive_repack_cycle()
            assert out["fired"] is False, out["reason"]
            states.append(out["controller"]["state"])
        assert states == ["steady"] * 5, states
        assert service.controller.repacks_fired == 1
        assert service.repacker.epoch == 1

        stats = service.stats()
        controller = stats["repack"]["controller"]
        assert controller["repacks_fired"] == 1
        assert controller["state"] == "steady"
        assert stats["serving"]["auto_repacks"] == 1
        service.close()

    def test_drifted_workload_retriggers(self):
        service, repo, chains = build_service()
        rng = random.Random(5)
        hot = [chains[c][-1] for c in range(3)]
        for _ in range(60):
            service.checkout(hot[rng.randrange(3)])
        first = service.adaptive_repack_cycle()
        assert service.controller.repacks_fired <= 1  # calibrated either way

        # Drift onto whatever the new epoch made most expensive: the
        # versions with the deepest cold chains — the hot set the plan
        # deliberately de-prioritized.
        by_cost = sorted(
            (vid for vids in chains.values() for vid in vids),
            key=lambda vid: repo.store.chain_stats(
                repo.object_id_of(vid)
            ).phi_total,
            reverse=True,
        )
        drifted = by_cost[:3]
        retriggered = False
        for _cycle in range(10):
            for _ in range(20):
                service.checkout(drifted[rng.randrange(3)])
            out = service.adaptive_repack_cycle()
            if out["fired"] or out["controller"]["state"] in (
                "triggered",
                "stand-down",
            ):
                retriggered = True
                break
        assert retriggered, (
            "controller never reacted to a drifted workload: "
            f"{service.stats()['repack']['controller']}"
        )
        service.close()

    def test_amortization_gate_blocks_unprofitable_repack(self):
        # A microscopic horizon can never recoup staging cost: the cycle
        # must evaluate, solve a plan, refuse to apply it, and stand down.
        service, repo, chains = build_service(repack_horizon=1e-6)
        rng = random.Random(9)
        hot = [chains[c][-1] for c in range(4)]
        for _ in range(60):
            service.checkout(hot[rng.randrange(4)])
        out = service.adaptive_repack_cycle()
        assert out["fired"] is False
        assert out["repack"]["applied"] is False
        assert out["controller"]["state"] == "stand-down"
        assert "recouped" in out["reason"]
        assert service.repacker.epoch == 0
        assert service.stats()["serving"]["auto_repacks"] == 0
        # estimate_repack_cost is what the gate charged against.
        assert out["staging_cost_estimate"] == pytest.approx(
            estimate_repack_cost(repo)
        )
        service.close()

    def test_background_policy_fires_from_request_path(self):
        service, repo, chains = build_service(auto_repack_interval=10)
        rng = random.Random(3)
        hot = [chains[c][-1] for c in range(4)]
        deadline = time.monotonic() + 30
        fired = False
        while time.monotonic() < deadline:
            service.checkout(hot[rng.randrange(4)])
            if service.controller.repacks_fired >= 1:
                fired = True
                break
        assert fired, "background adaptive policy never repacked"
        # Keep serving: no second repack (steady state, no thrash).
        for _ in range(40):
            service.checkout(hot[rng.randrange(4)])
        time.sleep(0.2)  # drain any in-flight background evaluation
        assert service.controller.repacks_fired == 1
        assert service.repacker.epoch == 1
        service.close()

    def test_cycle_is_reentrant_safe(self):
        service, repo, chains = build_service()
        with service._state_lock:
            service._auto_repack_running = True
        out = service.adaptive_repack_cycle()
        assert out["fired"] is False
        assert "already running" in out["reason"]
        with service._state_lock:
            service._auto_repack_running = False
        service.close()

    def test_lazy_controller_on_unarmed_service(self):
        repo, chains = build_independent_chains(num_chains=2, chain_length=4)
        service = VersionStoreService(repo, cache_size=4)
        assert service.controller is None
        out = service.adaptive_repack_cycle()
        assert service.controller is not None
        assert out["adaptive"] is True
        service.close()

    def test_lazy_controller_does_not_arm_background_policy(self):
        # An operator's one-off synchronous cycle must not turn on a
        # background policy nobody configured (nor displace a fixed
        # budget): only the constructor flag arms the request-path hook.
        repo, chains = build_independent_chains(num_chains=2, chain_length=4)
        service = VersionStoreService(repo, cache_size=4, auto_repack_interval=1)
        service.adaptive_repack_cycle()  # creates the controller lazily
        assert service.controller is not None
        assert service._adaptive_armed is False
        tip = chains[0][-1]
        for _ in range(5):
            service.checkout(tip)
        # The interval elapsed every request, yet no background evaluation
        # ran: the controller's counters only move on explicit cycles.
        assert service.controller.evaluations == 1
        service.close()


# --------------------------------------------------------------------- #
# HTTP + CLI surfaces
# --------------------------------------------------------------------- #
def _post_json(url: str, body: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


class TestAdaptiveHTTPSurface:
    def test_post_repack_adaptive_and_stats_controller_fields(self):
        service, repo, chains = build_service()
        server, thread = serve_in_thread(service)
        try:
            rng = random.Random(2)
            hot = [chains[c][-1] for c in range(4)]
            for _ in range(60):
                service.checkout(hot[rng.randrange(4)])
            report = _post_json(f"{server.url}/repack", {"adaptive": True})
            assert report["adaptive"] is True
            assert report["fired"] is True, report["reason"]
            assert report["controller"]["state"] == "steady"

            stats = _get_json(f"{server.url}/stats")
            controller = stats["repack"]["controller"]
            assert controller["repacks_fired"] == 1
            assert controller["baseline_per_request"] is not None
            assert stats["repack"]["epoch"] == 1
            assert "warm" in stats["workload"]["expected_recreation_cost"]

            # A second adaptive cycle over steady traffic stands pat.
            for _ in range(20):
                service.checkout(hot[rng.randrange(4)])
            again = _post_json(f"{server.url}/repack", {"adaptive": True})
            assert again["fired"] is False
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_adaptive_body_forwards_plan_options(self):
        service, repo, chains = build_service()
        server, thread = serve_in_thread(service)
        try:
            rng = random.Random(2)
            hot = [chains[c][-1] for c in range(4)]
            for _ in range(60):
                service.checkout(hot[rng.randrange(4)])
            report = _post_json(
                f"{server.url}/repack",
                {"adaptive": True, "threshold_factor": 3.0, "problem": 3},
            )
            if report["fired"]:
                assert report["repack"]["threshold"] > 0
                assert report["repack"]["problem"] == 3
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestCLIKnobs:
    def test_parser_accepts_adaptive_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "repo",
                "--adaptive-repack",
                "--repack-horizon",
                "500",
                "--repack-interval",
                "16",
            ]
        )
        assert args.adaptive_repack is True
        assert args.repack_horizon == 500.0
        assert args.repack_interval == 16

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "repo"])
        assert args.adaptive_repack is False
        assert args.repack_horizon == 1000.0
        assert args.repack_interval == 32
