"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench/tests``).

Campaigns here are shrunk to a few locations so each runs in well under
a second once the contract's deploy-gate lint is cached in process.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import campaign  # noqa: E402
import run as bench  # noqa: E402
from layers import LAYERS, Tracer  # noqa: E402

SMALL = {"evm-campaign": 16, "avm-campaign": 16, "evm-batched": 32}


def small(name: str) -> campaign.Workload:
    return dataclasses.replace(campaign.WORKLOADS[name], provers=SMALL[name])


def run_small(name: str, seed: int, traced: bool = False):
    """One shrunk campaign; returns (result, per-layer summary or None)."""
    workload = small(name)
    inputs = campaign.generate_inputs(workload, seed)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        system = campaign.build_system(workload, inputs.chain_seed)
        window = None
        if tracer is not None:
            window = lambda opening: tracer.reset() if opening else tracer.uninstall()  # noqa: E731
        result = campaign.run_campaign(system, inputs, on_window=window)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result, tracer.summary(result.window_s) if tracer is not None else None


@pytest.fixture(scope="module")
def traced_runs():
    return {name: run_small(name, seed=3, traced=True) for name in SMALL}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_campaign_verifies_every_proof(traced_runs, name):
    result, _ = traced_runs[name]
    assert result.problems == []
    assert result.verified == result.attempted == SMALL[name]
    assert len(result.latency_s) == result.attempted


@pytest.mark.parametrize("name", sorted(SMALL))
def test_layer_coverage(traced_runs, name):
    """A layer works where the map says it does and nowhere an "only" forbids.

    Catches a wrapper on a name its callers never look up: its count
    would stay 0 on the workloads that exercise it.
    """
    _, layers = traced_runs[name]
    for layer in LAYERS:
        calls = layers[f"{layer.name}.calls"]
        if name in layer.works_on:
            assert calls > 0, f"{layer.name} recorded no calls on {name}"
            assert layers[f"{layer.name}.self_s"] > 0
        elif layer.only:
            assert calls == 0, f"{layer.name} is {layer.works_on} only but ran on {name}"


def test_vrf_wrapper_reaches_imported_name(traced_runs):
    """verify_vrf is imported by name into the consensus module; the
    tracer must patch that reference, not only the defining module."""
    from repro.chain.algorand import consensus
    from repro.crypto import vrf

    _, layers = traced_runs["avm-campaign"]
    assert layers["crypto.vrf.calls"] > 0
    assert consensus.verify_vrf is vrf.verify_vrf  # restored after uninstall
    assert not hasattr(consensus.verify_vrf, "__wrapped__")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_does_not_perturb(traced_runs, name):
    traced, _ = traced_runs[name]
    plain, _ = run_small(name, seed=3)
    assert bench.same_sim(dataclasses.asdict(plain), dataclasses.asdict(traced))
    assert plain.latency_s == traced.latency_s


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_tile_the_window(traced_runs, name):
    result, layers = traced_runs[name]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    unattributed = layers["trace.unattributed_ratio"] * result.window_s
    assert self_total + unattributed == pytest.approx(result.window_s, rel=1e-9)
    assert 0.0 <= layers["trace.unattributed_ratio"] < 1.0


@pytest.mark.parametrize(
    "spans, window",
    [
        ([("dht", 0.0, 1.0, -1), None], 1.0),  # still open
        ([("core.submit", 0.0, 1.0, -1), ("dht", 0.0, 2.0, 0)], 2.0),  # child outlasts parent
        ([("dht", 0.0, 2.0, -1)], 1.0),  # longer than the window
    ],
)
def test_tiling_rejects_broken_spans(spans, window):
    tracer = Tracer()
    tracer.spans.extend(spans)
    with pytest.raises(ValueError):
        tracer.summary(window)


def test_same_seed_same_inputs_other_seed_differs():
    for name in SMALL:
        workload = small(name)
        a = campaign.generate_inputs(workload, 7)
        assert a == campaign.generate_inputs(workload, 7)
        b = campaign.generate_inputs(workload, 8)
        assert a.chain_seed != b.chain_seed
        assert a.payloads != b.payloads
        assert a.groups != b.groups
        assert campaign.generate_inputs(workload, 7, campaign=1) != a
        assert a.chain_seed == campaign.chain_seed(workload, 7, 0)


def test_same_seed_same_deterministic_metrics(traced_runs):
    for name in ("evm-campaign", "evm-batched"):
        first, first_layers = traced_runs[name]
        again, again_layers = run_small(name, seed=3, traced=True)
        assert bench.same_sim(dataclasses.asdict(first), dataclasses.asdict(again))
        assert bench._calls({"layers": first_layers}) == bench._calls({"layers": again_layers})


def test_groups_never_share_a_location():
    from repro.geo.olc import encode

    for name in SMALL:
        inputs = campaign.generate_inputs(campaign.WORKLOADS[name], 1)
        cells = [{encode(*p) for p in group.provers} for group in inputs.groups]
        assert all(len(c) == 1 for c in cells)
        assert len({next(iter(c)) for c in cells}) == len(cells)


def test_broken_merkle_path_is_reported(monkeypatch):
    workload = small("evm-batched")
    inputs = campaign.generate_inputs(workload, 5)
    system = campaign.build_system(workload, inputs.chain_seed)
    batches = []
    check = campaign._check_batches
    monkeypatch.setattr(campaign, "_check_batches", lambda s, b: batches.extend(b) or check(s, b))
    assert campaign.run_campaign(system, inputs).problems == []
    record = batches[0].records[1]
    path = system.provers[record.prover_name].batch_inclusions[batches[0].batch_id]
    system.provers[record.prover_name].batch_inclusions[batches[0].batch_id] = dataclasses.replace(
        path, leaf_index=path.leaf_index ^ 1
    )
    problems = check(system, batches)
    assert len(problems) == 1 and record.prover_name in problems[0]


def test_benchmark_json_matches_the_command():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "perfbench/run.py"
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in campaign.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
