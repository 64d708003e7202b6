"""Scaling-path correctness: 1k-user smoke and 16-user parity.

The 100k-scale refactor added two semantically-invisible fast paths:
the array-backed population store and journey sampling.  These tests
pin "semantically invisible": a seeded 1k-user run must validate
cleanly end to end, and at 16 users the population store must
reproduce the dict store's journeys measure for measure.
"""

import pytest

from repro.bench.simulation import run_traced_journeys
from repro.obs.analysis import bench_summary

SEED = 1


class TestThousandUserSmoke:
    """A seeded 1k-user campaign on each family validates cleanly.

    ``sample_every=10`` keeps the span store small (all 1000 users still
    run the full protocol and feed counters/validation; every 10th is
    traced) so the smoke stays a few seconds in CI.
    """

    @pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
    def test_zero_validation_problems(self, network):
        report, recorder = run_traced_journeys(network, 1000, seed=SEED, sample_every=10)
        assert report.problems() == []
        assert report.complete
        assert len(report.journeys) == 100  # every 10th of 1000
        summary = bench_summary(report, recorder)
        assert summary["journeys"] == 100
        assert summary["spans_dropped"] == 0


class TestSixteenUserParity:
    """population store vs. the dict store.

    On the flat-fee AVM family every summary quantity must match
    exactly.  On EVM, fees are the one quantity that legitimately moves:
    witness nonces are random, so record calldata (and its gas) differs
    by a few bytes between runs; everything else must still match
    exactly.
    """

    def summaries(self, network):
        seed_path = bench_summary(*run_traced_journeys(network, 16, seed=SEED))
        fast_path = bench_summary(*run_traced_journeys(network, 16, seed=SEED, population=True))
        return seed_path, fast_path

    def test_avm_exact_parity(self):
        seed_path, fast_path = self.summaries("algorand-testnet")
        assert fast_path == seed_path

    def test_evm_parity_modulo_fees(self):
        seed_path, fast_path = self.summaries("goerli")
        drift = [key for key in seed_path if fast_path[key] != seed_path[key]]
        assert drift in ([], ["fees_base_units_total"]), drift
        assert fast_path["complete"] and seed_path["complete"]
        assert fast_path["journeys"] == seed_path["journeys"] == 16


@pytest.fixture(scope="module")
def profiled_10k():
    """One shared profiled 10k-user campaign with tiny telemetry caps.

    The caps are patched down so both bounded-telemetry mechanisms
    (gauge stride-downsampling, span-cap dropping) actually engage at
    this scale, which the production caps are sized never to do.
    """
    from repro.obs.prof import Profiler

    patcher = pytest.MonkeyPatch()
    patcher.setattr("repro.obs.recorder.MAX_GAUGE_SAMPLES", 256)
    patcher.setattr("repro.obs.recorder.MAX_SPANS", 2000)
    profiler = Profiler()
    try:
        report, recorder = run_traced_journeys(
            "goerli", 10_000, seed=SEED, sample_every=10,
            population=True, profiler=profiler,
        )
    finally:
        patcher.undo()
    return report, recorder, profiler


class TestProfiledTenThousandUsers:
    """Profiler + bounded-telemetry invariants at 10k users."""

    def test_profiler_overhead_within_budget(self, profiled_10k):
        _, _, profiler = profiled_10k
        profile = profiler.profile()
        assert profile["profiler_overhead_ratio"] <= 0.05

    def test_stage_self_times_tile_the_wall_clock(self, profiled_10k):
        _, _, profiler = profiled_10k
        profile = profiler.profile()
        accounted = (
            sum(row["wall_seconds"] for row in profile["stages"].values())
            + profile["unattributed_wall_seconds"]
        )
        total = profile["total_wall_seconds"]
        assert accounted == pytest.approx(total, rel=0.01)
        # The event step must carry (nearly all of) the simulated time,
        # and the kernel's compute stages must all have run.
        assert profile["stages"]["simnet.step"]["sim_seconds"] > 0
        for stage in ("vm.execute", "mempool.schedule", "crypto.comb",
                      "chain.submit", "obs.recorder", "obs.profiler"):
            assert profile["stages"][stage]["wall_seconds"] > 0, stage

    def test_span_drop_accounting_is_exact(self, profiled_10k):
        _, recorder, _ = profiled_10k
        assert recorder.spans_dropped > 0  # the patched cap engaged
        assert len(recorder.spans) == 2000
        assert (
            recorder.counter_value("obs_spans_dropped_total") == recorder.spans_dropped
        )
        assert recorder.snapshot()["spans"]["dropped"] == recorder.spans_dropped

    def test_gauge_downsampling_engaged_and_accounted(self, profiled_10k):
        _, recorder, _ = profiled_10k
        totals = [
            (key, value)
            for key, value in recorder._counters.items()
            if key[0] == "gauge_samples_dropped_total" and value > 0
        ]
        assert totals, "no gauge hit the patched 256-sample cap"
        for key, dropped in totals:
            labels = dict(key[1])
            series = recorder._gauge_series[(labels.pop("gauge"), tuple(sorted(labels.items())))]
            assert len(series) <= 256
            assert dropped > 0
