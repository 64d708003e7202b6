"""Unit tests for the deterministic stage profiler."""

import json

import pytest

from repro.obs.prof import (
    HANDICAP_ENV,
    STAGES,
    Profiler,
    _apply_handicap,
    _resolve,
    to_collapsed,
    to_profile_chrome_trace,
    to_speedscope,
)
from repro.simnet import SimClock


def spin(ns: int = 50_000) -> None:
    """Burn at least ``ns`` wall nanoseconds of real work."""
    from time import perf_counter_ns

    deadline = perf_counter_ns() + ns
    while perf_counter_ns() < deadline:
        pass


class TestStageAccounting:
    def test_self_time_excludes_children(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("outer")
        spin()
        profiler.enter("inner")
        spin(500_000)
        profiler.exit()
        spin()
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        outer = profile["stages"]["outer"]["wall_seconds"]
        inner = profile["stages"]["inner"]["wall_seconds"]
        assert inner >= 500_000 / 1e9
        # outer's self time is its own two spins, not inner's big one.
        assert outer < inner

    def test_calls_counted_per_stage(self):
        profiler = Profiler()
        profiler.start()
        for _ in range(3):
            profiler.enter("stage")
            profiler.exit()
        profiler.stop()
        assert profiler.profile()["stages"]["stage"]["calls"] == 3

    def test_sim_time_attributed_to_the_advancing_stage(self):
        clock = SimClock()
        profiler = Profiler(clock=clock)
        profiler.start()
        profiler.enter("dispatch")
        clock.advance(10.0)
        profiler.enter("compute")
        profiler.exit()
        profiler.exit()
        profiler.enter("compute")
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["dispatch"]["sim_seconds"] == 10.0
        assert profile["stages"]["compute"]["sim_seconds"] == 0.0
        assert profile["total_sim_seconds"] == 10.0

    def test_nested_sim_advance_is_the_childs(self):
        clock = SimClock()
        profiler = Profiler(clock=clock)
        profiler.start()
        profiler.enter("outer")
        profiler.enter("inner")
        clock.advance(4.0)
        profiler.exit()
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["inner"]["sim_seconds"] == 4.0
        assert profile["stages"]["outer"]["sim_seconds"] == 0.0

    def test_first_clock_binding_wins(self):
        first, second = SimClock(), SimClock()
        profiler = Profiler()
        profiler.bind_clock(first)
        profiler.bind_clock(second)
        first.advance(3.0)
        profiler.start()
        profiler.enter("s")
        profiler.exit()
        profiler.stop()
        assert profiler.clock is first

    def test_recursive_stage_accumulates(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("core.submit")
        profiler.enter("core.submit")  # BatchAggregator.drain -> flush_all
        profiler.exit()
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["core.submit"]["calls"] == 2
        paths = profiler.path_totals()
        assert ("core.submit",) in paths
        assert ("core.submit", "core.submit") in paths


class TestOverheadAccounting:
    def test_profiler_overhead_is_a_distinct_stage(self):
        profiler = Profiler()
        profiler.start()
        for _ in range(100):
            profiler.enter("hot")
            profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        overhead = profile["stages"]["obs.profiler"]
        assert overhead["wall_seconds"] > 0
        assert overhead["calls"] == 200  # one per enter + one per exit
        assert profile["profiler_overhead_seconds"] == overhead["wall_seconds"]

    def test_totals_reconcile(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("a")
        spin()
        profiler.enter("b")
        spin()
        profiler.exit()
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        accounted = (
            sum(row["wall_seconds"] for row in profile["stages"].values())
            + profile["unattributed_wall_seconds"]
        )
        assert accounted == pytest.approx(profile["total_wall_seconds"], abs=5e-6)

    def test_add_flat_charges_stage_and_credits_caller(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("caller")
        profiler.add_flat("obs.recorder", 1_000_000)
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["obs.recorder"]["wall_seconds"] == pytest.approx(0.001)
        assert profile["stages"]["obs.recorder"]["calls"] == 1
        # The millisecond went to obs.recorder, not the caller's self time.
        assert profile["stages"]["caller"]["wall_seconds"] < 0.001

    def test_profile_of_open_window_is_consistent(self):
        profiler = Profiler()
        profiler.start()
        profiler.enter("s")
        profiler.exit()
        profile = profiler.profile()  # window still open
        assert profile["total_wall_seconds"] > 0
        profiler.stop()
        assert profiler.profile()["total_wall_seconds"] >= profile["total_wall_seconds"]


class TestHandicap:
    def test_additive_handicap_inflates_one_stage(self, monkeypatch):
        monkeypatch.setenv(HANDICAP_ENV, "vm.execute:+2.0")
        profiler = Profiler()
        profiler.start()
        profiler.enter("vm.execute")
        profiler.exit()
        profiler.enter("crypto.sign")
        profiler.exit()
        profiler.stop()
        profile = profiler.profile()
        assert profile["stages"]["vm.execute"]["wall_seconds"] >= 2.0
        assert profile["stages"]["crypto.sign"]["wall_seconds"] < 1.0
        assert profile["handicap"] == "vm.execute:+2.0"

    def test_no_handicap_records_none(self, monkeypatch):
        monkeypatch.delenv(HANDICAP_ENV, raising=False)
        profiler = Profiler()
        profiler.start()
        profiler.stop()
        assert profiler.profile()["handicap"] is None

    def test_multiplicative_and_malformed_clauses(self):
        assert _apply_handicap("s:x3", "s", 2.0) == 6.0
        assert _apply_handicap("s:+1.5", "s", 2.0) == 3.5
        assert _apply_handicap("other:x3", "s", 2.0) == 2.0
        assert _apply_handicap("nonsense", "s", 2.0) == 2.0
        assert _apply_handicap("s:xoops", "s", 2.0) == 2.0
        assert _apply_handicap("a:+1,s:x2", "s", 2.0) == 4.0


def table_targets() -> dict[tuple[int, str], object]:
    """Every table target plus the by-name copies of the crypto functions.

    Keyed by ``(id(owner), attr)`` so two modules holding the same name
    stay distinct entries.
    """
    from repro.crypto import keys, vrf

    current = {}
    for stage in STAGES:
        for target in stage.targets:
            owner, attr = _resolve(target)
            current[(id(owner), attr)] = vars(owner)[attr]
    for module in (keys, vrf):
        for attr in ("g_pow", "p_pow"):
            current[(id(module), attr)] = vars(module)[attr]
    return current


class TestInstalled:
    def test_installed_restores_every_target(self):
        originals = table_targets()
        profiler = Profiler()
        with profiler.installed(SimClock()) as active:
            assert active is profiler
            inside = table_targets()
            for key, original in originals.items():
                assert inside[key] is not original, key
                assert inside[key].__wrapped__ is original, key
        after = table_targets()
        assert all(after[key] is original for key, original in originals.items())

    def test_installed_restores_on_exception(self):
        originals = table_targets()
        profiler = Profiler()
        with pytest.raises(RuntimeError):
            with profiler.installed():
                raise RuntimeError("boom")
        after = table_targets()
        assert all(after[key] is original for key, original in originals.items())
        assert profiler.profile()["total_wall_seconds"] > 0  # window closed

    def test_copy_taken_inside_the_window_is_restored(self):
        import sys
        import types

        from repro.crypto import fastexp

        original = fastexp.g_pow
        late = types.ModuleType("repro._late_importer")
        sys.modules[late.__name__] = late
        try:
            with Profiler().installed():
                late.g_pow = fastexp.g_pow  # a first import inside the window
                assert late.g_pow is not original
            assert late.g_pow is original
        finally:
            del sys.modules[late.__name__]

    def test_wrapped_calls_enter_their_stages(self):
        from repro.crypto.keys import KeyPair
        from repro.obs.recorder import Recorder

        keypair = KeyPair.from_seed(b"prof-test")
        recorder = Recorder(SimClock())
        profiler = Profiler()
        with profiler.installed():
            signature = keypair.sign(b"message")
            recorder.span("probe").end()
        assert keypair.public.verify(b"message", signature)  # unwrapped again
        stages = profiler.profile()["stages"]
        assert stages["crypto.sign"]["calls"] == 1
        assert stages["crypto.comb"]["calls"] == 1
        assert ("crypto.sign", "crypto.comb") in profiler.path_totals()
        assert "crypto.verify" not in stages
        # Flat stage: counted, but never an enter/exit pair.
        assert stages["obs.recorder"]["calls"] == 1
        assert stages["obs.profiler"]["calls"] == 4


class TestProfiledRunParity:
    """A profiled campaign reports exactly what an unprofiled one does.

    EVM fee totals may drift by a few calldata bytes between any two
    runs (random witness nonces), as in the population-store parity
    tests; every other summary quantity must match.
    """

    @pytest.mark.parametrize("network", ["goerli", "algorand-testnet"])
    def test_profiled_summary_matches_unprofiled(self, network):
        from repro.bench.simulation import run_traced_journeys
        from repro.obs.analysis import bench_summary

        plain = bench_summary(*run_traced_journeys(network, 16, seed=1))
        profiler = Profiler()
        profiled = bench_summary(*run_traced_journeys(network, 16, seed=1, profiler=profiler))
        drift = [key for key in plain if profiled[key] != plain[key]]
        allowed = ([], ["fees_base_units_total"]) if network == "goerli" else ([],)
        assert drift in allowed, drift
        assert profiled["journeys"] == 16
        stages = profiler.profile()["stages"]
        for stage in ("simnet.step", "vm.execute", "chain.submit", "reach.lint", "core.submit"):
            assert stages[stage]["calls"] > 0, stage


def profiled_fixture() -> Profiler:
    """A profiler with a known two-path shape for the export tests."""
    profiler = Profiler()
    profiler.start()
    profiler.enter("root")
    spin(200_000)
    profiler.enter("child")
    spin(200_000)
    profiler.exit()
    profiler.exit()
    profiler.stop()
    return profiler


class TestExports:
    def test_collapsed_stack_lines(self):
        profiler = profiled_fixture()
        text = to_collapsed(profiler)
        lines = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        assert "root" in lines
        assert "root;child" in lines
        assert "obs.profiler" in lines
        assert all(int(weight) > 0 for weight in lines.values())

    def test_speedscope_profile_shape(self):
        profiler = profiled_fixture()
        doc = to_speedscope(profiler, name="test")
        assert doc["profiles"][0]["type"] == "sampled"
        samples = doc["profiles"][0]["samples"]
        weights = doc["profiles"][0]["weights"]
        assert len(samples) == len(weights) >= 3  # root, root;child, overhead
        assert doc["profiles"][0]["endValue"] == sum(weights)
        frames = doc["shared"]["frames"]
        names = {frame["name"] for frame in frames}
        assert {"root", "child", "obs.profiler"} <= names
        json.dumps(doc)  # round-trippable

    def test_chrome_trace_icicle_nests_child_inside_parent(self):
        profiler = profiled_fixture()
        doc = to_profile_chrome_trace(profiler)
        events = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        root, child = events["root"], events["child"]
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"]
        # root's inclusive duration covers its self time plus the child's.
        assert root["dur"] >= child["dur"]
