"""The repository benchmark: proof-of-location campaigns, end to end.

    python3 perfbench/run.py --workload evm-campaign --seed 1 --seconds 30 --trace 0

Each workload (:data:`campaign.WORKLOADS`) is a single-threaded batch
campaign on the sim clock, so there is no arrival schedule: throughput
is reported at the workload's stated size.  One run spawns cold
processes (``probe.py``); each constructs the facade -- timed from
process spawn, the set-up every CLI process pays -- and then runs
``workload.per_process`` campaigns.  The run's first
``workload.campaigns`` campaigns each get their own inputs from
``--seed``, and sim-clock metrics are pooled over them.  Further
processes repeat those inputs until ``--seconds`` have passed, adding
wall-time samples and checking that the sim results repeat.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
campaign untraced and traced and prints the per-layer metrics.  The
last line of standard output is one JSON object; the exit code is
nonzero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import campaign  # noqa: E402
from layers import LAYERS  # noqa: E402

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "proofs_per_s_norm": "1/s",
    "peak_rss_mib": "MiB",
    "sim_latency_p99_s": "s",
    "fee_per_proof": "base_units",
    "verified_ratio": "ratio",
}

#: per-layer metrics (``--trace 1``), each per campaign: name -> unit
PER_LAYER = {
    "repro.import_s": "s",
    "reach.compile.self_s": "s",
    "reach.lint.self_s": "s",
    **{f"{layer.name}.{kind}": unit for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "dht.hops_mean": "hops",
    # Seed-to-seed spread too wide for a regression bound:
    # on goerli a campaign's median shifts by whole 12 s blocks, and on
    # evm-batched one verifier's nonce-ordered anchoring transactions
    # make a campaign's mean latency and makespan vary by 30-50%.
    "sim_latency_p50_s": "s",
    "sim_latency_mean_s": "s",
    "sim_makespan_s": "s",
    "chain.blocks": "count",
    "chain.tx_per_proof": "ratio",
    "chain.tx_failed_ratio": "ratio",
    "chain.mempool_wait_sim_p50_s": "s",
    "chain.mempool_wait_sim_p99_s": "s",
    "chain.confirm_wait_sim_p50_s": "s",
    "trace.unattributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.reference_s": "s",
}

#: Throughput is reported for a host on which ``probe.reference_s`` takes
#: this long: each campaign window is rescaled by the reference loop
#: timed around it, and the run reports verified proofs over the summed
#: rescaled windows.  On a shared 2-vCPU VM the host's speed drifted by
#: 15-20% between half-minute windows; the reference loop tracks that drift.
REFERENCE_NOMINAL_S = 0.07

#: no run may approach the 180 s a run is allowed
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 120.0


def spawn(workload: campaign.Workload, seed: int, block: int, trace: bool) -> tuple[float, dict]:
    """Run one cold process over campaign block ``block``.

    Returns (set-up seconds, its JSON report).
    """
    first = block * workload.per_process
    args = [workload.name, str(seed), str(first), str(workload.per_process), str(int(trace))]
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), *args], stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
    ) as child:
        try:
            ready = child.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    lines = out.splitlines()
    if ready.strip() != "ready" or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"probe {' '.join(args)} exited {child.returncode} without a report")
    return setup_s, json.loads(lines[-1])


#: Witness nonces come from the OS (``secrets``), and their decimal width
#: changes a record's calldata gas by a few units, so on EVM chains the
#: fee total of one campaign drifts by about 1e-6 between processes.
FEE_TOLERANCE = 1e-4


def same_sim(a: dict, b: dict) -> bool:
    """Whether two reports of one campaign agree on every sim-clock
    sample (exactly) and on fees (within :data:`FEE_TOLERANCE`)."""
    keys = ("latency_s", "mempool_wait_s", "confirm_wait_s", "makespan_s", "blocks",
            "transactions", "failed_transactions", "verified")
    return all(a[k] == b[k] for k in keys) and abs(a["fees"] - b["fees"]) <= FEE_TOLERANCE * max(a["fees"], 1)


def run(workload: campaign.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Cold processes over the run's campaigns until ``seconds`` have passed.

    Blocks of ``workload.per_process`` campaigns go to one process each;
    once every distinct campaign has run, further processes repeat the
    blocks from the first, and must reproduce their sim-clock results.
    """
    if not (HERE.parent / "src" / "repro").is_dir():
        raise SystemExit(f"no program source at {HERE.parent / 'src' / 'repro'}")
    subprocess.run([sys.executable, str(HERE / "probe.py"), "--warm"], check=True, cwd=HERE.parent)
    blocks = workload.campaigns // workload.per_process
    setups: list[float] = []
    phases: list[dict] = []  # import/compile/lint seconds of each untraced process
    rss: list[float] = []
    plain: list[dict] = []  # campaign reports in run order; index % campaigns is the campaign
    traced: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    block = 0
    while block < blocks or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > DEADLINE_S:
            if block < blocks:
                problems.append(f"only {block} of {blocks} process blocks ran before the deadline")
            break
        runs = [spawn(workload, seed, block % blocks, False)]
        if trace:
            runs.append(spawn(workload, seed, block % blocks, True))
        for _, report in runs:
            for result in report["campaigns"]:
                attempted += result["attempted"]
                failed += result["attempted"] - result.get("verified", 0)
                problems += result.get("problems", [result.get("error")])
        if failed:
            break
        setups.append(runs[0][0])
        phases.append(runs[0][1]["setup"])
        rss.append(runs[0][1]["rss_mib"])
        for offset, result in enumerate(runs[0][1]["campaigns"]):
            index = len(plain)
            campaign_no = index % workload.campaigns
            if index >= workload.campaigns and not same_sim(result, plain[campaign_no]):
                problems.append(f"campaign {campaign_no} did not repeat its sim-clock results")
            if trace:
                layers = runs[1][1]["campaigns"][offset]
                if not same_sim(result, layers):
                    problems.append(f"tracing changed campaign {campaign_no}'s sim-clock results")
                if index >= workload.campaigns and _calls(layers) != _calls(traced[campaign_no]):
                    problems.append(f"campaign {campaign_no} did not repeat its layer call counts")
                traced.append(layers)
            plain.append(result)
        block += 1

    metrics: dict[str, float] = {}
    if len(plain) >= workload.campaigns and not failed:
        distinct = plain[: workload.campaigns]
        sim = campaign.sim_metrics([campaign.CampaignResult(**_fields(r)) for r in distinct])
        if trace:
            metrics = per_layer(phases, plain, traced, workload.campaigns, sim)
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "proofs_per_s_norm": sum(r["verified"] for r in plain)
                / sum(r["window_s"] * REFERENCE_NOMINAL_S / r["reference_s"] for r in plain),
                "peak_rss_mib": statistics.median(rss),
                **{name: sim[name] for name in END_TO_END if name in sim},
                "verified_ratio": (attempted - failed) / attempted,
            }
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not problems and not failed and bool(metrics),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
        "problems": problems,
    }


def _fields(report: dict) -> dict:
    names = campaign.CampaignResult.__dataclass_fields__
    return {k: v for k, v in report.items() if k in names}


def _calls(report: dict) -> dict[str, int]:
    return {k: v for k, v in report["layers"].items() if k.endswith(".calls")}


def per_layer(phases: list[dict], plain: list[dict], traced: list[dict], distinct: int, sim: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Every value is per campaign: call counts are means over the run's
    distinct campaigns (so they repeat exactly for a seed), self times
    medians over traced campaigns, set-up phases medians over untraced
    processes, and the tracing overhead the median ratio of a campaign's
    traced to untraced window.
    """
    metrics = {
        "repro.import_s": statistics.median(p["import_s"] for p in phases),
        "reach.compile.self_s": statistics.median(p["compile_s"] for p in phases),
        "reach.lint.self_s": statistics.median(p["lint_s"] for p in phases),
    }
    for name in traced[0]["layers"]:
        if name.endswith(".calls"):
            metrics[name] = statistics.fmean(r["layers"][name] for r in traced[:distinct])
        else:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
    metrics.update({name: value for name, value in sim.items() if name in PER_LAYER})
    metrics["host.reference_s"] = statistics.median(r["reference_s"] for r in plain)
    metrics["trace.overhead_ratio"] = statistics.median(t["window_s"] / p["window_s"] for p, t in zip(plain, traced))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(campaign.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(campaign.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for problem in result.pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
