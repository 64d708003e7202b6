"""One cold benchmark process: set up the facade, then run campaigns.

    python3 perfbench/probe.py WORKLOAD SEED FIRST COUNT TRACE
    python3 perfbench/probe.py --warm

Runs campaigns FIRST .. FIRST+COUNT-1 of the run seeded SEED, each on a
freshly constructed :class:`ProofOfLocationSystem`.  Prints ``ready`` as
soon as the first system is constructed (the parent times set-up from
spawning this process to that line), then one JSON line with every
campaign's results.  ``TRACE=1`` records per-layer spans (:mod:`layers`)
over each campaign window.
``--warm`` only imports the program and builds its native extension,
which is done once per checkout and not timed.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import campaign  # noqa: E402  (stdlib-only; the program is imported below, timed)
from layers import Tracer  # noqa: E402


def reference_s() -> float:
    """Seconds this host takes for a fixed pure-Python loop, now.

    Timed right before and after each campaign, it tracks how fast the
    (shared) host runs at that moment; ``run.py`` divides it out of the
    campaign's throughput.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def warm() -> None:
    from repro.crypto.fastexp import g_pow

    g_pow(1)  # first use builds (or loads) the native comb


def main(argv: list[str]) -> int:
    if argv[1:] == ["--warm"]:
        warm()
        return 0
    name, seed, first, count, trace = argv[1], int(argv[2]), int(argv[3]), int(argv[4]), argv[5] == "1"
    workload = campaign.WORKLOADS[name]

    t0 = time.perf_counter()
    import repro.core.system  # noqa: F401
    setup = {"import_s": time.perf_counter() - t0}
    tracer = Tracer()
    if trace:
        tracer.install()  # before construction, so no layer object escapes it
    system = campaign.build_system(workload, campaign.chain_seed(workload, seed, first), setup)
    print("ready", flush=True)

    reports = []
    for index in range(first, first + count):
        inputs = campaign.generate_inputs(workload, seed, index)
        if system is None:
            if trace:
                tracer.install()
            system = campaign.build_system(workload, inputs.chain_seed)
        window = None
        if trace:
            window = lambda opening: tracer.reset() if opening else tracer.uninstall()  # noqa: E731
        try:
            before = reference_s()
            result = campaign.run_campaign(system, inputs, on_window=window)
            reference = (before + reference_s()) / 2
        except Exception:
            # Reported, not raised: every proof of this campaign failed.
            traceback.print_exc()
            tracer.uninstall()
            reports.append({"error": traceback.format_exc(limit=3), "attempted": len(inputs.payloads)})
            break
        report = dataclasses.asdict(result)
        report["reference_s"] = reference
        if trace:
            try:
                report["layers"] = tracer.summary(result.window_s)
            except ValueError as exc:
                report["problems"].append(f"trace: {exc}")
                report["layers"] = {}
        reports.append(report)
        system = None
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"setup": setup, "rss_mib": rss_mib, "campaigns": reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
