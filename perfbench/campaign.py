"""Seeded proof campaigns through the public Proof-of-Location facade.

A campaign onboards every prover, witness and verifier, then takes all
provers through three phases, each as one batch on the sim clock:
``request_location_proof``, then ``submit_many`` (or ``submit_batched``
through a :class:`~repro.core.batch.BatchAggregator`), then
``fund_contracts`` + ``verify_many`` (or ``light_verify_many``).  The
campaign window -- the wall time these four phases take -- is what the
benchmark's throughput is measured over.

Inputs come only from the workload seed (:func:`generate_inputs`); the
program never sees the seed itself, only the coordinates, report
payloads and chain seed derived from it.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass

#: contract reward per verified proof, in the chain's base units
REWARD = 5_000
#: OLC pair-code cell edge in degrees (10 significant digits)
OLC_CELL_DEG = 0.000125
#: spacing between two groups' cells: ~1.1 km, never the same contract
GROUP_SPACING_DEG = 0.01


@dataclass(frozen=True)
class Workload:
    """One campaign shape: network, population and submission path."""

    name: str
    network: str
    provers: int
    per_contract: int
    batched: bool
    #: distinct campaigns (each its own chain seed and inputs) per run;
    #: sim metrics are pooled over them
    campaigns: int
    #: campaigns run one after another by each cold process
    per_process: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evm-campaign", "goerli", 2_000, 4, False, 8, 2,
            "goerli, unbatched: EVM execution, tx signing and DHT publishing under a backed-up EIP-1559 mempool",
        ),
        Workload(
            "avm-campaign", "algorand-testnet", 1_500, 4, False, 6, 2,
            "algorand-testnet, unbatched: AVM/TEAL and per-round VRF sortition; flat fees keep the mempool short",
        ),
        Workload(
            "evm-batched", "goerli", 4_000, 16, True, 9, 3,
            "goerli, 16 per contract via BatchAggregator: off-chain acceptance, Merkle anchoring, light verification",
        ),
    )
}


@dataclass(frozen=True)
class Group:
    """One location: its witness and the provers standing in its cell."""

    witness: tuple[float, float]
    provers: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class CampaignInputs:
    """Everything a campaign feeds the program, derived from one seed."""

    workload: Workload
    chain_seed: int
    groups: tuple[Group, ...]
    payloads: tuple[bytes, ...]  # one report per prover, in prover order


def chain_seed(workload: Workload, seed: int, campaign: int) -> int:
    """The chain seed of campaign ``campaign`` of a run seeded ``seed``."""
    return _rng(workload, seed, campaign).randrange(2**31)


def _rng(workload: Workload, seed: int, campaign: int) -> random.Random:
    return random.Random(f"{workload.name}/{seed}/{campaign}")


def generate_inputs(workload: Workload, seed: int, campaign: int = 0) -> CampaignInputs:
    """Seeded coordinates, report payloads and chain seed for ``workload``.

    Groups sit on a grid ``GROUP_SPACING_DEG`` apart, each at a random
    OLC cell of its grid square; the group's provers stand at random
    points inside that one cell (so they share one contract) and its
    witness a few metres away, inside Bluetooth range.
    """
    rng = _rng(workload, seed, campaign)
    chain = rng.randrange(2**31)
    group_count = workload.provers // workload.per_contract
    side = max(1, int(group_count**0.5 + 0.999))
    cells_per_square = int(GROUP_SPACING_DEG / OLC_CELL_DEG) - 1
    groups = []
    for group in range(group_count):
        row, col = divmod(group, side)
        cell_lat = 44.0 + row * GROUP_SPACING_DEG + rng.randrange(cells_per_square) * OLC_CELL_DEG
        cell_lng = 11.0 + col * GROUP_SPACING_DEG + rng.randrange(cells_per_square) * OLC_CELL_DEG
        provers = tuple(
            (
                cell_lat + rng.uniform(0.1, 0.9) * OLC_CELL_DEG,
                cell_lng + rng.uniform(0.1, 0.9) * OLC_CELL_DEG,
            )
            for _ in range(workload.per_contract)
        )
        witness = (cell_lat + rng.uniform(-1.0, 2.0) * OLC_CELL_DEG, cell_lng + rng.uniform(-1.0, 2.0) * OLC_CELL_DEG)
        groups.append(Group(witness=witness, provers=provers))
    payloads = tuple(
        f"report {index}: ".encode() + rng.randbytes(rng.randrange(32, 256))
        for index in range(group_count * workload.per_contract)
    )
    return CampaignInputs(workload=workload, chain_seed=chain, groups=tuple(groups), payloads=payloads)


def build_system(workload: Workload, chain_seed: int, timings: dict[str, float] | None = None):
    """A constructed facade for ``workload``.

    Compiles the workload's contract and runs its deploy-gate lint
    explicitly first, so ``timings`` (when given) receives
    ``compile_s`` and ``lint_s``; the facade's own gate then reuses the
    in-process lint result.
    """
    from repro.chain import make_chain
    from repro.core.contract import build_pol_program
    from repro.core.system import ProofOfLocationSystem
    from repro.reach.compiler import compile_program

    t0 = time.perf_counter()
    compiled = compile_program(build_pol_program(max_users=workload.per_contract, reward=REWARD))
    t1 = time.perf_counter()
    compiled.lint_report()
    t2 = time.perf_counter()
    if timings is not None:
        timings.update(compile_s=t1 - t0, lint_s=t2 - t1)
    chain = make_chain(workload.network, seed=chain_seed)
    return ProofOfLocationSystem(chain=chain, reward=REWARD, max_users=workload.per_contract, compiled=compiled)


@dataclass
class CampaignResult:
    """Wall times, sim-clock samples and correctness of one campaign."""

    attempted: int
    verified: int
    window_s: float
    phase_s: dict[str, float]
    #: per-proof sim seconds from submission to confirmation of the
    #: proof's anchoring operation, in prover order
    latency_s: list[float]
    #: per-receipt sim seconds submitted -> included and included -> confirmed
    mempool_wait_s: list[float]
    confirm_wait_s: list[float]
    #: sim seconds from the first submission to the last verification
    makespan_s: float
    blocks: int
    transactions: int
    failed_transactions: int
    fees: int
    #: correctness violations, one line each; empty when the campaign is correct
    problems: list[str]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def sim_metrics(results: list[CampaignResult]) -> dict[str, float]:
    """Metrics of the sim clock and the chain, pooled over ``results``
    (makespan and blocks as means per campaign).

    They depend only on the inputs, so they repeat for a seed: exactly,
    except fees, which the OS-random witness nonces move slightly (see
    ``run.FEE_TOLERANCE``).
    """
    latency = [x for r in results for x in r.latency_s]
    mempool = [x for r in results for x in r.mempool_wait_s]
    verified = max(1, sum(r.verified for r in results))
    transactions = sum(r.transactions for r in results)
    return {
        "sim_latency_p50_s": statistics.median(latency),
        "sim_latency_mean_s": statistics.fmean(latency),
        "sim_latency_p99_s": percentile(latency, 0.99),
        "sim_makespan_s": statistics.fmean(r.makespan_s for r in results),
        "fee_per_proof": sum(r.fees for r in results) / verified,
        "chain.blocks": statistics.fmean(r.blocks for r in results),
        "chain.tx_per_proof": transactions / verified,
        "chain.tx_failed_ratio": sum(r.failed_transactions for r in results) / max(1, transactions),
        "chain.mempool_wait_sim_p50_s": statistics.median(mempool),
        "chain.mempool_wait_sim_p99_s": percentile(mempool, 0.99),
        "chain.confirm_wait_sim_p50_s": statistics.median(x for r in results for x in r.confirm_wait_s),
    }


def _confirmed_at(receipts) -> float:
    """Sim time the operation's last transaction confirmed."""
    return max(r.confirmed_at for r in receipts)


def run_campaign(system, inputs: CampaignInputs, on_window=None) -> CampaignResult:
    """Onboard, prove, submit and verify every prover of ``inputs``.

    ``on_window(True)`` / ``on_window(False)`` bracket the timed window
    (the tracer uses them to start and stop recording).  Correctness
    checks run after the window and land in ``problems``.
    """
    workload = inputs.workload
    chain = system.chain
    clock = chain.queue.clock
    per = workload.per_contract
    names = [f"prover-{index}" for index in range(len(inputs.payloads))]
    funding = chain.profile.simulation_funding
    height0 = chain.height
    receipts0 = set(chain.receipts)

    if on_window is not None:
        on_window(True)
    t0 = time.perf_counter()
    for group, spec in enumerate(inputs.groups):
        system.register_witness(f"witness-{group}", *spec.witness)
    system.register_verifier("verifier", funding=funding * len(names))
    for index, name in enumerate(names):
        lat, lng = inputs.groups[index // per].provers[index % per]
        system.register_prover(name, lat, lng, funding=funding)
    t1 = time.perf_counter()

    requests = []
    for index, name in enumerate(names):
        request, proof, _cid = system.request_location_proof(
            name, f"witness-{index // per}", inputs.payloads[index]
        )
        requests.append((name, request, proof))
    t2 = time.perf_counter()

    sim_start = clock.now
    if workload.batched:
        from repro.core.batch import BatchAggregator

        creators = requests[::per]
        outcomes = system.submit_many(creators)
        aggregator = BatchAggregator(system, "verifier", batch_size=per - 1)
        accepted_at: dict[str, float] = {}
        rejected = []
        for index, (name, request, proof) in enumerate(requests):
            if index % per == 0:
                continue
            accepted_at[name] = clock.now
            outcome, _batch = system.submit_batched(name, request, proof, aggregator)
            if outcome.name != "OK":
                rejected.append(f"{name}: batched submission rejected ({outcome.name})")
        aggregator.poll()
        aggregator.flush_all()
        batches = aggregator.drain()
    else:
        creators = requests
        outcomes = system.submit_many(requests)
        batches = []
        rejected = []
    t3 = time.perf_counter()

    per_location: dict[str, int] = {}
    for outcome in outcomes:
        per_location[outcome.olc] = per_location.get(outcome.olc, 0) + 1
    system.fund_contracts("verifier", {olc: REWARD * n for olc, n in sorted(per_location.items())})
    targets = [
        (outcome.olc, system.provers[name].did_uint)
        for (name, _request, _proof), outcome in zip(creators, outcomes)
    ]
    verified_onchain = system.verify_many("verifier", targets)
    light = system.light_verify_many("verifier", batches) if batches else []
    t4 = time.perf_counter()
    if on_window is not None:
        on_window(False)
    sim_end = clock.now

    problems = list(rejected)

    # -- correctness ---------------------------------------------------------------
    published: dict[str, int] = {}
    for (olc, did), result in zip(targets, verified_onchain):
        if result.name == "OK":
            published[olc] = published.get(olc, 0) + 1
        else:
            problems.append(f"verify {olc}/{did}: {result.name}")
    light_results = iter(light)  # in batch order, one per member
    for batch in batches:
        for record, result in zip(batch.records, light_results):
            if result.name != "OK":
                problems.append(f"light verify {record.prover_name}: {result.name}")
    problems += _check_batches(system, batches)
    # Only verify_many's reward path feeds the hypercube; light-verified
    # batch members are anchored on chain but not published there.
    for olc in sorted(per_location):
        shown = len(system.display_reports(olc))
        if shown != published.get(olc, 0):
            problems.append(f"display_reports({olc}) shows {shown}, expected {published.get(olc, 0)}")

    verified = sum(1 for r in verified_onchain if r.name == "OK") + sum(1 for r in light if r.name == "OK")
    attempted = len(names)
    if verified != attempted and not problems:
        problems.append(f"{attempted - verified} of {attempted} proofs unaccounted for")

    # -- sim-clock samples -----------------------------------------------------------
    latency = []
    for outcome in outcomes:
        receipts = outcome.operation.receipts
        latency.append(_confirmed_at(receipts) - min(r.submitted_at for r in receipts))
    for batch in batches:
        anchored_at = _confirmed_at(batch.handle.receipts)
        latency.extend(anchored_at - accepted_at[record.prover_name] for record in batch.records)
    receipts = [chain.receipts[txid] for txid in chain.receipts if txid not in receipts0]
    included = [r for r in receipts if r.included_at is not None]
    return CampaignResult(
        attempted=attempted,
        verified=verified,
        window_s=t4 - t0,
        phase_s={"onboard": t1 - t0, "prove": t2 - t1, "submit": t3 - t2, "verify": t4 - t3},
        latency_s=latency,
        mempool_wait_s=[r.included_at - r.submitted_at for r in included],
        confirm_wait_s=[r.confirmed_at - r.included_at for r in included if r.confirmed_at is not None],
        makespan_s=sim_end - sim_start,
        blocks=chain.height - height0,
        transactions=len(receipts),
        failed_transactions=sum(1 for r in receipts if r.status.name != "SUCCESS"),
        fees=sum(r.fee_paid for r in receipts),
        problems=problems,
    )


def _check_batches(system, batches) -> list[str]:
    """Every member's retained Merkle path verifies against the root the
    contract anchored for its batch (read back independently)."""
    problems = []
    for batch in batches:
        anchored = system.factory.instance_for(batch.olc).map_value("batch_map", batch.batch_id)
        if anchored != batch.root_hex:
            problems.append(f"batch {batch.batch_id}: anchored root {anchored!r} != {batch.root_hex}")
            continue
        root = bytes.fromhex(anchored)
        for record in batch.records:
            path = system.provers[record.prover_name].batch_inclusions.get(batch.batch_id)
            if path is None or not path.verify(record.leaf, root):
                problems.append(f"batch {batch.batch_id}: {record.prover_name}'s Merkle path does not verify")
    return problems
