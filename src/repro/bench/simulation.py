"""The simulation harness (the thesis's ``startSimulation.py``).

Pre-creates and funds N prover accounts (the section 4.4 support
scripts), then runs each prover through the deploy-or-attach flow
against a named network profile, recording the *total interaction time
between one user and the smart contract* -- exactly the quantity the
thesis's charts plot.

Proof generation and CID creation are deliberately skipped, as in the
thesis: "their presence would not have relevance to the results"
(section 4.3); records carry fabricated proof fields.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.chain import make_chain
from repro.chain.base import Account, BaseChain, drain
from repro.core.contract import build_pol_program, pol_record
from repro.obs.recorder import NullRecorder
from repro.reach.compiler import CompiledContract, compile_program
from repro.reach.runtime import DeployedContract, OpHandle, OpResult, ReachClient
from repro.bench.workload import USERS_PER_CONTRACT, ProverSpec, generate_workload

__all__ = [
    "SimulationResult",
    "UserTiming",
    "run_simulation",
    "run_simulation_concurrent",
    "run_traced_journeys",
]


@dataclass(frozen=True)
class UserTiming:
    """One user's measured interaction."""

    name: str
    did: int
    olc: str
    operation: str  # "deploy" | "attach"
    latency: float  # seconds, end to end across the operation's txs
    fees: int  # base units
    gas_used: int
    transactions: int
    #: the operation's trace in the run's recorder ("" when untraced);
    #: links this row to its spans in the Chrome trace / journey report.
    trace_id: str = ""


@dataclass
class SimulationResult:
    """Everything a chapter-5 table or figure needs."""

    network: str
    user_count: int
    timings: list[UserTiming] = field(default_factory=list)
    #: the run's full metric snapshot (counters/gauges/histograms) when
    #: a live recorder was attached; None on uninstrumented runs.
    metrics: dict | None = None
    #: chaos-mode report ({"seed": ..., "injected": {kind: count}})
    #: when a fault plan was installed; None on unfaulted runs.
    faults: dict | None = None

    def deploys(self) -> list[UserTiming]:
        """The deploy operations in user order."""
        return [t for t in self.timings if t.operation == "deploy"]

    def attaches(self) -> list[UserTiming]:
        """The attach operations in user order."""
        return [t for t in self.timings if t.operation == "attach"]

    def per_user_series(self) -> list[tuple[str, float]]:
        """The figure 5.2-5.5 bar series: (user, total seconds)."""
        return [(t.name, t.latency) for t in self.timings]

    def to_csv(self) -> str:
        """Raw per-user measurements for external re-plotting."""
        lines = ["name,did,olc,operation,latency_s,fees_base_units,gas_used,transactions"]
        for t in self.timings:
            lines.append(
                f"{t.name},{t.did},{t.olc},{t.operation},{t.latency:.4f},"
                f"{t.fees},{t.gas_used},{t.transactions}"
            )
        return "\n".join(lines) + "\n"


def _timing(
    spec: ProverSpec, kind: str, operation: OpResult, trace_id: str, latency: float | None = None
) -> UserTiming:
    """One user's row; ``latency`` defaults to the operation's receipt sum."""
    return UserTiming(
        name=spec.name, did=spec.did, olc=spec.olc, operation=kind,
        latency=operation.latency if latency is None else latency,
        fees=operation.fees, gas_used=operation.gas_used,
        transactions=len(operation.receipts), trace_id=trace_id,
    )


@dataclass
class _Campaign:
    """The chapter-5 set-up both runners share: a funded workload on one chain."""

    chain: BaseChain
    client: ReachClient
    compiled: CompiledContract
    workload: list[ProverSpec]
    accounts: dict[str, Account]
    records: dict[str, str]
    result: SimulationResult
    #: the proof-liveness monitor (the chain's null watchtower unless armed)
    monitor: Any
    injector: Any = None

    def deploy(self, spec: ProverSpec) -> DeployedContract:
        """Deploy ``spec``'s location contract, blocking; records the timing."""
        pending = self.client.deploy_async(
            self.compiled, self.accounts[spec.name], [spec.olc, spec.did, self.records[spec.name]]
        )
        self.monitor.track_proof((spec.olc, spec.did), pending.trace_id)
        deployed = pending.wait().value
        self.monitor.resolve_proof((spec.olc, spec.did))
        self.result.timings.append(_timing(spec, "deploy", deployed.deploy_result, pending.trace_id))
        return deployed

    def attach(self, spec: ProverSpec, deployed: DeployedContract) -> OpHandle:
        """Start ``spec``'s two-transaction attach operation."""
        return self.client.attach_and_call_async(
            deployed, "attacherAPI.insert_data", [self.records[spec.name], spec.did],
            sender=self.accounts[spec.name],
        )

    def finish(self, recorder: NullRecorder | None) -> SimulationResult:
        if recorder is not None and recorder.enabled:
            self.result.metrics = recorder.snapshot()
        return self.result


def _setup(
    network: str,
    user_count: int,
    seed: int,
    reward: int,
    compiled: CompiledContract | None,
    recorder: NullRecorder | None,
    faults=None,
    watchtower=None,
) -> _Campaign:
    """Chain, client, contract, workload, wallets and records for one run.

    A ``watchtower`` and a ``faults`` plan are armed on the fresh chain
    before any wallet is created (see :func:`run_simulation_concurrent`).
    """
    chain = make_chain(network, seed=seed, recorder=recorder)
    monitor = chain.watchtower
    if watchtower is not None and watchtower.enabled:
        watchtower.attach_chain(chain)
        watchtower.attach_queue(chain.queue)
        monitor = watchtower
    injector = None
    if faults is not None:
        from repro.faults.inject import ChainFaultInjector

        injector = ChainFaultInjector(faults).install(chain)
    client = ReachClient(chain, policy=faults.policy if faults is not None else None)
    if compiled is None:
        compiled = compile_program(
            build_pol_program(max_users=USERS_PER_CONTRACT, reward=reward or 1_000)
        )
    workload = generate_workload(user_count)
    # Support scripts (section 4.4): create and fund every wallet first,
    # so account creation does not pollute the latency measurements.
    funding = chain.profile.simulation_funding
    accounts = {
        spec.name: chain.create_account(seed=f"sim/{network}/{spec.name}".encode(), funding=funding)
        for spec in workload
    }
    records = {
        spec.name: pol_record(
            hashed_proof=f"hash-{spec.did}",
            signed_proof=f"sig-{spec.did}",
            wallet=accounts[spec.name].address,
            nonce=spec.did * 7,
            cid=f"cid-{spec.did}",
        )
        for spec in workload
    }
    return _Campaign(
        chain=chain, client=client, compiled=compiled, workload=workload,
        accounts=accounts, records=records,
        result=SimulationResult(network=network, user_count=user_count),
        monitor=monitor, injector=injector,
    )


def run_simulation(
    network: str,
    user_count: int,
    seed: int = 0,
    reward: int = 0,
    compiled: CompiledContract | None = None,
    recorder: NullRecorder | None = None,
) -> SimulationResult:
    """Run the chapter-5 workload on one network.

    The serial schedule: users act one at a time in workload order, each
    blocking until its operation confirms.  Returns per-user timings;
    deploy = contract creation + creator data insert, attach = the
    two-transaction attach operation.
    """
    campaign = _setup(network, user_count, seed, reward, compiled, recorder)
    contracts: dict[str, DeployedContract] = {}  # the simulated hypercube
    for spec in campaign.workload:
        deployed = contracts.get(spec.olc)
        if deployed is None:
            contracts[spec.olc] = campaign.deploy(spec)
            continue
        handle = campaign.attach(spec, deployed)
        campaign.result.timings.append(
            _timing(spec, "attach", handle.wait().op_result, handle.trace_id)
        )
    return campaign.finish(recorder)


def run_simulation_concurrent(
    network: str,
    user_count: int,
    seed: int = 0,
    reward: int = 0,
    compiled: CompiledContract | None = None,
    recorder: NullRecorder | None = None,
    faults=None,
    watchtower=None,
) -> SimulationResult:
    """The thesis's Thread-based variant: attachers act concurrently.

    Creators deploy sequentially (each location needs its contract id
    first), then *all* attachers of all locations start their attach
    operation at once: every operation is an in-flight future on the
    shared event queue, each user's API call submitted from its own
    handshake's confirmation callback.  Per-user latency is the span of
    the user's handle -- first submission to final confirmation.

    ``faults`` (a :class:`repro.faults.plan.FaultPlan`) switches the run
    into chaos mode: a chain fault injector is installed and every
    submission is armed with the plan's retry/backoff policy.  With
    ``faults=None`` (the default) the run is byte-identical to a
    build without the fault layer.

    ``watchtower`` (a :class:`repro.obs.monitor.Watchtower`) attaches
    the online monitor: invariants are checked at every block boundary,
    each user's operation is tracked for proof liveness (resolved when
    its handle settles without error), and SLO alerts evaluate against
    the run's recorder.  Monitoring never changes the event sequence.

    The harness is chain-agnostic: the per-family ceremonies live in
    the Reach runtime, below this layer.
    """
    campaign = _setup(network, user_count, seed, reward, compiled, recorder, faults, watchtower)
    monitor = campaign.monitor
    contracts = {
        spec.olc: campaign.deploy(spec) for spec in campaign.workload if spec.is_creator
    }

    attachers = [spec for spec in campaign.workload if not spec.is_creator]
    handles = {spec.name: campaign.attach(spec, contracts[spec.olc]) for spec in attachers}
    if monitor.enabled:
        # Proof liveness: every in-flight attach must anchor within the
        # watchtower's block budget; its settle callback resolves it.
        for spec in attachers:
            handle = handles[spec.name]
            monitor.track_proof((spec.olc, spec.did), handle.trace_id)

            def resolved(settled, key=(spec.olc, spec.did)) -> None:
                if settled.error is None:
                    monitor.resolve_proof(key)

            handle.add_done_callback(resolved)
    drain(campaign.chain, list(handles.values()), max_steps=2_000_000)

    for spec in attachers:
        handle = handles[spec.name]
        if handle.error is not None:
            raise handle.error
        campaign.result.timings.append(
            _timing(spec, "attach", handle.op_result, handle.trace_id, latency=handle.span)
        )
    if campaign.injector is not None:
        campaign.result.faults = {"seed": faults.seed, "injected": dict(campaign.injector.injected)}
    return campaign.finish(recorder)


def run_traced_journeys(
    network: str,
    user_count: int,
    seed: int = 0,
    reward: int = 5_000,
    sample_every: int = 1,
    population: bool = False,
    profiler=None,
    batch_size: int | None = None,
    watchtower=None,
):
    """One fully-traced proof lifecycle run through the system facade.

    The bench runners measure at the Reach-client layer (proof
    generation skipped, as in the thesis); journey analysis needs the
    *whole* lifecycle, so this runner drives
    :class:`~repro.core.system.ProofOfLocationSystem` end to end with a
    live recorder: ``user_count`` provers grouped four to a location
    request witness-signed proofs, submit them concurrently
    (``submit_many`` pipelines every ceremony on one event queue), and
    an accredited verifier checks and rewards each record.

    Scale knobs:

    - ``sample_every=N`` traces every N-th user's journey fully and
      mutes the rest (their spans are counted, not recorded) -- all
      users still run the full protocol, so counters, balances and
      validation cover the whole population while the span store stays
      bounded;
    - ``population=True`` stores prover state in the array-backed
      population store (:mod:`repro.core.population`);
    - ``batch_size=N`` (N >= 2) switches the campaign to the Merkle
      proof-batching pipeline: provers are grouped N to a location, the
      group's creator deploys, and the N-1 members' accepted proofs are
      anchored by *one* ``insert_batch`` transaction per group
      (:class:`repro.core.batch.BatchAggregator`), then light-verified
      against the anchored root.  ``user_count`` is trimmed down to a
      whole number of groups (a remainder group could never fill its
      contract's seats);
    - ``watchtower`` (a :class:`repro.obs.monitor.Watchtower`) rides the
      whole campaign through the system facade, which attaches it to the
      chain, the DHT and the event queue and tracks every submission
      under the proof-liveness invariant; this is the scalable path for
      monitored large-population runs (the thesis workload behind
      :func:`run_simulation_concurrent` tops out at 8 locations);
    - ``profiler`` (a :class:`repro.obs.prof.Profiler`) attributes the
      run's wall-clock and sim-time to stages: it is installed on the
      chain's clock around the whole campaign body, so its profiled
      window covers account setup through final verification.
      Profiling never changes results.

    Returns ``(report, recorder)``: the reconstructed
    :class:`~repro.obs.analysis.JourneyReport` plus the recorder, whose
    spans/counters back the Chrome trace and ``BENCH_pol.json`` entry.
    """
    from repro.obs.analysis import reconstruct_journeys
    from repro.obs.recorder import Recorder

    # A monitored run must share one recorder: the watchtower's burn-rate
    # windows read the same counter series the chain writes.
    if watchtower is not None and watchtower.enabled:
        recorder = watchtower.recorder
    else:
        recorder = Recorder()
    chain = make_chain(network, seed=seed, recorder=recorder)
    with profiler.installed(chain.queue.clock) if profiler is not None else nullcontext():
        _run_traced_workload(
            chain, recorder, user_count, reward, sample_every, population,
            batch_size=batch_size, watchtower=watchtower,
        )
    return reconstruct_journeys(recorder), recorder


def _traced_request(system, recorder, name, witness, index, sample_every):
    """One prover's proof request, muted when sampled out."""
    from repro.obs.context import MUTED_CONTEXT

    if sample_every > 1 and index % sample_every:
        # Muted journey: the request span roots under MUTED_CONTEXT,
        # and the mute rides the journey linkage through submit,
        # every tx/op span and the verify span.
        with recorder.activate(MUTED_CONTEXT):
            return system.request_location_proof(name, witness, f"report by {name}".encode())
    return system.request_location_proof(name, witness, f"report by {name}".encode())


#: traced-campaign groups per column of the placement grid
GROUPS_PER_COLUMN = 4_000


def group_position(group: int) -> tuple[float, float]:
    """Where the traced campaign's group ``group`` stands (lat, lng).

    Groups step 0.01 degrees (~1.1 km) north of Bologna, so each has
    its own OLC cell and contract.  Every ``GROUPS_PER_COLUMN`` groups
    the column steps 0.01 degrees east and restarts at the base
    latitude, which keeps a 100k-user run below 85 degrees north;
    groups in the first column keep the single-column placement.
    """
    column, row = divmod(group, GROUPS_PER_COLUMN)
    return 44.4949 + 0.01 * row, 11.3426 + 0.01 * column


def _run_traced_workload(
    chain, recorder, user_count, reward, sample_every, population, batch_size=None,
    watchtower=None,
) -> None:
    """The traced campaign body (profiled window of ``run_traced_journeys``).

    Provers are grouped ``per_group`` to a location, each group with
    its own witness.  The two schedules differ only in how non-creator
    members are routed:

    - unbatched (four per location): every prover's proof rides one
      pipelined ``submit_many`` wave and is verified on chain;
    - batched (``batch_size`` per location): only each group's creator
      submits (its deploy makes the contract live), while the members'
      proofs are verifier-checked off-chain by a
      :class:`~repro.core.batch.BatchAggregator`, anchored by one
      ``insert_batch`` transaction per group, and light-verified
      against the anchored root.
    """
    from repro.core.batch import BatchAggregator
    from repro.core.proof import ProofFailure
    from repro.core.system import ProofOfLocationSystem
    from repro.obs.monitor import NULL_WATCHTOWER

    batched = batch_size is not None and batch_size >= 2
    per_group = batch_size if batched else USERS_PER_CONTRACT
    users = user_count
    if batched:
        # Whole groups only: a remainder group could never fill its
        # contract's seats, stranding it in the attach phase.
        users = max(batch_size, user_count - user_count % batch_size)
        if users != user_count:
            recorder.counter("batch_users_trimmed_total", user_count - users)
    system = ProofOfLocationSystem(
        chain=chain, reward=reward, max_users=per_group,
        watchtower=watchtower if watchtower is not None else NULL_WATCHTOWER,
    )
    if population:
        system.use_population_store()
    funding = chain.profile.simulation_funding
    for group in range((users + per_group - 1) // per_group):
        # The group's witness sits ~16 m east, inside Bluetooth range.
        latitude, longitude = group_position(group)
        system.register_witness(f"witness-{group}", latitude, longitude + 0.0002)
    # The verifier pays contract funding plus gas for one verify per
    # user; scale its faucet with the population (a fixed stipend runs
    # dry around a few thousand users).
    system.register_verifier("verifier", funding=funding * max(1, users))
    names = [f"user-{index:03d}" for index in range(users)]
    for index, name in enumerate(names):
        system.register_prover(name, *group_position(index // per_group), funding=funding)

    def prove(index: int):
        request, proof, _cid = _traced_request(
            system, recorder, names[index], f"witness-{index // per_group}", index, sample_every
        )
        return names[index], request, proof

    on_chain = [prove(index) for index in range(0, users, per_group if batched else 1)]
    outcomes = system.submit_many(on_chain)
    batches = []
    if batched:
        # The size trigger fires exactly when a group's last member is
        # accepted; the age and shutdown triggers are no-ops here.
        aggregator = BatchAggregator(system, "verifier", batch_size=batch_size - 1)
        for index in range(users):
            if index % per_group:
                outcome, _batch = system.submit_batched(*prove(index), aggregator)
                if outcome is not ProofFailure.OK:
                    raise RuntimeError(f"batched submission rejected for {names[index]}: {outcome.name}")
        aggregator.poll()
        aggregator.flush_all()
        batches = aggregator.drain()

    per_location: dict[str, int] = {}
    for outcome in outcomes:
        per_location[outcome.olc] = per_location.get(outcome.olc, 0) + 1
    # Funding and verification are pipelined waves like the submission
    # phase: serially, each call blocks for its own confirmation and the
    # verify loop alone is one consensus round trip per user.
    system.fund_contracts(
        "verifier", {olc: reward * per_location[olc] for olc in sorted(per_location)}
    )
    system.verify_many(
        "verifier",
        [
            (outcome.olc, system.provers[name].did_uint)
            for (name, _request, _proof), outcome in zip(on_chain, outcomes)
        ],
    )
    failures = [f for f in system.light_verify_many("verifier", batches) if f is not ProofFailure.OK]
    if failures:
        raise RuntimeError(f"{len(failures)} batched records failed light verification")
