"""Deterministic stage profiling: where does the kernel's wall-clock go?

The benchmark trajectory (``BENCH_pol.json``) records *that* a 10k-user
campaign took N kernel seconds; this module records *where* those
seconds went.  The kernel knows nothing of it: :data:`STAGES` is one
table of named **stages**, each a list of ``"module:Class.method"`` or
``"module:function"`` targets, and :meth:`Profiler.installed` wraps
every target for the duration of a ``with`` block and restores the
originals on exit.  A wrapped call enters its stage on the
:class:`Profiler`, which attributes **self time** (elapsed minus time
spent in nested stages) on two axes:

- **wall-clock nanoseconds** (``time.perf_counter_ns``) -- the quantity
  perf work optimises and the regression gate (:mod:`repro.obs.regress`)
  watches run over run;
- **simulated seconds** (the bound :class:`~repro.simnet.clock.SimClock`)
  -- so the stage that *advances* simulation time (``simnet.step``, the
  event queue's pop-and-fire) separates from stages that merely
  *compute* (VM execution, crypto).

A stage marked ``flat`` (the recorder's hot methods, ``obs.recorder``)
is timed with two clock reads and charged through
:meth:`Profiler.add_flat` instead of an enter/exit pair: it never nests
anything, and a pair would double its bookkeeping.

Two properties the rest of the stack relies on:

- **The profiler accounts for itself.**  Every ``enter``/``exit`` takes
  two clock reads; the bookkeeping time between them is charged to the
  distinct ``obs.profiler`` stage and *excluded* from the enclosing
  stage, so instrumentation cost never masquerades as kernel work.
- **Profiling never perturbs the simulation.**  The wrappers only read
  clocks; event ordering, seeded randomness and every simulated result
  are unchanged by profiling.  (EVM fee totals jitter at the ppm level
  run-to-run regardless of profiling -- entropy-backed replay nonces
  ride in calldata -- so compare fees across runs, not profiled vs
  unprofiled within one.)  Outside ``installed`` the targets are the
  plain functions: an unprofiled run takes no profiler branch at all.

Besides flat self-times the profiler retains per-*stack-path* totals,
which export as collapsed stacks (``to_collapsed``, Brendan Gregg's
flamegraph.pl / inferno format), a speedscope profile
(``to_speedscope``, https://www.speedscope.app) and a synthetic Chrome
trace icicle (``to_profile_chrome_trace``).

``REPRO_PROF_HANDICAP="stage:+2.0"`` (add seconds) or
``"stage:x3"`` (multiply) inflates one stage's reported wall time at
:meth:`Profiler.profile` time.  It exists solely as the CI perf gate's
self-check -- a synthetic regression that must trip ``repro bench
diff`` -- and is recorded in the profile so a handicapped run is never
mistaken for a real measurement.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter_ns
from typing import Any, Callable, Iterator, NamedTuple

__all__ = [
    "STAGES",
    "Profiler",
    "Stage",
    "to_collapsed",
    "to_profile_chrome_trace",
    "to_speedscope",
    "write_collapsed",
    "write_speedscope",
]

#: the handicap environment variable (CI gate self-check; see module doc).
HANDICAP_ENV = "REPRO_PROF_HANDICAP"


class Stage(NamedTuple):
    """One profiled stage: its name and the callables it wraps."""

    name: str
    targets: tuple[str, ...]  # "module:Class.method" or "module:function"
    flat: bool = False  # timed via add_flat, never an enter/exit pair


_SYSTEM = "repro.core.system:ProofOfLocationSystem."
_BATCH = "repro.core.batch:BatchAggregator."
_CHAIN = "repro.chain.base:BaseChain."
_DHT = "repro.dht.hypercube:HypercubeDHT."
_RECORDER = "repro.obs.recorder:Recorder."

#: every profiled stage, outermost layers first.  A subclass override
#: of a wrapped method (``ConfluxChain._execute``) is not listed: its
#: ``super()`` call lands in the stage once, its own work in the caller.
STAGES = (
    Stage("core.onboard", tuple(_SYSTEM + m for m in ("register_prover", "register_witness", "register_verifier"))),
    Stage("core.prove", (_SYSTEM + "request_location_proof",)),
    Stage("core.submit", (_SYSTEM + "submit_many", _SYSTEM + "submit_batched",
                          _BATCH + "poll", _BATCH + "flush_all", _BATCH + "drain")),
    Stage("core.verify", (_SYSTEM + "fund_contracts", _SYSTEM + "verify_many", _SYSTEM + "light_verify_many")),
    Stage("reach.compile", ("repro.reach.compiler:compile_program",)),
    Stage("reach.lint", ("repro.reach.compiler:CompiledContract.lint_report",)),
    Stage("simnet.step", ("repro.simnet.events:EventQueue.step",)),
    Stage("chain.service", ("repro.chain.service:ChainService.submit",)),
    Stage("chain.submit", (_CHAIN + "submit",)),
    Stage("chain.block", (_CHAIN + "_produce_block",)),
    Stage("chain.confirm", (_CHAIN + "_notify_confirmed",)),
    Stage("mempool.schedule", (_CHAIN + "_schedule_ready",)),
    Stage("vm.execute", ("repro.chain.ethereum.chain:EthereumChain._execute",
                         "repro.chain.algorand.chain:AlgorandChain._execute")),
    Stage("crypto.sign", ("repro.crypto.keys:KeyPair.sign",)),
    Stage("crypto.verify", ("repro.crypto.keys:PublicKey.verify",)),
    Stage("crypto.comb", ("repro.crypto.fastexp:g_pow",)),
    Stage("crypto.modexp", ("repro.crypto.fastexp:p_pow",)),
    Stage("dht", tuple(_DHT + m for m in ("lookup", "register_contract", "append_cid"))),
    Stage("obs.recorder", tuple(_RECORDER + m for m in ("_gauge_set", "_observe_key", "span")), flat=True),
)


def _resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a ``module:Class.method`` / ``module:function`` target."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *classes, attr = qualname.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if not callable(vars(owner).get(attr)):
        raise TypeError(f"profile target {target} is not a function defined there")
    return owner, attr


def _by_name_copies(attr: str, function: Any) -> list[Any]:
    """Every loaded ``repro`` module holding ``function`` under ``attr``.

    A function imported by name (``from repro.crypto.fastexp import
    g_pow``) is a separate reference in the importing module; each must
    be patched for its callers to reach the wrapper.
    """
    return [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro" and getattr(module, attr, None) is function
    ]


class Profiler:
    """Self-time stage accounting for one kernel run.

    Strict stack discipline: every :meth:`enter` is balanced by one
    :meth:`exit` (the stage wrappers use ``try/finally``).  A frame
    records its start on both clocks plus the time its *children*
    consumed; at exit the difference is the stage's self time, so stage
    self-times tile the profiled window exactly (plus the explicit
    ``obs.profiler`` overhead and the unattributed remainder).
    """

    def __init__(self, clock: Any | None = None):
        self.clock = clock
        #: frames: [stage, wall_start, wall_child, sim_start, sim_child, path]
        self._stack: list[list[Any]] = []
        self._wall_ns: dict[str, int] = {}
        self._sim_s: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        #: collapsed-stack totals: path tuple -> self wall ns
        self._paths: dict[tuple[str, ...], int] = {}
        self._overhead_ns = 0
        self._overhead_calls = 0
        self._flat_calls: dict[str, int] = {}
        self._started_ns: int | None = None
        self._started_sim: float = 0.0
        self._total_ns = 0
        self._total_sim = 0.0

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self, clock: Any | None = None) -> Iterator["Profiler"]:
        """Profile the ``with`` body: wrap every :data:`STAGES` target.

        Binds ``clock`` for sim-time attribution, wraps each target
        (and every by-name copy of a wrapped function), then opens the
        profiled window; on exit -- normal or through an exception --
        closes the window and puts every original back.
        """
        self.bind_clock(clock)
        resolved = [(stage, _resolve(target)) for stage in STAGES for target in stage.targets]
        undo: list[tuple[Any, str, Any]] = []
        wrapped: list[tuple[str, Any, Any]] = []
        try:
            for stage, (owner, attr) in resolved:
                original = vars(owner)[attr]
                wrapper = self._wrap(stage, original)
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                wrapped.append((attr, original, wrapper))
                for module in _by_name_copies(attr, original):
                    setattr(module, attr, wrapper)
            self.start()
            try:
                yield self
            finally:
                self.stop()
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
            # Swept rather than replayed: a module first imported inside
            # the window copied the wrapper and must get the original too.
            for attr, original, wrapper in wrapped:
                for module in _by_name_copies(attr, wrapper):
                    setattr(module, attr, original)

    def _wrap(self, stage: Stage, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` timed as ``stage`` on this profiler."""
        name = stage.name
        if stage.flat:
            add_flat = self.add_flat

            def timed(*args: Any, **kwargs: Any) -> Any:
                t0 = perf_counter_ns()
                result = function(*args, **kwargs)
                add_flat(name, perf_counter_ns() - t0)
                return result

            return update_wrapper(timed, function)
        enter = self.enter
        exit_ = self.exit

        def staged(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                return function(*args, **kwargs)
            finally:
                exit_()

        return update_wrapper(staged, function)

    # -- clocks ---------------------------------------------------------------

    def bind_clock(self, clock: Any) -> None:
        """Adopt ``clock`` for sim-time attribution (first binding wins)."""
        if self.clock is None:
            self.clock = clock

    def _sim_now(self) -> float:
        clock = self.clock
        return clock.now if clock is not None else 0.0

    # -- profiled window ------------------------------------------------------

    def start(self) -> None:
        """Open the profiled window (idempotent; total = start..stop)."""
        if self._started_ns is None:
            self._started_ns = perf_counter_ns()
            self._started_sim = self._sim_now()

    def stop(self) -> None:
        """Close the profiled window, folding it into the totals."""
        if self._started_ns is None:
            return
        self._total_ns += perf_counter_ns() - self._started_ns
        self._total_sim += self._sim_now() - self._started_sim
        self._started_ns = None

    # -- stage accounting -----------------------------------------------------

    def enter(self, stage: str) -> None:
        """Open ``stage``; nested stages subtract from its self time."""
        t0 = perf_counter_ns()
        stack = self._stack
        path = (stack[-1][5] + (stage,)) if stack else (stage,)
        sim = self._sim_now()
        t1 = perf_counter_ns()
        bookkeeping = t1 - t0
        self._overhead_ns += bookkeeping
        self._overhead_calls += 1
        if stack:
            stack[-1][2] += bookkeeping  # parent must not absorb our cost
        stack.append([stage, t1, 0, sim, 0.0, path])

    def exit(self) -> None:
        """Close the innermost stage, attributing its self time."""
        t0 = perf_counter_ns()
        stage, wall_start, wall_child, sim_start, sim_child, path = self._stack.pop()
        wall_elapsed = t0 - wall_start
        self_ns = wall_elapsed - wall_child
        self._wall_ns[stage] = self._wall_ns.get(stage, 0) + self_ns
        self._paths[path] = self._paths.get(path, 0) + self_ns
        self._calls[stage] = self._calls.get(stage, 0) + 1
        sim_elapsed = self._sim_now() - sim_start
        if sim_elapsed:
            self._sim_s[stage] = self._sim_s.get(stage, 0.0) + sim_elapsed - sim_child
        t1 = perf_counter_ns()
        bookkeeping = t1 - t0
        self._overhead_ns += bookkeeping
        self._overhead_calls += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += wall_elapsed + bookkeeping
            parent[4] += sim_elapsed

    def add_flat(self, stage: str, wall_ns: int) -> None:
        """Attribute ``wall_ns`` directly to ``stage`` (no nesting).

        A ``flat`` stage's wrapper (the recorder's hot methods) charges
        each call's cost here; the enclosing stack frame is credited so
        the caller's self time excludes it -- exactly the "distinct
        stage, not the caller's" rule the overhead stage follows.
        """
        self._wall_ns[stage] = self._wall_ns.get(stage, 0) + wall_ns
        self._paths[(stage,)] = self._paths.get((stage,), 0) + wall_ns
        self._flat_calls[stage] = self._flat_calls.get(stage, 0) + 1
        if self._stack:
            self._stack[-1][2] += wall_ns

    # -- results --------------------------------------------------------------

    def profile(self) -> dict[str, Any]:
        """The JSON-shaped per-stage breakdown of the profiled window.

        ``stages`` maps stage name to self wall seconds, self simulated
        seconds and call count; ``obs.profiler`` appears as its own
        stage carrying the measured enter/exit bookkeeping.  Self times
        plus the unattributed remainder sum to ``total_wall_seconds``
        (within clock resolution) -- the reconciliation the scale tests
        assert.
        """
        if self._started_ns is not None:  # profile() of a still-open window
            now = perf_counter_ns()
            total_ns = self._total_ns + (now - self._started_ns)
            total_sim = self._total_sim + (self._sim_now() - self._started_sim)
        else:
            total_ns = self._total_ns
            total_sim = self._total_sim
        handicap = os.environ.get(HANDICAP_ENV, "")
        stages: dict[str, dict[str, Any]] = {}
        accounted_ns = 0
        for stage in sorted(set(self._wall_ns) | set(self._sim_s)):
            wall_ns = self._wall_ns.get(stage, 0)
            accounted_ns += wall_ns
            wall_s = wall_ns / 1e9
            if handicap:
                wall_s = _apply_handicap(handicap, stage, wall_s)
            stages[stage] = {
                "wall_seconds": round(wall_s, 6),
                "sim_seconds": round(self._sim_s.get(stage, 0.0), 6),
                "calls": self._calls.get(stage, 0) + self._flat_calls.get(stage, 0),
            }
        stages["obs.profiler"] = {
            "wall_seconds": round(self._overhead_ns / 1e9, 6),
            "sim_seconds": 0.0,
            "calls": self._overhead_calls,
        }
        accounted_ns += self._overhead_ns
        unattributed_ns = max(total_ns - accounted_ns, 0)
        overhead_ratio = (self._overhead_ns / total_ns) if total_ns else 0.0
        return {
            "total_wall_seconds": round(total_ns / 1e9, 6),
            "total_sim_seconds": round(total_sim, 6),
            "unattributed_wall_seconds": round(unattributed_ns / 1e9, 6),
            "profiler_overhead_seconds": round(self._overhead_ns / 1e9, 6),
            "profiler_overhead_ratio": round(overhead_ratio, 6),
            "stages": stages,
            "handicap": handicap or None,
        }

    def path_totals(self) -> dict[tuple[str, ...], int]:
        """Self wall ns per stack path (the flamegraph's raw material)."""
        return dict(self._paths)


def _apply_handicap(spec: str, stage: str, wall_s: float) -> float:
    """Apply a ``stage:+secs`` / ``stage:xFACTOR`` handicap to one stage."""
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause or ":" not in clause:
            continue
        name, _, amount = clause.partition(":")
        if name.strip() != stage:
            continue
        amount = amount.strip()
        try:
            if amount.startswith("x"):
                return wall_s * float(amount[1:])
            if amount.startswith("+"):
                return wall_s + float(amount[1:])
        except ValueError:
            continue
    return wall_s


# -- exports -------------------------------------------------------------------


def to_collapsed(profiler: Profiler) -> str:
    """Collapsed-stack lines: ``root;child <self microseconds>``.

    The format flamegraph.pl / inferno / speedscope all ingest; one line
    per unique stack path, weight in integer microseconds.
    """
    lines = []
    for path, self_ns in sorted(profiler.path_totals().items()):
        micros = self_ns // 1_000
        if micros <= 0:
            continue
        lines.append(f"{';'.join(path)} {micros}")
    overhead = profiler._overhead_ns // 1_000
    if overhead > 0:
        lines.append(f"obs.profiler {overhead}")
    return "\n".join(lines) + "\n"


def write_collapsed(profiler: Profiler, path: str) -> None:
    """Write the collapsed-stack flamegraph input to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_collapsed(profiler))


def to_speedscope(profiler: Profiler, name: str = "repro kernel profile") -> dict[str, Any]:
    """A speedscope ``sampled`` profile: one weighted sample per path.

    Open the JSON at https://www.speedscope.app (fully client-side) for
    the interactive flamegraph / sandwich views.
    """
    frame_index: dict[str, int] = {}
    frames: list[dict[str, str]] = []

    def frame(stage: str) -> int:
        known = frame_index.get(stage)
        if known is None:
            known = frame_index[stage] = len(frames)
            frames.append({"name": stage})
        return known

    samples: list[list[int]] = []
    weights: list[int] = []
    paths = dict(profiler.path_totals())
    if profiler._overhead_ns:
        paths[("obs.profiler",)] = paths.get(("obs.profiler",), 0) + profiler._overhead_ns
    for path, self_ns in sorted(paths.items()):
        if self_ns <= 0:
            continue
        samples.append([frame(stage) for stage in path])
        weights.append(self_ns)
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "nanoseconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro.obs.prof",
        "name": name,
        "activeProfileIndex": 0,
    }


def write_speedscope(profiler: Profiler, path: str, name: str = "repro kernel profile") -> None:
    """Write the speedscope profile JSON to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_speedscope(profiler, name=name), handle, separators=(",", ":"))
        handle.write("\n")


def to_profile_chrome_trace(profiler: Profiler) -> dict[str, Any]:
    """A synthetic Chrome-trace icicle of the aggregated profile.

    Real spans live on the recorder's *simulated* timeline; this export
    instead lays the aggregated stage tree out on a synthetic wall-clock
    axis (each path's subtree occupies a contiguous interval sized by
    its inclusive time), which Perfetto and speedscope both render as a
    flame chart.  Timestamps are microseconds of *attributed* time, not
    moments anything happened.
    """
    paths = profiler.path_totals()
    # Inclusive time of every prefix: self time of the path plus all
    # descendants'.
    inclusive: dict[tuple[str, ...], int] = {}
    for path, self_ns in paths.items():
        for depth in range(1, len(path) + 1):
            prefix = path[:depth]
            inclusive[prefix] = inclusive.get(prefix, 0) + self_ns
    events: list[dict[str, Any]] = [
        {"ph": "M", "pid": 1, "tid": 1, "name": "process_name", "args": {"name": "repro kernel profile (aggregated)"}},
    ]
    cursors: dict[tuple[str, ...], int] = {(): 0}
    for path in sorted(inclusive):
        parent = path[:-1]
        start = cursors.get(parent, 0)
        duration = inclusive[path] // 1_000
        events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "name": path[-1],
                "cat": "profile",
                "ts": start,
                "dur": duration,
                "args": {"self_us": paths.get(path, 0) // 1_000},
            }
        )
        cursors[parent] = start + duration
        cursors[path] = start
    return {"traceEvents": events, "displayTimeUnit": "ms"}
