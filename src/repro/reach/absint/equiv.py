"""Cross-backend equivalence: differential replay of both artifacts.

For every entry point, the emitted EVM code and the TEAL program run
over a shared family of IR-derived vectors -- fresh state, active
phase, seeded Map entries, wrong phase, pay mismatch, zero balance,
extreme uints -- and their *observable* outcomes are diffed: accept or
reject, scalar state, Map entries, outgoing value transfers, emitted
events, and the return value, all canonically encoded so connector
representation differences (ints vs. ``itob`` bytes, boxes vs. hashed
storage slots) never count as divergence.

Each vector is a starting :class:`MCState` plus one
:class:`ActionTemplate`, replayed on the model checker's backend models
(:mod:`repro.reach.absint.modelcheck.exec`), so equivalence and the
protocol sweep execute the artifacts through one executor and one
storage layout.

Any disagreement is a compile error (:class:`BackendDivergence`): the
two backends would put real users in different states for the same
call.  Results are cached by artifact content, so recompiling the same
contract costs one dictionary lookup.

:func:`drop_teal_store` and :func:`neutralize_evm_sstore` build
seeded-fault artifacts for testing that the check actually catches
lost writes.
"""

from __future__ import annotations

from typing import Any

from repro.chain.ethereum.evm import EvmCode, Instr
from repro.reach.absint.domains import U64_MAX
from repro.reach.absint.encode import artifact_key, canon, scalar_names
from repro.reach.absint.modelcheck.exec import (
    GENESIS,
    BackendModel,
    Events,
    MCState,
    StepResult,
    make_models,
)
from repro.reach.absint.modelcheck.universe import (
    CREATOR,
    DEPLOY,
    OTHER,
    ActionTemplate,
    Universe,
    action_kind,
)
from repro.reach.compiler import CompiledContract
from repro.reach.ir import IRContract, IRFunction

_BALANCE = 1_000_000
_SEEDED_KEYS = (1, 2)
_SEEDED_VALUE = b"OLC9FX"

#: artifact-content hash -> divergence list
_CACHE: dict[bytes, list[str]] = {}

#: one execution vector: (label, state before the call, the call)
_Vector = tuple[str, MCState, ActionTemplate]


# -- vector construction -------------------------------------------------------


def _sample_arg(kind: str, extreme: bool) -> Any:
    if kind == "uint":
        return U64_MAX if extreme else 5
    if kind == "address":
        return OTHER
    return b"did:sample:42"


def _make_args(function: IRFunction, extreme: bool = False) -> tuple[Any, ...]:
    return tuple(_sample_arg(kind, extreme) for kind in function.params)


def _vectors_for(function: IRFunction, ir: IRContract) -> list[_Vector]:
    if function.name == "constructor":
        return [("create", GENESIS, DEPLOY)]

    base_globals = [("_creator", CREATOR), ("_deadline", 100)]
    for gname, initial in ir.globals_init.items():
        base_globals.append((gname, initial))
    active_globals = [("_creator", CREATOR), ("_deadline", 100)]
    for gname, initial in ir.globals_init.items():
        active_globals.append((gname, 3 if isinstance(initial, int) else initial))
    seeded = tuple(
        ((slot, key), _SEEDED_VALUE)
        for slot in sorted(ir.map_slots.values())
        for key in _SEEDED_KEYS
    )

    phase = function.phase if function.phase is not None else 0
    args = _make_args(function)
    pay = function.pay_index
    value = args[pay] if pay is not None else 0
    # Timeouts require NOW >= _deadline; APIs don't care, so one late
    # timestamp serves every entry point.
    timestamp = 5_000

    def vec(
        label: str,
        *,
        caller: str = OTHER,
        value: int = value,
        args: tuple[Any, ...] = args,
        phase: int = phase,
        seed_maps: bool = False,
        balance: int = _BALANCE,
        timestamp: int = timestamp,
        globals_base: list[tuple[str, Any]] | None = None,
    ) -> _Vector:
        scalars = [*(globals_base or base_globals), ("_phase", phase)]
        state = MCState(
            scalars=tuple(sorted(scalars)),
            maps=seeded if seed_maps else (),
            balance=balance,
            now=timestamp,
        )
        action = ActionTemplate(
            name=function.name,
            fn=function.name,
            caller=caller,
            args=args,
            value=value,
            phase=function.phase,
            kind=action_kind(function.name),
        )
        return label, state, action

    caller = CREATOR if function.name == "publish0" else OTHER
    vectors = [
        vec("fresh", caller=caller),
        vec("active", caller=caller, globals_base=active_globals),
        vec("seeded-map", caller=caller, seed_maps=True),
        vec("wrong-phase", caller=caller, phase=phase + 1),
        vec("zero-balance", caller=caller, balance=0),
    ]
    if function.name == "publish0":
        vectors.append(vec("not-creator", caller=OTHER))
    if pay is not None:
        vectors.append(vec("pay-mismatch", caller=caller, value=value + 1))
    if any(kind == "uint" for kind in function.params):
        extreme = _make_args(function, extreme=True)
        extreme_value = extreme[pay] if pay is not None else 0
        vectors.append(vec("extreme-uint", caller=caller, args=extreme, value=extreme_value))
    if function.name.startswith("timeout_"):
        vectors.append(vec("before-deadline", caller=caller, timestamp=50))
    return vectors


def _candidate_keys(action: ActionTemplate) -> list[int]:
    keys = [key for key in action.args if isinstance(key, int)]
    keys.extend(_SEEDED_KEYS)
    return sorted(set(keys))


# -- the check -----------------------------------------------------------------


def _status(result: StepResult) -> str:
    if result.status == "machine-error":
        return f"machine-error: {result.error}"
    return result.status


def _observed(model: BackendModel, result: StepResult, fn: str) -> tuple[Events, bytes | None]:
    """Canonical (events, return value) of one accepted call."""
    events, ret = model.observe(result, fn)
    return (
        tuple((name, tuple(canon(item) for item in payload)) for name, payload in events),
        None if ret is None else canon(ret),
    )


def _diff(
    ir: IRContract,
    models: tuple[BackendModel, BackendModel],
    label: str,
    action: ActionTemplate,
    results: tuple[StepResult, StepResult],
) -> list[str]:
    where = f"{action.fn} [{label}]"
    evm, avm = results
    if _status(evm) != _status(avm):
        return [f"{where}: EVM {_status(evm)} but AVM {_status(avm)}"]
    if evm.status != "ok":
        return []
    problems = []
    for gname in scalar_names(ir):
        evm_value = canon(evm.state.scalar(gname))
        avm_value = canon(avm.state.scalar(gname))
        if evm_value != avm_value:
            problems.append(
                f"{where}: global {gname!r} differs (EVM {evm_value!r}, AVM {avm_value!r})"
            )
    for slot in ir.map_slots.values():
        for key in _candidate_keys(action):
            evm_entry, avm_entry = (
                None if raw is None else canon(raw)
                for raw in (evm.state.map_value(slot, key), avm.state.map_value(slot, key))
            )
            if evm_entry != avm_entry:
                problems.append(
                    f"{where}: map entry {(slot, key)} differs "
                    f"(EVM {evm_entry!r}, AVM {avm_entry!r})"
                )
    if evm.transfers != avm.transfers:
        problems.append(
            f"{where}: transfers differ (EVM {evm.transfers}, AVM {avm.transfers})"
        )
    (evm_events, evm_ret), (avm_events, avm_ret) = (
        _observed(model, result, action.fn) for model, result in zip(models, results)
    )
    if evm_events != avm_events:
        problems.append(f"{where}: events differ (EVM {evm_events}, AVM {avm_events})")
    if evm_ret != avm_ret:
        problems.append(f"{where}: return value differs (EVM {evm_ret!r}, AVM {avm_ret!r})")
    return problems


def check_equivalence(compiled: CompiledContract) -> list[str]:
    """Replay shared vectors on both backend models; return divergence messages."""
    cache_key = artifact_key(compiled)
    if cache_key in _CACHE:
        return _CACHE[cache_key]
    ir = compiled.ir
    vectors = [vector for function in ir.functions.values() for vector in _vectors_for(function, ir)]
    # The models snapshot every Map key any vector can observe; each
    # vector then compares only its own candidate keys.
    keys = sorted({key for _label, _state, action in vectors for key in _candidate_keys(action)})
    models = make_models(compiled, Universe(templates=(), keys=tuple(keys)))
    divergences: list[str] = []
    for label, state, action in vectors:
        results = (models[0].step(state, action), models[1].step(state, action))
        divergences.extend(_diff(ir, models, label, action, results))
    _CACHE[cache_key] = divergences
    return divergences


# -- seeded-fault helpers (for tests and the lint CLI) -------------------------


def drop_teal_store(teal_source: str, n: int = 0) -> str:
    """Remove the ``n``-th store instruction from a TEAL artifact.

    Models a miscompiled backend losing a state write; the equivalence
    check must flag the result.
    """
    lines = teal_source.splitlines()
    seen = 0
    for index, line in enumerate(lines):
        if line.strip() in ("app_global_put", "box_put"):
            if seen == n:
                del lines[index]
                return "\n".join(lines) + "\n"
            seen += 1
    raise ValueError(f"artifact has no store instruction #{n}")


def neutralize_evm_sstore(code: EvmCode, n: int = 0) -> EvmCode:
    """Replace the ``n``-th SSTORE with a JUMPDEST (indices preserved)."""
    instrs = list(code.instrs)
    seen = 0
    for index, instr in enumerate(instrs):
        if instr.op == "SSTORE":
            if seen == n:
                instrs[index] = Instr("JUMPDEST")
                return EvmCode(
                    instrs=instrs, methods=dict(code.methods), init_entry=code.init_entry
                )
            seen += 1
    raise ValueError(f"artifact has no SSTORE #{n}")
