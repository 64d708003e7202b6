"""Backend execution models: the static analyser's one executor.

Neither the model checker nor the equivalence check interprets the IR
abstractly -- both run the *emitted artifacts* through these models, on
the same EVM and AVM implementations production traffic uses, so a
theorem proved here is a theorem about the code that ships.  This is
the one module that calls the VMs and knows the contract-storage
layout (``g:<name>`` scalar keys, hashed EVM Map slots, ``m<slot>:``
AVM boxes).  Each model wraps one backend behind a tiny interface:

- :meth:`deploy` runs the constructor and returns the initial state (a
  reverting constructor is a ``rejected`` result, not an exception);
- :meth:`step` applies one :class:`ActionTemplate` to a state and
  reports accept/reject plus the successor and the value transfers;
- :meth:`observe` decodes a result's events and return value, which
  only the equivalence check compares, so the sweep never pays for it;
- :meth:`digest` hashes a state canonically, via
  :mod:`repro.reach.absint.encode`, so the same protocol state produces
  the same digest on both backends (the cross-backend state-space
  equality check rides on this).

States are immutable snapshots (:class:`MCState`): each call loads its
state into a fresh contract or application store, the VM's write set
lands in that call's own store, and the successor is snapshotted out
of it, so the explorer can fan a state out over every enabled action.
The TEAL artifact is assembled exactly once per model -- assembly
dominates AVM call cost by ~3x, and a checking run makes thousands of
calls.  For the same reason each model builds two tables once, over
the contract's Map slots and the universe's keys: the ``(slot, key)``
-> store key table (a sha256-hashed EVM slot or an AVM box name) that
every load and snapshot reads, and the ``state_digest`` field prefix
of every scalar and Map entry that every digest reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.chain.algorand.avm import AVM, Application, AvmError, AvmPanic, CallContext
from repro.chain.algorand.teal import TealSyntaxError, assemble
from repro.chain.ethereum.evm import EVM, EvmContract, VMError, VMRevert
from repro.reach.absint.encode import canon, is_absent, state_digest, uint_of
from repro.reach.absint.encode import avm_box_key, evm_map_key, map_field, scalar_field, scalar_names
from repro.reach.absint.modelcheck.universe import (
    CREATOR,
    DEPLOY,
    GENESIS_NOW,
    ActionTemplate,
    Universe,
)
from repro.reach.ir import IRContract

_APP_ADDRESS = "0x" + "aa" * 20
_GAS_LIMIT = 1_000_000_000

#: decoded events: ``(name, payload)`` pairs in emission order
Events = tuple[tuple[str, tuple[Any, ...]], ...]


@dataclass(frozen=True)
class MCState:
    """One immutable protocol state, in backend-native representation.

    ``scalars`` holds every runtime global sorted by name; ``maps``
    holds only *present* entries, sorted by (slot, key).  ``balance``
    and ``now`` live outside the VM stores: the VMs treat both as
    per-call inputs, so the checker owns them.
    """

    scalars: tuple[tuple[str, object], ...]
    maps: tuple[tuple[tuple[int, int], object], ...]
    balance: int
    now: int

    def scalar(self, name: str) -> object:
        for key, value in self.scalars:
            if key == name:
                return value
        return 0

    def phase(self) -> int:
        return uint_of(self.scalar("_phase"))

    def deadline(self) -> int:
        return uint_of(self.scalar("_deadline"))

    def map_value(self, slot: int, key: int) -> object | None:
        for entry_key, value in self.maps:
            if entry_key == (slot, key):
                return value
        return None

    def with_clock(self, now: int) -> "MCState":
        return MCState(scalars=self.scalars, maps=self.maps, balance=self.balance, now=now)


#: the empty pre-deploy state the constructor runs on
GENESIS = MCState(scalars=(), maps=(), balance=0, now=GENESIS_NOW)


@dataclass(frozen=True)
class StepResult:
    """Observable outcome of applying one action to one state."""

    status: str  # "ok" | "rejected" | "machine-error"
    state: MCState  # the successor (== the input state unless "ok")
    transfers: tuple[tuple[str, int], ...] = ()
    error: str = ""
    #: the call's log records and return value exactly as the VM produced
    #: them; :meth:`BackendModel.observe` decodes them on demand, so the
    #: sweep never pays for decoding
    logs: tuple[Any, ...] = ()
    returned: object = None

    @property
    def paid_out(self) -> int:
        return sum(amount for _to, amount in self.transfers)


class BackendModel:
    """Shared state plumbing; subclasses supply the VM call."""

    backend = "?"

    def __init__(self, ir: IRContract, universe: Universe):
        self.ir = ir
        self.universe = universe
        #: scalar name -> its ``g:<name>`` store key, in sorted name order
        self._keys = {name: b"g:" + name.encode() for name in sorted(scalar_names(ir))}
        #: every Map entry the universe can reach, in (slot, key) order
        #: -> its backend store key (a hashed EVM slot or an AVM box
        #: name): built once, read by every load and snapshot
        self._store_keys = {
            (slot, key): self._store_key(slot, key)
            for slot in sorted(ir.map_slots.values())
            for key in universe.keys
        }
        #: scalar name or (slot, key) -> its :func:`state_digest` prefix
        self._prefixes: dict[object, bytes] = {name: scalar_field(name) for name in self._keys}
        self._prefixes.update((entry, map_field(*entry)) for entry in self._store_keys)
        self._returning = {name for name, fn in ir.functions.items() if fn.ret_kind is not None}

    @staticmethod
    def _store_key(slot: int, key: int) -> bytes:
        """Where the backend stores Map ``slot`` at ``key``."""
        raise NotImplementedError

    # -- subclass surface ----------------------------------------------------

    def _execute(self, state: MCState, template: ActionTemplate) -> StepResult:
        raise NotImplementedError

    def observe(self, result: StepResult, fn: str) -> tuple[Events, object]:
        """The (events, return value) of one call of ``fn``, backend-native.

        Events are ``(name, payload)`` pairs in emission order; the
        return value is None unless ``fn`` declares one.
        """
        raise NotImplementedError

    # -- common --------------------------------------------------------------

    def deploy(self) -> StepResult:
        """Run the constructor from the empty genesis state.

        A constructor that reverts or faults comes back as a
        ``rejected``/``machine-error`` result, like any other call.
        """
        return self._execute(GENESIS, DEPLOY)

    def step(self, state: MCState, template: ActionTemplate) -> StepResult:
        if template.kind == "clock":
            deadline = state.deadline()
            if state.now > deadline:
                return StepResult(status="rejected", state=state, error="clock already past deadline")
            return StepResult(status="ok", state=state.with_clock(deadline + 1))
        return self._execute(state, template)

    def digest(self, state: MCState) -> bytes:
        prefixes = self._prefixes
        return state_digest(
            [
                prefixes[field] + (value if type(value) is bytes else canon(value))
                for field, value in (*state.scalars, *state.maps)
            ],
            state.balance,
            state.now,
        )

    def _snapshot(
        self,
        globals_: Mapping[bytes, object],
        maps_store: Mapping[bytes, object],
        balance: int,
        now: int,
    ) -> MCState:
        """Assemble an MCState from a global store and a Map store."""
        scalars = tuple((name, globals_.get(key, 0)) for name, key in self._keys.items())
        maps = []
        for entry, store_key in self._store_keys.items():
            value = maps_store.get(store_key)
            if value is not None and not is_absent(value):
                maps.append((entry, value))
        return MCState(scalars=scalars, maps=tuple(maps), balance=balance, now=now)


class EvmModel(BackendModel):
    """The Ethereum side: emitted EVM code on the gas-metered VM."""

    backend = "evm"

    def __init__(self, compiled, universe: Universe):
        super().__init__(compiled.ir, universe)
        self.code = compiled.evm_code
        self.vm = EVM()

    @staticmethod
    def _store_key(slot: int, key: int) -> bytes:
        return evm_map_key(slot, key)

    def _execute(self, state: MCState, template: ActionTemplate) -> StepResult:
        contract = EvmContract(address=_APP_ADDRESS, code=self.code, creator=CREATOR)
        storage = contract.storage
        for name, value in state.scalars:
            storage[self._keys[name]] = value
        for entry, value in state.maps:
            storage[self._store_keys[entry]] = value
        creating = template.kind == "deploy"
        try:
            result = self.vm.execute(
                contract,
                entry=self.code.init_entry if creating else self.code.methods[template.fn],
                args=list(template.args),
                caller=template.caller,
                value=template.value,
                gas_limit=_GAS_LIMIT,
                block_number=1,
                timestamp=float(state.now),
                self_balance=state.balance,
                intrinsic=0,
            )
        except VMRevert as revert:
            return StepResult(status="rejected", state=state, error=str(revert))
        except VMError as error:
            return StepResult(status="machine-error", state=state, error=str(error))
        # The contract is this call's own copy; overlay the writes in place.
        storage.update(result.storage_writes)
        transfers = tuple(result.transfers)
        paid = sum(amount for _to, amount in transfers)
        successor = self._snapshot(
            storage,
            storage,
            balance=state.balance + template.value - paid,
            now=state.now,
        )
        return StepResult(
            status="ok",
            state=successor,
            transfers=transfers,
            logs=tuple(result.logs),
            returned=result.return_value,
        )

    def observe(self, result: StepResult, fn: str) -> tuple[Events, object]:
        return result.logs, result.returned if fn in self._returning else None


class AvmModel(BackendModel):
    """The Algorand side: assembled TEAL on the budget-metered AVM."""

    backend = "avm"

    def __init__(self, compiled, universe: Universe):
        super().__init__(compiled.ir, universe)
        # Assemble once; reuse across every call of the run.  TEAL that
        # does not assemble fails every call as a machine error.
        try:
            self.program = assemble(compiled.teal_source)
            self.unassembled = ""
        except TealSyntaxError as error:
            self.program = None
            self.unassembled = str(error)
        self.vm = AVM()

    @staticmethod
    def _store_key(slot: int, key: int) -> bytes:
        return avm_box_key(slot, key)

    def _execute(self, state: MCState, template: ActionTemplate) -> StepResult:
        if self.program is None:
            return StepResult(status="machine-error", state=state, error=self.unassembled)
        creating = template.kind == "deploy"
        app_id = 0 if creating else 1
        app = Application(
            app_id=app_id, approval=self.program, creator=CREATOR, address=_APP_ADDRESS
        )
        for name, value in state.scalars:
            app.global_state[self._keys[name]] = value
        for entry, value in state.maps:
            app.boxes[self._store_keys[entry]] = value
        ctx = CallContext(
            sender=template.caller,
            application_id=app_id,
            app_args=[] if creating else [template.fn, *template.args],
            amount=template.value,
            round=1,
            timestamp=float(state.now),
            app_address=_APP_ADDRESS,
            app_balance=state.balance,
            budget_pool=16,
        )
        try:
            result = self.vm.execute(app, ctx)
        except AvmPanic as panic:
            return StepResult(status="rejected", state=state, error=str(panic))
        except AvmError as error:
            return StepResult(status="machine-error", state=state, error=str(error))
        # The application is this call's own copy; commit in place.
        overlay, boxes = app.global_state, app.boxes
        overlay.update(result.global_writes)
        for dead in result.global_deletes:
            overlay.pop(dead, None)
        boxes.update(result.box_writes)
        for dead in result.box_deletes:
            boxes.pop(dead, None)
        transfers = tuple(result.inner_payments)
        paid = sum(amount for _to, amount in transfers)
        successor = self._snapshot(
            overlay,
            boxes,
            balance=state.balance + template.value - paid,
            now=state.now,
        )
        return StepResult(
            status="ok", state=successor, transfers=transfers, logs=tuple(result.logs)
        )

    def observe(self, result: StepResult, fn: str) -> tuple[Events, object]:
        events, ret_log = _parse_avm_logs(result.logs)
        if fn not in self._returning or ret_log is None:
            return events, None
        if self.ir.functions[fn].ret_kind == "uint":
            return events, int.from_bytes(ret_log, "big")
        return events, ret_log


def _parse_avm_logs(logs: tuple[bytes, ...]) -> tuple[Events, bytes | None]:
    """Split app logs into decoded events and the trailing return log."""
    events: list[tuple[str, tuple[Any, ...]]] = []
    ret_log = None
    index = 0
    while index < len(logs):
        entry = logs[index]
        if entry.startswith(b"evt:"):
            name, _, argc_text = entry[4:].decode().rpartition("/")
            argc = int(argc_text)
            # The TEAL lowering logs values top-of-stack first, i.e. in
            # reverse source order.
            payload = tuple(reversed(logs[index + 1 : index + 1 + argc]))
            events.append((name, payload))
            index += 1 + argc
        else:
            ret_log = entry
            index += 1
    return tuple(events), ret_log


def make_models(compiled, universe: Universe) -> tuple[EvmModel, AvmModel]:
    """Both backend models for one compiled contract."""
    return EvmModel(compiled, universe), AvmModel(compiled, universe)
