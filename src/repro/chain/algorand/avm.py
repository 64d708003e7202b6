"""The Algorand Virtual Machine: a stack engine for TEAL programs.

"AVM contains a stack engine that evaluates smart contracts" (thesis
1.4.2.2).  Faithful behaviours:

- stateful applications with global key-value state and box storage
  (the thesis's Reach Map lands in boxes, per its Algorand
  box-storage discussion);
- an opcode budget per application call (panics when exhausted);
- ``assert``/``err`` panics abort the call with no state change;
- inner payment transactions spend from the application account;
- approval = top of stack non-zero at ``return``.

Like the EVM, the interpreter decodes each :class:`TealProgram` once
(cached per program object) into flat ``(op, arg)`` dispatch tuples:
the pushes fold into one op, ``txn``/``global`` fields resolve to
readers, and unknown opcodes or unsupported fields decode to a ``fail``
op that raises their error only when reached.  The loop tests the ops
the deploy gate runs most first and pops the bare stack; every error
message, the order operands are type-checked in, ``ops_used`` and the
point of budget exhaustion are those of a plain per-instruction walk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.crypto.hashing import sha256
from repro.chain.algorand.teal import BRANCH_OPS, ZERO_ARG_OPS, TealInstr, TealProgram

#: Real TEAL has a 700-op budget per app call, pooled across grouped
#: transactions.  The Reach runtime groups budget transactions as needed;
#: we model the pooled ceiling directly.
DEFAULT_OPCODE_BUDGET = 700
MAX_BUDGET_POOL = 16


class AvmError(Exception):
    """Malformed program or stack misuse."""


class AvmPanic(Exception):
    """An ``assert``/``err`` failure or exhausted budget; call rejected."""


@dataclass
class Application:
    """An on-chain stateful application."""

    app_id: int
    approval: TealProgram
    creator: str
    address: str  # the application account that can hold/spend Algos
    global_state: dict[bytes, Any] = field(default_factory=dict)
    boxes: dict[bytes, bytes] = field(default_factory=dict)
    opted_in: set[str] = field(default_factory=set)


@dataclass
class AvmResult:
    """Outcome of an approved application call."""

    approved: bool
    ops_used: int
    logs: list[bytes] = field(default_factory=list)
    global_writes: dict[bytes, Any] = field(default_factory=dict)
    global_deletes: set[bytes] = field(default_factory=set)
    box_writes: dict[bytes, bytes] = field(default_factory=dict)
    box_deletes: set[bytes] = field(default_factory=set)
    inner_payments: list[tuple[str, int]] = field(default_factory=list)
    return_value: Any = None


@dataclass
class CallContext:
    """Fields visible to ``txn``/``global``/``txna`` opcodes."""

    sender: str
    application_id: int
    app_args: list[Any]
    amount: int = 0
    round: int = 0
    timestamp: float = 0.0
    app_address: str = ""
    app_balance: int = 0
    budget_pool: int = 1  # grouped budget transactions (>=1)


#: ``txn``/``global`` field name -> its reader over the call context
_TXN_FIELDS: dict[str, Callable[[CallContext], Any]] = {
    "Sender": lambda ctx: ctx.sender,
    "ApplicationID": lambda ctx: ctx.application_id,
    "NumAppArgs": lambda ctx: len(ctx.app_args),
    "Amount": lambda ctx: ctx.amount,
}
_GLOBAL_FIELDS: dict[str, Callable[[CallContext], Any]] = {
    "Round": lambda ctx: ctx.round,
    "LatestTimestamp": lambda ctx: int(ctx.timestamp),
    "CurrentApplicationID": lambda ctx: ctx.application_id,
    "CurrentApplicationAddress": lambda ctx: ctx.app_address,
    "MinTxnFee": lambda ctx: 1_000,
}
_COMPARISONS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}


def _decode_instr(instr: TealInstr) -> tuple[str, Any]:
    """One instruction as an ``(op, arg)`` dispatch tuple.

    The three pushes become ``push``; ``txn``/``global`` become ``read``
    with their field reader; the four orderings become ``cmp`` with
    their operator.  Unsupported fields and unknown opcodes become
    ``fail`` with the error they raise, once reached.
    """
    op, args = instr.op, instr.args
    if op in ("int", "byte", "addr"):
        return "push", args[0]
    if op in ("txn", "global"):
        reader = (_TXN_FIELDS if op == "txn" else _GLOBAL_FIELDS).get(args[0])
        if reader is None:
            return "fail", f"unsupported {op} field {args[0]}"
        return "read", reader
    if op == "txna":
        fieldname, index = args
        if fieldname != "ApplicationArgs":
            return "fail", f"unsupported txna field {fieldname}"
        return "txna", index
    if op in _COMPARISONS:
        return "cmp", _COMPARISONS[op]
    if op in BRANCH_OPS:
        return op, args[0]
    if op in ZERO_ARG_OPS:
        return op, None
    return "fail", f"unknown opcode {op}"


class AVM:
    """Interprets a :class:`TealProgram` against an :class:`Application`."""

    def __init__(self) -> None:
        #: id(program) -> (program, [(op, arg), ...]); the program ref
        #: keeps the id stable for the life of the cache entry
        self._decoded: dict[int, tuple[TealProgram, list[tuple[str, Any]]]] = {}

    def _decode(self, program: TealProgram) -> list[tuple[str, Any]]:
        """Flatten a program to ``(op, arg)`` dispatch tuples, once.

        Assembled programs are immutable and shared by every call of an
        application, so resolving field names, comparison operators and
        unknown opcodes is paid once per program instead of once per
        instruction executed.
        """
        entry = self._decoded.get(id(program))
        if entry is not None and entry[0] is program:
            return entry[1]
        decoded = [_decode_instr(instr) for instr in program.instrs]
        self._decoded[id(program)] = (program, decoded)
        return decoded

    def execute(self, app: Application, ctx: CallContext) -> AvmResult:
        """Run the approval program; raise :class:`AvmPanic` on rejection."""
        instrs = self._decode(app.approval)
        limit = len(instrs)
        budget = DEFAULT_OPCODE_BUDGET * min(max(ctx.budget_pool, 1), MAX_BUDGET_POOL)
        stack: list[Any] = []
        push, pop = stack.append, stack.pop
        call_stack: list[int] = []
        global_writes: dict[bytes, Any] = {}
        global_deletes: set[bytes] = set()
        box_writes: dict[bytes, bytes] = {}
        box_deletes: set[bytes] = set()
        inner_payments: list[tuple[str, int]] = []
        logs: list[bytes] = []
        app_args = ctx.app_args
        spent = 0
        ops_used = 0
        pc = 0

        # The loop tests the hot ops first (pushes, txna, ==, bnz,
        # app_global_get, txn/global, assert: three quarters of the ops
        # the deploy gate runs) and uses bare ``pop()`` (IndexError ->
        # "stack underflow" below).  The hot ops inline their type
        # checks: calling ``_uint_of``/``_bytes_of``/``_canonical`` there
        # made the checker's AVM sweep ~35% slower.  Operands are
        # type-checked top first, each right after it is popped.
        try:
            while True:
                if not 0 <= pc < limit:
                    raise AvmError(f"program counter {pc} out of range")
                ops_used += 1
                if ops_used > budget:
                    raise AvmPanic("opcode budget exhausted")
                op, arg = instrs[pc]

                if op == "push":
                    push(arg)
                elif op == "txna":
                    if not 0 <= arg < len(app_args):
                        raise AvmPanic(f"ApplicationArgs index {arg} out of range")
                    push(app_args[arg])
                elif op == "==" or op == "!=":
                    b, a = pop(), pop()
                    if type(a) is not bytes:
                        a = a.encode() if type(a) is str else _canonical(a)
                    if type(b) is not bytes:
                        b = b.encode() if type(b) is str else _canonical(b)
                    push(1 if (a == b) == (op == "==") else 0)
                elif op == "bnz":
                    value = pop()
                    if not isinstance(value, int):
                        raise _expected("uint64", value)
                    if value != 0:
                        pc = arg
                        continue
                elif op == "app_global_get":
                    key = pop()
                    if type(key) is not bytes:
                        key = _bytes_of(key)
                    if key in global_deletes:
                        push(0)
                    elif key in global_writes:
                        push(global_writes[key])
                    else:
                        push(app.global_state.get(key, 0))
                elif op == "read":
                    push(arg(ctx))
                elif op == "assert":
                    value = pop()
                    if not isinstance(value, int):
                        raise _expected("uint64", value)
                    if value == 0:
                        raise AvmPanic("assert failed")
                elif op == "bz":
                    value = pop()
                    if not isinstance(value, int):
                        raise _expected("uint64", value)
                    if value == 0:
                        pc = arg
                        continue
                elif op == "swap":
                    stack[-1], stack[-2] = stack[-2], stack[-1]
                elif op == "log":
                    logs.append(_bytes_of(pop()))
                elif op == "b":
                    pc = arg
                    continue
                elif op == "itob":
                    push(_uint_of(pop()).to_bytes(8, "big"))
                elif op == "cmp":
                    b = _uint_of(pop())
                    push(1 if arg(_uint_of(pop()), b) else 0)
                elif op == "concat":
                    b = _bytes_of(pop())
                    push(_bytes_of(pop()) + b)
                elif op == "return":
                    if _uint_of(pop()) == 0:
                        raise AvmPanic("approval program rejected")
                    return AvmResult(
                        approved=True,
                        ops_used=ops_used,
                        logs=logs,
                        global_writes=global_writes,
                        global_deletes=global_deletes,
                        box_writes=box_writes,
                        box_deletes=box_deletes,
                        inner_payments=inner_payments,
                        return_value=logs[-1] if logs else None,
                    )
                elif op == "balance":
                    push(ctx.app_balance + ctx.amount - spent)
                elif op == "app_global_put":
                    value = pop()
                    key = _bytes_of(pop())
                    global_writes[key] = value
                    global_deletes.discard(key)
                elif op == "itxn_pay":
                    amount = _uint_of(pop())
                    receiver = pop()
                    if not isinstance(receiver, str):
                        receiver = receiver.decode() if isinstance(receiver, bytes) else str(receiver)
                    if amount > ctx.app_balance + ctx.amount - spent:
                        raise AvmPanic("inner payment exceeds application balance")
                    spent += amount
                    inner_payments.append((receiver, amount))
                elif op == "box_get":
                    key = _bytes_of(pop())
                    if key in box_deletes:
                        stack += (b"", 0)
                    elif key in box_writes:
                        stack += (box_writes[key], 1)
                    elif key in app.boxes:
                        stack += (app.boxes[key], 1)
                    else:
                        stack += (b"", 0)
                elif op == "pop":
                    pop()
                elif op in ("+", "-", "*", "/", "%"):
                    b = _uint_of(pop())
                    a = _uint_of(pop())
                    if op == "+":
                        result = a + b
                    elif op == "-":
                        if b > a:
                            raise AvmPanic("uint64 underflow")
                        result = a - b
                    elif op == "*":
                        result = a * b
                    elif op == "/":
                        if b == 0:
                            raise AvmPanic("division by zero")
                        result = a // b
                    else:
                        if b == 0:
                            raise AvmPanic("modulo by zero")
                        result = a % b
                    if result >= 2**64:
                        raise AvmPanic("uint64 overflow")
                    push(result)
                elif op == "box_del":
                    key = _bytes_of(pop())
                    box_writes.pop(key, None)
                    box_deletes.add(key)
                elif op == "box_put":
                    value = _bytes_of(pop())
                    key = _bytes_of(pop())
                    box_writes[key] = value
                    box_deletes.discard(key)
                elif op == "app_global_del":
                    key = _bytes_of(pop())
                    global_writes.pop(key, None)
                    global_deletes.add(key)
                elif op == "!":
                    push(1 if _uint_of(pop()) == 0 else 0)
                elif op == "&&":
                    b = _uint_of(pop())
                    push(1 if (_uint_of(pop()) and b) else 0)
                elif op == "||":
                    b = _uint_of(pop())
                    push(1 if (_uint_of(pop()) or b) else 0)
                elif op == "dup":
                    push(stack[-1])
                elif op == "dup2":
                    if len(stack) < 2:
                        raise AvmError("stack underflow on dup2")
                    stack += stack[-2:]
                elif op == "btoi":
                    raw = _bytes_of(pop())
                    if len(raw) > 8:
                        raise AvmPanic("btoi of more than 8 bytes")
                    push(int.from_bytes(raw, "big"))
                elif op == "len":
                    push(len(_bytes_of(pop())))
                elif op == "sha256":
                    push(sha256(_bytes_of(pop())))
                elif op == "min_balance":
                    push(100_000)
                elif op == "callsub":
                    call_stack.append(pc + 1)
                    pc = arg
                    continue
                elif op == "retsub":
                    if not call_stack:
                        raise AvmError("retsub with empty call stack")
                    pc = call_stack.pop()
                    continue
                elif op == "err":
                    raise AvmPanic("err opcode")
                else:  # "fail": an unsupported field or an unknown opcode
                    raise AvmError(arg)
                pc += 1
        except IndexError as exc:
            raise AvmError("stack underflow") from exc


def _expected(kind: str, value: Any) -> AvmError:
    return AvmError(f"expected {kind}, got {type(value).__name__}")


def _uint_of(value: Any) -> int:
    if not isinstance(value, int):
        raise _expected("uint64", value)
    return value


def _bytes_of(value: Any) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode()
    raise _expected("bytes", value)


def _canonical(value: Any) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, int):
        return value.to_bytes(8, "big")
    if isinstance(value, str):
        return value.encode()
    raise AvmError(f"uncomparable value {value!r}")
