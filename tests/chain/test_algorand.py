"""Tests for the TEAL assembler, AVM and the Algorand chain."""

import json
import random
from pathlib import Path

import pytest

from repro.chain import TxStatus
from repro.chain.algorand import AlgorandChain, AvmPanic, assemble
from repro.chain.algorand.avm import AVM, Application, AvmError, CallContext
from repro.chain.algorand.teal import TealInstr, TealProgram, TealSyntaxError

CORPUS_GOLDEN = Path(__file__).parent / "golden" / "avm_corpus.json"

ALGO = 10**6


def run_teal(source, sender="SENDER", args=None, app_balance=0, amount=0, budget_pool=1):
    program = assemble(source)
    app = Application(app_id=1, approval=program, creator=sender, address="APPADDR")
    ctx = CallContext(
        sender=sender,
        application_id=1,
        app_args=args or [],
        amount=amount,
        app_address="APPADDR",
        app_balance=app_balance,
        budget_pool=budget_pool,
    )
    return AVM().execute(app, ctx), app


class TestAssembler:
    def test_assembles_figure_1_7_style_program(self):
        source = """
        // creation check like figure 1.7
        txn ApplicationID
        bz not_creation
        int 0
        return
        not_creation:
        byte "Creator"
        txn Sender
        app_global_put
        int 1
        return
        """
        program = assemble(source)
        assert "not_creation" in program.labels

    def test_unknown_opcode_rejected(self):
        with pytest.raises(TealSyntaxError):
            assemble("frobnicate")

    def test_unknown_label_rejected(self):
        with pytest.raises(TealSyntaxError):
            assemble("b nowhere")

    def test_duplicate_label_rejected(self):
        with pytest.raises(TealSyntaxError):
            assemble("here:\nhere:\nint 1\nreturn")

    def test_unterminated_string_rejected(self):
        with pytest.raises(TealSyntaxError):
            assemble('byte "oops')

    def test_byte_hex_literal(self):
        program = assemble('byte 0xdeadbeef\nlen\nreturn')
        assert program.instrs[0].args[0] == bytes.fromhex("deadbeef")

    def test_comments_and_blanks_ignored(self):
        program = assemble("\n// nothing\nint 1 // inline\nreturn\n")
        assert len(program.instrs) == 2


class TestAVM:
    def test_arithmetic_and_return(self):
        result, _ = run_teal("int 2\nint 3\n+\nint 5\n==\nreturn")
        assert result.approved

    def test_rejection_raises(self):
        with pytest.raises(AvmPanic):
            run_teal("int 0\nreturn")

    def test_assert_failure(self):
        with pytest.raises(AvmPanic):
            run_teal("int 0\nassert\nint 1\nreturn")

    def test_uint64_underflow_panics(self):
        with pytest.raises(AvmPanic):
            run_teal("int 1\nint 2\n-\nreturn")

    def test_division_by_zero_panics(self):
        with pytest.raises(AvmPanic):
            run_teal("int 1\nint 0\n/\nreturn")

    def test_global_state_roundtrip(self):
        result, _ = run_teal(
            'byte "k"\nint 42\napp_global_put\nbyte "k"\napp_global_get\nint 42\n==\nreturn'
        )
        assert result.global_writes[b"k"] == 42

    def test_box_roundtrip(self):
        result, _ = run_teal(
            'byte "name"\nbyte "value"\nbox_put\nbyte "name"\nbox_get\nassert\nbyte "value"\n==\nreturn'
        )
        assert result.box_writes[b"name"] == b"value"

    def test_missing_box_flag_zero(self):
        result, _ = run_teal('byte "ghost"\nbox_get\n!\nassert\npop\nint 1\nreturn')
        assert result.approved

    def test_txn_sender(self):
        result, _ = run_teal('txn Sender\nbyte "SENDER"\n==\nreturn', sender="SENDER")
        assert result.approved

    def test_app_args(self):
        result, _ = run_teal("txna ApplicationArgs 0\nint 9\n==\nreturn", args=[9])
        assert result.approved

    def test_inner_payment_requires_balance(self):
        result, _ = run_teal('addr RCVR\nint 500\nitxn_pay\nint 1\nreturn', app_balance=1_000)
        assert result.inner_payments == [("RCVR", 500)]
        with pytest.raises(AvmPanic):
            run_teal('addr RCVR\nint 5000\nitxn_pay\nint 1\nreturn', app_balance=1_000)

    def test_opcode_budget_exhausted(self):
        looping = "top:\nint 1\npop\nb top"
        with pytest.raises(AvmPanic) as excinfo:
            run_teal(looping)
        assert "budget" in str(excinfo.value)

    def test_budget_pool_extends_budget(self):
        body = "int 1\npop\n" * 500 + "int 1\nreturn"
        with pytest.raises(AvmPanic):
            run_teal(body, budget_pool=1)
        result, _ = run_teal(body, budget_pool=3)
        assert result.approved

    def test_callsub_retsub(self):
        source = """
        callsub helper
        int 10
        ==
        return
        helper:
        int 10
        retsub
        """
        result, _ = run_teal(source)
        assert result.approved

    def test_itob_btoi_roundtrip(self):
        result, _ = run_teal("int 123456\nitob\nbtoi\nint 123456\n==\nreturn")
        assert result.approved


def run_instrs(instrs, **kwargs):
    """Run a hand-built program (one the assembler would refuse)."""
    app = Application(app_id=1, approval=TealProgram(instrs=instrs), creator="S", address="A")
    ctx = CallContext(sender="S", application_id=1, app_args=kwargs.get("args", []))
    return AVM().execute(app, ctx)


class TestAvmMessages:
    """Every AvmError/AvmPanic message, and which operand fails first."""

    @pytest.mark.parametrize(
        ("source", "kwargs", "error", "message"),
        [
            ("pop", {}, AvmError, "stack underflow"),
            ("int 1\n+", {}, AvmError, "stack underflow"),
            ("swap", {}, AvmError, "stack underflow"),
            ("int 1\ndup2", {}, AvmError, "stack underflow on dup2"),
            ("return", {}, AvmError, "stack underflow"),
            ("app_global_put", {}, AvmError, "stack underflow"),
            # the top operand is type-checked before the one below it,
            # and before the stack runs out
            ('byte "x"\n+', {}, AvmError, "expected uint64, got bytes"),
            ('byte "x"\naddr Y\n+', {}, AvmError, "expected uint64, got str"),
            ('int 1\nbyte "x"\n<', {}, AvmError, "expected uint64, got bytes"),
            ('byte "x"\nint 1\n&&', {}, AvmError, "expected uint64, got bytes"),
            ('byte "x"\nreturn', {}, AvmError, "expected uint64, got bytes"),
            ('byte "x"\nassert', {}, AvmError, "expected uint64, got bytes"),
            ('byte "x"\nbz end\nend:\nint 1\nreturn', {}, AvmError, "expected uint64, got bytes"),
            ("int 1\nlen", {}, AvmError, "expected bytes, got int"),
            ('int 1\nbyte "x"\nconcat', {}, AvmError, "expected bytes, got int"),
            ("int 1\nint 2\nconcat", {}, AvmError, "expected bytes, got int"),
            ("int 1\nint 2\napp_global_put", {}, AvmError, "expected bytes, got int"),
            ('byte "k"\nint 2\nbox_put', {}, AvmError, "expected bytes, got int"),
            ('byte "r"\nitxn_pay', {}, AvmError, "expected uint64, got bytes"),
            ("int 5\nitxn_pay", {}, AvmError, "stack underflow"),
            ("txna ApplicationArgs 0\ntxna ApplicationArgs 1\n==", {"args": [None, 2.5]},
             AvmError, "uncomparable value None"),
            ("int 1\ntxna ApplicationArgs 0\n!=", {"args": [2.5]},
             AvmError, "uncomparable value 2.5"),
            ("txn Fee", {}, AvmError, "unsupported txn field Fee"),
            ("global Bogus", {}, AvmError, "unsupported global field Bogus"),
            ("txna Accounts 0", {}, AvmError, "unsupported txna field Accounts"),
            ("txna ApplicationArgs 1", {"args": [7]}, AvmPanic,
             "ApplicationArgs index 1 out of range"),
            ("txna ApplicationArgs -1", {"args": [7]}, AvmPanic,
             "ApplicationArgs index -1 out of range"),
            ("retsub", {}, AvmError, "retsub with empty call stack"),
            ("int 1", {}, AvmError, "program counter 1 out of range"),
            ("byte 0x010203040506070809\nbtoi", {}, AvmPanic, "btoi of more than 8 bytes"),
            ("int 0xFFFFFFFFFFFFFFFF\nint 1\n+", {}, AvmPanic, "uint64 overflow"),
            ("int 0x100000000\nint 0x100000000\n*", {}, AvmPanic, "uint64 overflow"),
            ("int 1\nint 2\n-", {}, AvmPanic, "uint64 underflow"),
            ("int 1\nint 0\n/", {}, AvmPanic, "division by zero"),
            ("int 1\nint 0\n%", {}, AvmPanic, "modulo by zero"),
            ("addr R\nint 1001\nitxn_pay\nint 1\nreturn", {"app_balance": 1_000}, AvmPanic,
             "inner payment exceeds application balance"),
            ("int 0\nassert", {}, AvmPanic, "assert failed"),
            ("err", {}, AvmPanic, "err opcode"),
            ("int 0\nreturn", {}, AvmPanic, "approval program rejected"),
        ],
    )
    def test_message(self, source, kwargs, error, message):
        with pytest.raises(error) as excinfo:
            run_teal(source, **kwargs)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message

    def test_unknown_opcode_fails_only_when_reached(self):
        assert run_instrs([TealInstr("int", (1,)), TealInstr("return"), TealInstr("frob")]).approved
        with pytest.raises(AvmError, match="^unknown opcode frob$"):
            run_instrs([TealInstr("int", (1,)), TealInstr("frob")])

    @pytest.mark.parametrize(
        ("instrs", "message"),
        [
            ([], "program counter 0 out of range"),
            ([TealInstr("b", (99,))], "program counter 99 out of range"),
            ([TealInstr("int", (1,)), TealInstr("bnz", (-1,))], "program counter -1 out of range"),
            ([TealInstr("callsub", (5,))], "program counter 5 out of range"),
        ],
    )
    def test_program_counter_out_of_range(self, instrs, message):
        with pytest.raises(AvmError) as excinfo:
            run_instrs(instrs)
        assert str(excinfo.value) == message


class TestAvmBudget:
    """Exact ``ops_used`` and the exact point of budget exhaustion."""

    def test_ops_used_counts_every_executed_instruction(self):
        result, _ = run_teal("int 2\nint 3\n+\nint 5\n==\nreturn")
        assert result.ops_used == 6
        # a taken branch skips the instructions between it and its target
        result, _ = run_teal("int 1\nbnz end\nerr\nerr\nend:\nint 1\nreturn")
        assert result.ops_used == 4
        result, _ = run_teal("callsub f\nreturn\nf:\nint 1\nretsub")
        assert result.ops_used == 4

    def test_exactly_the_budget_passes(self):
        result, _ = run_teal("int 1\n" * 699 + "return")
        assert result.approved and result.ops_used == 700

    def test_one_op_over_the_budget_panics(self):
        with pytest.raises(AvmPanic, match="^opcode budget exhausted$"):
            run_teal("int 1\n" * 700 + "return")

    def test_budget_is_checked_before_the_instruction_runs(self):
        # the 701st instruction is never executed, so its own error never shows
        with pytest.raises(AvmPanic, match="^opcode budget exhausted$"):
            run_teal("int 1\n" * 700 + "err")
        with pytest.raises(AvmPanic, match="^err opcode$"):
            run_teal("int 1\n" * 699 + "err")

    @pytest.mark.parametrize(("pool", "budget"), [(0, 700), (1, 700), (3, 2100), (16, 11200), (40, 11200)])
    def test_pooled_budget_is_clamped(self, pool, budget):
        result, _ = run_teal("int 1\n" * (budget - 1) + "return", budget_pool=pool)
        assert result.ops_used == budget
        with pytest.raises(AvmPanic, match="budget"):
            run_teal("int 1\n" * budget + "return", budget_pool=pool)

    def test_result_fields(self):
        result, _ = run_teal(
            'byte "a"\nlog\nbyte "b"\nlog\n'
            'byte "g"\nint 1\napp_global_put\nbyte "g"\napp_global_del\n'
            'byte "x"\nbyte "y"\nbox_put\nbyte "x"\nbox_del\n'
            'byte "RCVR"\nint 5\nitxn_pay\nint 1\nreturn',
            app_balance=10,
        )
        assert result.logs == [b"a", b"b"]
        assert result.return_value == b"b"
        assert result.global_writes == {} and result.global_deletes == {b"g"}
        assert result.box_writes == {} and result.box_deletes == {b"x"}
        assert result.inner_payments == [("RCVR", 5)]
        assert result.ops_used == 19


# -- seeded straight-line corpus --------------------------------------------------
#
# ~300 random straight-line programs over every non-branching opcode,
# run against one fixed application and call context.  Their outcomes
# (status, message, ops_used, logs and every write) are committed in
# ``golden/avm_corpus.json``; regenerate it with
# ``PYTHONPATH=src python -m tests.chain.test_algorand`` only when the
# AVM's behaviour is meant to change.

CORPUS_SEED = 20_231_017
CORPUS_SIZE = 300

#: push -> the type it leaves: "i" uint64, "b" bytes, "s" address text
_CORPUS_PUSHES = {
    "int 0": "i", "int 1": "i", "int 2": "i", "int 7": "i", "int 255": "i",
    "int 0x8000000000000000": "i", "int 0xFFFFFFFFFFFFFFFF": "i", 'byte "k"': "b",
    'byte "v"': "b", "byte 0x0102": "b", "byte 0x000000000000000001": "b", "addr RCVR": "s",
    "txn Sender": "s", "txn ApplicationID": "i", "txn NumAppArgs": "i", "txn Amount": "i",
    "global Round": "i", "global LatestTimestamp": "i", "global CurrentApplicationID": "i",
    "global CurrentApplicationAddress": "s", "global MinTxnFee": "i",
    "txna ApplicationArgs 0": "b", "txna ApplicationArgs 1": "i", "txna ApplicationArgs 2": "s",
    "balance": "i", "min_balance": "i",
}
_CORPUS_RARE = ["txn Fee", "global Bogus", "txna ApplicationArgs 3", "txna Accounts 0", "retsub", "err"]
#: op -> (operand types, bottom first; result types). "b" accepts address
#: text too, "*" any value; "?" is a result of unknown type.
_CORPUS_OPS = {
    "pop": ("*", ""), "dup": ("*", "="), "dup2": ("**", "="), "swap": ("**", "="),
    **{op: ("ii", "i") for op in ("+", "-", "*", "/", "%", "<", ">", "<=", ">=", "&&", "||")},
    "==": ("**", "i"), "!=": ("**", "i"), "!": ("i", "i"), "concat": ("bb", "b"),
    "itob": ("i", "b"), "btoi": ("b", "i"), "len": ("b", "i"), "sha256": ("b", "b"),
    "assert": ("i", ""), "app_global_put": ("b*", ""), "app_global_get": ("b", "?"),
    "app_global_del": ("b", ""), "box_put": ("bb", ""), "box_get": ("b", "bi"),
    "box_del": ("b", ""), "itxn_pay": ("*i", ""), "log": ("b", ""),
}


def _fits(wanted, have):
    return have == "?" or wanted == "*" or wanted == have or (wanted == "b" and have == "s")


def corpus_programs():
    """The seeded corpus: TEAL sources, most ending in ``return``.

    The generator tracks operand types so most programs run to their
    end; one pick in thirty ignores the types, and a few picks are
    failing fields or ``err``, so every error path still shows up.
    """
    rng = random.Random(CORPUS_SEED)
    programs = []
    for _ in range(CORPUS_SIZE):
        lines, types = [], []
        for _ in range(rng.randint(1, 24)):
            roll = rng.random()
            if roll < 0.01:
                lines.append(rng.choice(_CORPUS_RARE))
                continue
            typed = [
                op for op, (wanted, _) in _CORPUS_OPS.items()
                if len(wanted) <= len(types)
                and all(_fits(w, h) for w, h in zip(wanted, types[len(types) - len(wanted):]))
            ]
            if roll < 0.4 or not typed:
                push = rng.choice(list(_CORPUS_PUSHES))
                lines.append(push)
                types.append(_CORPUS_PUSHES[push])
                continue
            op = rng.choice(typed if roll < 0.97 else list(_CORPUS_OPS))
            wanted, result = _CORPUS_OPS[op]
            operands = types[len(types) - len(wanted):] if wanted else []
            del types[len(types) - len(wanted):]
            types.extend(operands * 2 if result == "=" and op != "swap" else
                         operands[::-1] if op == "swap" else list(result))
            lines.append(op)
        if rng.random() < 0.9:
            if rng.random() < 0.5:
                lines.append("int 1")
            lines.append("return")
        programs.append("\n".join(lines))
    return programs


def _tagged(value):
    if isinstance(value, bytes):
        return {"b": value.hex()}
    if isinstance(value, str):
        return {"s": value}
    return {"i": value}


def corpus_outcome(source):
    """One program's observable outcome, JSON-ready."""
    app = Application(app_id=3, approval=assemble(source), creator="CREATOR", address="APPADDR")
    app.global_state.update({b"k": 5, b"v": b"stored"})
    app.boxes.update({b"k": b"boxed"})
    ctx = CallContext(
        sender="SENDER", application_id=3, app_args=[b"fn", 7, "ADDR"], amount=50,
        round=12, timestamp=1_700_000_000.9, app_address="APPADDR", app_balance=1_000,
    )
    try:
        result = AVM().execute(app, ctx)
    except (AvmPanic, AvmError) as failure:
        return {"status": type(failure).__name__, "message": str(failure)}
    return {
        "status": "approved",
        "ops_used": result.ops_used,
        "logs": [entry.hex() for entry in result.logs],
        "return_value": None if result.return_value is None else _tagged(result.return_value),
        "global_writes": [[key.hex(), _tagged(value)] for key, value in sorted(result.global_writes.items())],
        "global_deletes": sorted(key.hex() for key in result.global_deletes),
        "box_writes": [[key.hex(), value.hex()] for key, value in sorted(result.box_writes.items())],
        "box_deletes": sorted(key.hex() for key in result.box_deletes),
        "inner_payments": [list(payment) for payment in result.inner_payments],
    }


class TestAvmCorpus:
    def test_corpus_reproduces_the_golden_outcomes(self):
        golden = json.loads(CORPUS_GOLDEN.read_text())
        programs = corpus_programs()
        assert [entry["source"] for entry in golden] == programs
        for entry, source in zip(golden, programs):
            assert corpus_outcome(source) == entry["outcome"], source

    def test_corpus_covers_every_outcome_kind(self):
        golden = json.loads(CORPUS_GOLDEN.read_text())
        statuses = {entry["outcome"]["status"] for entry in golden}
        assert statuses == {"approved", "AvmPanic", "AvmError"}
        messages = {entry["outcome"].get("message") for entry in golden}
        assert len(messages) >= 12


CREATE_OR_PUT = """
txn ApplicationID
bz creation
byte "last_sender"
txn Sender
app_global_put
int 1
return
creation:
byte "Creator"
txn Sender
app_global_put
int 1
return
"""


class TestAlgorandChain:
    @pytest.fixture
    def chain(self):
        return AlgorandChain(profile="algo-devnet", seed=7, participant_count=6)

    @pytest.fixture
    def alice(self, chain):
        return chain.create_account(seed=b"alice", funding=100 * ALGO)

    def test_addresses_are_58_chars(self, alice):
        assert len(alice.address) == 58

    def test_payment_flat_fee(self, chain, alice):
        bob = chain.create_account(seed=b"bob", funding=ALGO)
        tx = chain.make_transaction(alice, "transfer", to=bob.address, value=ALGO)
        receipt = chain.transact(alice, tx)
        assert receipt.status is TxStatus.SUCCESS
        assert receipt.fee_paid == 1_000

    def test_min_balance_enforced(self, chain, alice):
        bob = chain.create_account(seed=b"bob", funding=ALGO)
        # Leave bob with less than 0.1 ALGO -> rejected.
        tx = chain.make_transaction(bob, "transfer", to=alice.address, value=ALGO - 50_000)
        receipt = chain.transact(bob, tx)
        assert receipt.status is TxStatus.REVERTED
        assert "minimum balance" in receipt.error

    def test_app_create_and_call(self, chain, alice):
        program_hash = chain.register_program(CREATE_OR_PUT)
        create = chain.make_transaction(alice, "create", data={"program_hash": program_hash, "args": []})
        created = chain.transact(alice, create)
        assert created.status is TxStatus.SUCCESS
        app_id = int(created.contract_address)
        app = chain.apps[app_id]
        assert app.global_state[b"Creator"] == alice.address

        call = chain.make_transaction(alice, "call", data={"app_id": app_id, "args": []})
        called = chain.transact(alice, call)
        assert called.status is TxStatus.SUCCESS
        assert app.global_state[b"last_sender"] == alice.address

    def test_failed_call_charges_nothing(self, chain, alice):
        program_hash = chain.register_program("int 0\nreturn")
        create = chain.make_transaction(alice, "create", data={"program_hash": program_hash, "args": []})
        receipt = chain.transact(alice, create)
        assert receipt.status is TxStatus.REVERTED
        assert receipt.fee_paid == 0

    def test_optin_tracked(self, chain, alice):
        program_hash = chain.register_program(CREATE_OR_PUT)
        create = chain.make_transaction(alice, "create", data={"program_hash": program_hash, "args": []})
        created = chain.transact(alice, create)
        app_id = int(created.contract_address)
        call = chain.make_transaction(alice, "call", data={"app_id": app_id, "on_complete": "optin", "args": []})
        chain.transact(alice, call)
        assert alice.address in chain.apps[app_id].opted_in

    def test_immediate_finality(self, chain, alice):
        bob = chain.create_account(seed=b"bob", funding=ALGO)
        tx = chain.make_transaction(alice, "transfer", to=bob.address, value=1_000)
        receipt = chain.transact(alice, tx)
        # Confirmed in the same round it was included (no extra depth).
        block_time = chain.blocks[receipt.block_number].timestamp
        assert receipt.confirmed_at == pytest.approx(block_time, abs=chain.profile.block_time)

    def test_certified_rounds_record_committee(self, chain, alice):
        bob = chain.create_account(seed=b"bob", funding=ALGO)
        tx = chain.make_transaction(alice, "transfer", to=bob.address, value=1_000)
        chain.transact(alice, tx)
        certified = [
            b for b in chain.blocks[1:] if b.metadata.get("certified") and "approvals" in b.metadata
        ]
        assert certified, "no certified rounds were produced"
        assert all(b.metadata["approvals"] > 0 for b in certified)


if __name__ == "__main__":
    CORPUS_GOLDEN.parent.mkdir(exist_ok=True)
    entries = [{"source": source, "outcome": corpus_outcome(source)} for source in corpus_programs()]
    CORPUS_GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
