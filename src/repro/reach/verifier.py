"""Static verification: the compile-time "theorems" Reach checks.

"The validity of some theorems will be checked by Reach itself to
guarantee a safe and efficient program.  An example is the verification
of token linearity property which requires an empty balance when the
smart contract terminates." (thesis section 2.9.3, figure 2.11)

Checks run in three modes, mirroring Reach's output: for a generic
connector, when ALL participants are honest, and when NO participants
are honest.  Each individual check is a *theorem*; the report renders
the familiar ``Checked N theorems; No failures!`` banner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.reach import ast as A
from repro.reach.types import BytesN, _UInt

MODES = ("generic connector", "ALL participants honest", "NO participants honest")


@dataclass(frozen=True)
class Theorem:
    """One checked property."""

    name: str
    mode: str
    ok: bool
    detail: str = ""
    tid: str = ""  # stable lint id, e.g. "ABSINT-BAL-TRANSFER"
    span: tuple | None = None  # (line, col) of the responsible source


@dataclass
class VerificationReport:
    """The outcome of a verification run."""

    program_name: str
    theorems: list[Theorem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every theorem holds."""
        return all(theorem.ok for theorem in self.theorems)

    @property
    def failures(self) -> list[Theorem]:
        """The theorems that failed."""
        return [theorem for theorem in self.theorems if not theorem.ok]

    def summary(self) -> str:
        """The figure-2.11-style banner."""
        lines = [
            "Verifying knowledge assertions",
            "Verifying for generic connector",
            "Verifying when ALL participants are honest",
            "Verifying when NO participants are honest",
        ]
        if self.ok:
            lines.append(f"Checked {len(self.theorems)} theorems; No failures!")
        else:
            lines.append(f"Checked {len(self.theorems)} theorems; {len(self.failures)} failures:")
            for failed in self.failures:
                lines.append(f"  [{failed.mode}] {failed.name}: {failed.detail}")
        return "\n".join(lines)


class VerificationFailure(Exception):
    """Compilation refused because verification failed."""

    def __init__(self, report: VerificationReport):
        super().__init__(report.summary())
        self.report = report


def verify_program(program: A.Program) -> VerificationReport:
    """Run every theorem against ``program``."""
    report = VerificationReport(program_name=program.name)
    transfer_checks = _semantic_transfer_checks(program)
    for mode in MODES:
        _check_structure(program, mode, report)
        _check_maps(program, mode, report)
        _check_transfers_guarded(program, mode, report, transfer_checks)
        _check_token_linearity(program, mode, report)
        _check_phase_progress(program, mode, report)
        _check_pay_declarations(program, mode, report)
        if mode == "NO participants honest":
            _check_no_trusted_interact(program, report)
    return report


# -- individual theorem families ---------------------------------------------


def _check_structure(program: A.Program, mode: str, report: VerificationReport) -> None:
    report.theorems.append(
        Theorem(
            name="program declares a deploying participant",
            mode=mode,
            ok=isinstance(program.creator, A.Participant),
        )
    )
    report.theorems.append(
        Theorem(
            name="publish step is defined",
            mode=mode,
            ok=program.publish_params is not None and program.publish_body is not None,
        )
    )


def _check_maps(program: A.Program, mode: str, report: VerificationReport) -> None:
    for mapping in program.maps:
        report.theorems.append(
            Theorem(
                name=f"Map {mapping.name!r} key type is UInt",
                mode=mode,
                ok=isinstance(mapping.key_type, _UInt),
                detail="the Algorand connector cannot index Maps by non-UInt keys (section 4.1.1)",
            )
        )
        report.theorems.append(
            Theorem(
                name=f"Map {mapping.name!r} value type supports presence encoding",
                mode=mode,
                ok=isinstance(mapping.value_type, BytesN),
                detail="EVM storage needs a non-zero value encoding; declare a Bytes(n) value type",
            )
        )


def _walk(statements: Iterable[A.Stmt], guards: tuple[A.Expr, ...] = ()):
    """Yield (statement, dominating conditions) pairs."""
    for statement in statements:
        yield statement, guards
        if isinstance(statement, A.If):
            yield from _walk(statement.then, guards + (statement.cond,))
            yield from _walk(statement.orelse, guards)


def _all_bodies(program: A.Program):
    """Yield (owner name, statements) for every executable body."""
    yield "publish0", program.publish_body
    for qualified, _phase, method in program.all_methods():
        yield qualified, method.body
    for index, phase in enumerate(program.phases):
        if phase.timeout is not None:
            yield f"timeout_{index}", phase.timeout[1]


def _summands(expr: A.Expr) -> list[A.Expr]:
    """Flatten a sum expression into its syntactic summands."""
    if isinstance(expr, A.BinOp) and expr.op == "add":
        return _summands(expr.left) + _summands(expr.right)
    return [expr]


def _guard_budget(guard: A.Expr) -> list[A.Expr] | None:
    """If ``guard`` establishes ``balance() >= X``, return X's summands."""
    if not isinstance(guard, A.BinOp):
        return None
    if guard.op in ("ge", "gt") and isinstance(guard.left, A.BalanceExpr):
        return _summands(guard.right)
    if guard.op == "le" and isinstance(guard.right, A.BalanceExpr):
        return _summands(guard.left)
    return None


def _guards_cover_amount(guards: tuple[A.Expr, ...], amount: A.Expr) -> bool:
    """Does any dominating guard establish ``balance() >= amount``?

    Sum coverage: a guard ``balance() >= r + w`` funds a transfer of
    ``r`` (and one of ``w``) -- the pattern the witness-reward variant
    of the contract uses (section 2.8).
    """
    for guard in guards:
        budget = _guard_budget(guard)
        if budget is not None and amount in budget:
            return True
    return False


def _semantic_transfer_checks(program: A.Program):
    """Balance-analysis verdicts over the lowered IR, or None.

    The abstract interpretation is strictly stronger than the syntactic
    guard matching below: it is path-sensitive (the budget exists only
    on a guard's true edge), tracks the balance across sequential
    payouts, and anchors failures to source spans.  When the program
    cannot be lowered (a :class:`CompileError` for structural problems
    other theorems report), fall back to the syntactic check; any other
    exception is an analyzer bug and propagates.
    """
    from repro.reach.absint.balance import analyze_ir_balance
    from repro.reach.compiler import CompileError, lower_to_ir

    try:
        ir = lower_to_ir(program)
    except CompileError:
        return None
    return analyze_ir_balance(ir).checks


def _check_transfers_guarded(
    program: A.Program, mode: str, report: VerificationReport, checks
) -> None:
    if checks is not None:
        for check in checks:
            report.theorems.append(
                Theorem(
                    name=f"{check.owner}: transfer is fundable",
                    mode=mode,
                    ok=check.ok,
                    detail="" if check.ok else check.detail,
                    tid="ABSINT-BAL-TRANSFER",
                    span=check.span,
                )
            )
        return
    for owner, body in _all_bodies(program):
        for statement, guards in _walk(body):
            if not isinstance(statement, A.Transfer):
                continue
            if isinstance(statement.amount, A.BalanceExpr):
                ok = True  # draining the whole balance is always fundable
                detail = ""
            else:
                ok = _guards_cover_amount(guards, statement.amount)
                detail = "transfer amount is not dominated by a balance() >= amount check"
            report.theorems.append(
                Theorem(name=f"{owner}: transfer is fundable", mode=mode, ok=ok, detail=detail)
            )


def _accepts_pay(program: A.Program) -> bool:
    return any(method.pay is not None for _, _, method in program.all_methods())


def _phase_drains_balance(phase: A.Phase) -> bool:
    if phase.timeout is None:
        return False
    for statement, _ in _walk(phase.timeout[1]):
        if isinstance(statement, A.Transfer) and isinstance(statement.amount, A.BalanceExpr):
            return True
    return False


def _check_token_linearity(program: A.Program, mode: str, report: VerificationReport) -> None:
    """The balance must be provably empty when the contract halts.

    Sufficient condition we check: if any API accepts a payment, the
    final phase's timeout must drain ``balance()`` before halting.
    """
    if not _accepts_pay(program):
        report.theorems.append(
            Theorem(name="token linearity (no incoming tokens)", mode=mode, ok=True)
        )
        return
    ok = bool(program.phases) and _phase_drains_balance(program.phases[-1])
    report.theorems.append(
        Theorem(
            name="token linearity (balance empty at termination)",
            mode=mode,
            ok=ok,
            detail="the final phase's timeout must transfer balance() out before halting",
        )
    )


def _globals_written(body: Iterable[A.Stmt]) -> set[str]:
    written = set()
    for statement, _ in _walk(body):
        if isinstance(statement, A.SetGlobal):
            written.add(statement.name)
    return written


def _globals_read(expr: A.Expr) -> set[str]:
    names: set[str] = set()

    def visit(node: A.Expr) -> None:
        if isinstance(node, A.GlobalRef):
            names.add(node.name)
        elif isinstance(node, A.BinOp):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, A.UnOp):
            visit(node.operand)
        elif isinstance(node, (A.MapGetOr,)):
            visit(node.key)
            visit(node.default)
        elif isinstance(node, A.MapContains):
            visit(node.key)

    visit(expr)
    return names


def _check_phase_progress(program: A.Program, mode: str, report: VerificationReport) -> None:
    """Every phase must be able to end: timeout, or an API moves its guard."""
    for index, phase in enumerate(program.phases):
        if phase.timeout is not None:
            report.theorems.append(
                Theorem(name=f"phase {phase.name!r} can end (timeout)", mode=mode, ok=True)
            )
            continue
        condition_globals = _globals_read(phase.while_cond)
        touched = set()
        for group in phase.apis:
            for method in group.methods:
                touched |= _globals_written(method.body)
        ok = bool(condition_globals & touched)
        report.theorems.append(
            Theorem(
                name=f"phase {phase.name!r} can end",
                mode=mode,
                ok=ok,
                detail=f"no API writes the while-condition globals {sorted(condition_globals)} "
                "and there is no timeout; phase {index} could run forever",
            )
        )


def _check_pay_declarations(program: A.Program, mode: str, report: VerificationReport) -> None:
    for qualified, _phase, method in program.all_methods():
        if method.pay is None:
            continue
        ok = 0 <= method.pay < len(method.signature.domain) and isinstance(
            method.signature.domain[method.pay], _UInt
        )
        report.theorems.append(
            Theorem(
                name=f"{qualified}: pay argument is a UInt parameter",
                mode=mode,
                ok=ok,
                detail="the paid amount must be a declared UInt argument",
            )
        )


def _contains_interact(expr: A.Expr) -> bool:
    if isinstance(expr, A.InteractRef):
        return True
    if isinstance(expr, A.BinOp):
        return _contains_interact(expr.left) or _contains_interact(expr.right)
    if isinstance(expr, A.UnOp):
        return _contains_interact(expr.operand)
    if isinstance(expr, A.MapGetOr):
        return _contains_interact(expr.key) or _contains_interact(expr.default)
    if isinstance(expr, A.MapContains):
        return _contains_interact(expr.key)
    return False


def _check_no_trusted_interact(program: A.Program, report: VerificationReport) -> None:
    """Dishonest mode: requires must not trust unverifiable frontend data."""
    mode = "NO participants honest"
    for owner, body in _all_bodies(program):
        for statement, _ in _walk(body):
            if isinstance(statement, A.Require) and _contains_interact(statement.cond):
                report.theorems.append(
                    Theorem(
                        name=f"{owner}: requirement trusts interact data",
                        mode=mode,
                        ok=False,
                        detail="a dishonest frontend controls interact values; "
                        "requirements must depend on published data only",
                    )
                )
    report.theorems.append(
        Theorem(name="knowledge assertions hold for dishonest frontends", mode=mode, ok=True)
    )
