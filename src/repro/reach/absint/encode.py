"""Canonical encoding of observable contract state, shared by analyses.

The differential layers -- the per-vector equivalence check
(:mod:`repro.reach.absint.equiv`) and the protocol model checker
(:mod:`repro.reach.absint.modelcheck`), both executing on the backend
models of :mod:`repro.reach.absint.modelcheck.exec` -- must agree on
what "the same state" means across connectors, and on when two
compiled contracts are the same (:func:`artifact_key`).  The EVM
stores scalars as Python ints under ``g:<name>`` storage keys and Map
entries under hashed slots; the AVM stores ``itob`` bytes in global
state and Map entries in boxes.  This module is the single place that
flattens those representations to comparable bytes, so representation
differences never count as state differences.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.chain.ethereum.evm import serialize_code
from repro.crypto.hashing import sha256
from repro.reach.absint.domains import U64_MAX
from repro.reach.ir import IRContract


def artifact_key(compiled: Any) -> bytes:
    """Content hash of a compiled contract's two artifacts (a cache key)."""
    return sha256(
        serialize_code(compiled.evm_code)
        + compiled.teal_source.encode()
        + repr(sorted(compiled.evm_code.methods.items())).encode()
    )


def canon(value: Any) -> bytes:
    """Connector-independent byte encoding of one stored value."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, int):
        return value.to_bytes(8 if value <= U64_MAX else 32, "big")
    return repr(value).encode()


def is_absent(value: Any) -> bool:
    """Zero/empty encodes Map absence on the EVM side."""
    if isinstance(value, int):
        return value == 0
    return not value


def uint_of(value: Any) -> int:
    """Decode a stored scalar back to a uint (int or itob bytes)."""
    if isinstance(value, int):
        return value
    if isinstance(value, bytes):
        return int.from_bytes(value, "big")
    if isinstance(value, str):
        return int(value) if value.isdigit() else 0
    return 0


def evm_map_key(slot: int, key: int) -> bytes:
    """The hashed EVM storage key of Map ``slot`` at ``key``."""
    return sha256(int(slot).to_bytes(32, "big") + key.to_bytes(32, "big"))


def avm_box_key(slot: int, key: int) -> bytes:
    """The AVM box name of Map ``slot`` at ``key``."""
    return f"m{slot}:".encode() + key.to_bytes(8, "big")


def scalar_names(ir: IRContract) -> list[str]:
    """Every scalar global, declared plus runtime-reserved."""
    return [*ir.globals_init.keys(), "_phase", "_deadline", "_creator"]


def scalar_field(name: str) -> bytes:
    """The :func:`state_digest` field prefix of scalar ``name``."""
    return b"s:" + name.encode() + b"="


def map_field(slot: int, key: int) -> bytes:
    """The :func:`state_digest` field prefix of Map ``slot`` at ``key``."""
    return b"m:%d:%d=" % (slot, key)


def state_digest(fields: Iterable[bytes], balance: int, now: int) -> bytes:
    """One canonical hash over the full observable contract state.

    Each field is a :func:`scalar_field` or :func:`map_field` prefix
    followed by the :func:`canon` value: every scalar, then every
    *present* Map entry, each in a deterministic order (the model
    checker keeps both sorted).  Absent Map entries are left out, so
    "deleted" and "never written" hash identically.
    """
    return sha256(b";".join([*fields, b"b:%d;t:%d" % (balance, now)]))
