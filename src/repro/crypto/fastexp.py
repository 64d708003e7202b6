"""Modular exponentiation in the group: fixed-base ``g_pow``, any-base ``p_pow``.

Modular exponentiation is the proof-journey kernel's dominant cost at
scale: every key derivation, Schnorr signature, and
ElGamal challenge raises the *same* generator ``G`` to a fresh 160-bit
exponent, and CPython's ``pow`` re-does the square chain each time.

A fixed-base comb precomputes, once per base, the products of the base
raised to every pattern of one window per comb tooth.  An
exponentiation then costs one Python-level modmul per tooth plus
window lookups instead of ~200 square-and-multiply steps inside
``pow`` -- a ~6-10x speedup on the hottest single operation in the
codebase.

Only bases that are reused thousands of times deserve a table (the
8-bit table costs a few thousand modmuls to build, once per process);
:func:`g_pow` maintains the one global table for ``G``.  Wider windows
were measured and rejected: past 8 bits the table stops fitting in
cache and lookup misses eat the saved multiplications.  Every other
base modulo ``P`` -- VRF sortition's per-round elements, subgroup
membership checks, keys without a known discrete log -- goes through
:func:`p_pow`, one OpenSSL Montgomery modexp (~10x builtin ``pow``).

Both run on the native extension (:mod:`repro.crypto.native`) when it
builds, loads and matches the Python reference on a probe spread at
first use; otherwise they run on the Python comb and builtin ``pow``
respectively, with the reason recorded and warned about
(:func:`crypto_backend`).  Results are identical either way.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.crypto import group

T = TypeVar("T")

__all__ = ["FixedBaseComb", "crypto_backend", "g_pow", "p_pow"]

#: default window width in bits; 8 trades a small one-time table build
#: (21 teeth x 255 modmuls) for a fifth of the multiplications of
#: square-and-multiply -- it amortizes within the first millisecond of
#: any run.
WINDOW_BITS = 8

class FixedBaseComb:
    """Precomputed window tables for one base ``b`` modulo ``m``.

    ``tables[i][w] == b ** (w << (window_bits * i)) % m`` for every
    window value ``w``, so an exponent split into ``window_bits``-wide
    digits multiplies one table entry per digit -- no squarings at all.
    """

    __slots__ = ("base", "modulus", "tables", "window_bits", "_mask")

    def __init__(
        self,
        base: int,
        modulus: int,
        max_exponent_bits: int = 168,
        window_bits: int = WINDOW_BITS,
    ):
        self.base = base
        self.modulus = modulus
        self.window_bits = window_bits
        self._mask = (1 << window_bits) - 1
        windows = (max_exponent_bits + window_bits - 1) // window_bits
        tables: list[tuple[int, ...]] = []
        radix_power = base % modulus
        for _ in range(windows):
            row = [1] * (1 << window_bits)
            acc = 1
            for w in range(1, 1 << window_bits):
                acc = (acc * radix_power) % modulus
                row[w] = acc
            tables.append(tuple(row))
            # the next tooth's unit is this tooth's unit ** 2**window_bits
            radix_power = (acc * radix_power) % modulus
        self.tables = tables

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` (exponent must be >= 0)."""
        if exponent < 0:
            raise ValueError("fixed-base comb requires a non-negative exponent")
        window_bits = self.window_bits
        if exponent.bit_length() > window_bits * len(self.tables):
            raise ValueError("exponent exceeds the precomputed comb width")
        mod = self.modulus
        mask = self._mask
        result = 1
        index = 0
        tables = self.tables
        while exponent:
            window = exponent & mask
            if window:
                result = (result * tables[index][window]) % mod
            exponent >>= window_bits
            index += 1
        return result


_G_COMB: FixedBaseComb | None = None
#: ``(base, exponent) -> pow(base, exponent, group.P)``, bound at first use
_P_POW: Callable[[int, int], int] | None = None


def _trusted_native(primitive: str, make: Callable[[], T], agrees: Callable[[T], bool]) -> T | None:
    """``make()``'s native primitive if it builds and ``agrees`` with the
    Python reference, else None with the reason recorded (and warned)."""
    from repro.crypto.native import fall_back

    try:
        candidate = make()
        if agrees(candidate):
            return candidate
        reason = "cross-check against the Python path failed"
    except RuntimeError as exc:  # NativeUnavailable, or a failed native call
        reason = str(exc)
    fall_back(primitive, reason)
    return None


def _make_g_comb() -> FixedBaseComb:
    """The generator's comb: the OpenSSL-backed extension when the host
    can build and load it (see :mod:`repro.crypto.native`), else the
    pure-Python table.  The native comb is only trusted after its
    output matches the Python comb on a spread of exponents -- both
    paths compute the identical function, so which one serves a given
    process is unobservable in results.
    """
    from repro.crypto.native import NativeComb

    reference = FixedBaseComb(group.G, group.P)
    probes = [0, 1, 2, group.Q - 1, group.Q // 2]
    probes += [pow(1000003, i, group.Q) for i in range(1, 9)]
    native = _trusted_native(
        "comb",
        lambda: NativeComb(group.G, group.P),
        lambda comb: all(comb.pow(e) == reference.pow(e) for e in probes),
    )
    return reference if native is None else native  # type: ignore[return-value]


def _python_p_pow(base: int, exponent: int) -> int:
    if base < 0 or exponent < 0:
        raise ValueError("p_pow requires a non-negative base and exponent")
    return pow(base, exponent, group.P)


def _make_p_pow() -> Callable[[int, int], int]:
    """``NativeModexp(P).pow`` once it matches builtin ``pow`` on a probe
    spread (boundary bases, both generators, a hashed element; exponents
    around the subgroup order and one past the 168-bit comb width), else
    builtin ``pow``."""
    from repro.crypto.native import NativeModexp

    element = pow(group.H, 1000003, group.P)
    probes = [(base, group.Q - 1) for base in (0, 1, 2, group.G, group.P - 1, group.P, group.P + 5)]
    probes += [(element, e) for e in (0, 1, group.Q, group.Q + 1, 2**200 + 3)]
    native = _trusted_native(
        "modexp",
        lambda: NativeModexp(group.P),
        lambda modexp: all(modexp.pow(b, e) == pow(b, e, group.P) for b, e in probes),
    )
    return _python_p_pow if native is None else native.pow


def g_pow(exponent: int) -> int:
    """``pow(group.G, exponent, group.P)`` through the shared comb table.

    Exponents are reduced mod the subgroup order first (callers pass
    values already below ``Q``; the reduction keeps the function a
    drop-in for ``pow`` on any non-negative exponent).
    """
    global _G_COMB
    comb = _G_COMB
    if comb is None:
        comb = _G_COMB = _make_g_comb()
    return comb.pow(exponent % group.Q)


def p_pow(base: int, exponent: int) -> int:
    """``pow(base, exponent, group.P)`` for any non-negative base and exponent.

    No reduction of the exponent: the base need not lie in the
    subgroup (:func:`repro.crypto.group.is_group_element` raises an
    arbitrary value to ``Q`` to find out).  Negative arguments raise
    :class:`ValueError` on either backend.
    """
    global _P_POW
    modexp = _P_POW
    if modexp is None:
        modexp = _P_POW = _make_p_pow()
    return modexp(base, exponent)


def crypto_backend() -> str:
    """``"native"`` when both primitives run on the extension in this
    process, else ``"python: <primitive>: <reason>[; ...]"``.

    Binds both primitives first, so the answer does not depend on which
    one a run happened to use.
    """
    from repro.crypto.native import FALLBACKS

    g_pow(1)
    p_pow(1, 1)
    if not FALLBACKS:
        return "native"
    return "python: " + "; ".join(f"{name}: {why}" for name, why in sorted(FALLBACKS.items()))
