"""OpenSSL-backed modular exponentiation (see ``_combext.c``).

One extension carries two primitives: :class:`NativeComb`, the
fixed-base comb behind :func:`repro.crypto.fastexp.g_pow`, and
:class:`NativeModexp`, variable-base exponentiation modulo the group
prime behind :func:`repro.crypto.fastexp.p_pow`.

The extension is built on demand with the host C toolchain and linked
against the libcrypto the interpreter already loads for ``hashlib`` --
no new dependency, no build step in the install path.  Neither
primitive is required: no compiler, a failed build, a failed load or a
failed arithmetic cross-check each make :mod:`repro.crypto.fastexp`
fall back to its pure-Python path, which stays the reference
implementation.  A fallback is never silent: :func:`fall_back` records
the reason per primitive in :data:`FALLBACKS` (reported as
``crypto_backend`` on every ``repro analyze`` point) and the first one
in a process emits a :class:`RuntimeWarning`.

Set ``REPRO_NO_NATIVE=1`` to skip the extension entirely (the kernel
then runs on the pure-Python path; results are identical either way).
That opt-out is recorded like any other fallback but does not warn.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import threading
import warnings
from pathlib import Path

__all__ = ["FALLBACKS", "NativeComb", "NativeModexp", "NativeUnavailable", "fall_back"]

_SOURCE = Path(__file__).with_name("_combext.c")
#: build artifacts live next to the source, keyed by source hash so a
#: changed .c file never picks up a stale object (dir is gitignored).
_BUILD_DIR = Path(__file__).with_name("_build")

#: the fallback reason of the explicit opt-out (recorded, never warned)
OPT_OUT = "REPRO_NO_NATIVE is set"

_lib: ctypes.CDLL | None = None
#: why the extension cannot be used in this process (None: not yet tried
#: or loaded fine); cached so a failed build is attempted once.
_lib_error: str | None = None
#: BN_CTX and the scratch BIGNUMs inside one comb or modexp context are
#: not thread-safe; the kernel is effectively single-threaded but the
#: bench has a Thread-based variant, so every native call takes this
#: (uncontended, ~0.1us) lock.
_LOCK = threading.Lock()

#: primitive ("comb", "modexp") -> why it runs on the Python path in
#: this process.  A primitive absent here is native (or not used yet).
FALLBACKS: dict[str, str] = {}
_warned = False


class NativeUnavailable(RuntimeError):
    """The extension cannot be used; the message is the reason."""


def fall_back(primitive: str, reason: str) -> None:
    """Record that ``primitive`` runs on the Python path, and why.

    The first fallback in a process (other than the explicit
    ``REPRO_NO_NATIVE`` opt-out) emits one :class:`RuntimeWarning`, so
    a host silently on the ~10x slower path cannot go unnoticed.
    """
    global _warned
    FALLBACKS[primitive] = reason
    if reason == OPT_OUT or _warned:
        return
    _warned = True
    warnings.warn(
        f"repro.crypto: native {primitive} unavailable ({reason}); "
        "using the pure-Python path (identical results, slower)",
        RuntimeWarning,
        stacklevel=2,
    )


def _artifact() -> Path:
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    return _BUILD_DIR / f"combext-{digest}.so"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        try:
            subprocess.run(
                [name, "--version"], capture_output=True, timeout=10, check=True
            )
            return name
        except (OSError, subprocess.CalledProcessError, subprocess.TimeoutExpired):
            continue
    return None


def _build() -> Path:
    artifact = _artifact()
    if artifact.exists():
        return artifact
    cc = _compiler()
    if cc is None:
        raise NativeUnavailable("no C compiler (cc, gcc, clang) found")
    _BUILD_DIR.mkdir(exist_ok=True)
    scratch = artifact.with_suffix(f".tmp{os.getpid()}.so")
    try:
        subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-o", str(scratch), str(_SOURCE), "-lcrypto"],
            capture_output=True,
            timeout=120,
            check=True,
        )
        os.replace(scratch, artifact)  # atomic under concurrent builders
    except subprocess.CalledProcessError as exc:
        scratch.unlink(missing_ok=True)
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        raise NativeUnavailable(
            f"{cc} build failed (exit {exc.returncode}): {lines[0] if lines else 'no output'}"
        ) from None
    except (OSError, subprocess.TimeoutExpired) as exc:
        scratch.unlink(missing_ok=True)
        raise NativeUnavailable(f"{cc} build failed: {exc}") from None
    return artifact


def _open() -> ctypes.CDLL:
    if os.environ.get("REPRO_NO_NATIVE"):
        raise NativeUnavailable(OPT_OUT)
    artifact = _build()
    try:
        lib = ctypes.CDLL(str(artifact))
        lib.repro_comb_new.restype = ctypes.c_void_p
        lib.repro_comb_new.argtypes = [
            ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_int,
        ]
        lib.repro_comb_pow.restype = ctypes.c_int
        lib.repro_comb_pow.argtypes = [
            ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_int,
        ]
        lib.repro_comb_free.restype = None
        lib.repro_comb_free.argtypes = [ctypes.c_void_p]
        lib.repro_modexp_new.restype = ctypes.c_void_p
        lib.repro_modexp_new.argtypes = [ctypes.c_char_p, ctypes.c_int]
        lib.repro_modexp_pow.restype = ctypes.c_int
        lib.repro_modexp_pow.argtypes = [
            ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_int,
            ctypes.c_char_p, ctypes.c_int,
        ]
        lib.repro_modexp_free.restype = None
        lib.repro_modexp_free.argtypes = [ctypes.c_void_p]
    except (OSError, AttributeError) as exc:
        raise NativeUnavailable(f"loading {artifact.name} failed: {exc}") from None
    return lib


def _load() -> ctypes.CDLL:
    """The loaded extension; raises :class:`NativeUnavailable` with the
    (cached) reason when it cannot be built or loaded."""
    global _lib, _lib_error
    if _lib is not None:
        return _lib
    if _lib_error is None:
        try:
            _lib = _open()
            return _lib
        except NativeUnavailable as exc:
            _lib_error = str(exc)
    raise NativeUnavailable(_lib_error)


class NativeComb:
    """C-side fixed-base comb; same contract as ``FixedBaseComb.pow``."""

    __slots__ = ("_lib", "_comb", "_exp_len", "_mod_len", "_out")

    def __init__(self, base: int, modulus: int, max_exponent_bits: int = 168):
        lib = _load()
        self._lib = lib
        self._mod_len = (modulus.bit_length() + 7) // 8
        self._exp_len = (max_exponent_bits + 7) // 8
        mod_be = modulus.to_bytes(self._mod_len, "big")
        base_be = base.to_bytes((base.bit_length() + 7) // 8 or 1, "big")
        self._out = ctypes.create_string_buffer(self._mod_len)
        self._comb = lib.repro_comb_new(
            mod_be, self._mod_len, base_be, len(base_be), max_exponent_bits
        )
        if not self._comb:
            raise RuntimeError("native comb construction failed")

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` (exponent must be >= 0)."""
        if exponent < 0:
            raise ValueError("fixed-base comb requires a non-negative exponent")
        exp_be = exponent.to_bytes(self._exp_len, "big")
        out = self._out
        with _LOCK:
            ok = self._lib.repro_comb_pow(
                self._comb, exp_be, self._exp_len, out, self._mod_len
            )
            if not ok:
                raise RuntimeError("native comb pow failed")
            return int.from_bytes(out.raw, "big")

    def __del__(self) -> None:
        comb = getattr(self, "_comb", None)
        if comb:
            self._lib.repro_comb_free(comb)
            self._comb = None


class NativeModexp:
    """C-side ``pow(base, exponent, modulus)`` for one fixed odd modulus.

    The Montgomery context for the modulus is built once; each call is
    one ``BN_mod_exp_mont``.  Bases and exponents are unbounded
    non-negative integers (a base >= modulus is reduced first).
    """

    __slots__ = ("_lib", "_modexp", "_mod_len", "_out")

    def __init__(self, modulus: int):
        lib = _load()
        self._lib = lib
        self._mod_len = (modulus.bit_length() + 7) // 8
        self._out = ctypes.create_string_buffer(self._mod_len)
        self._modexp = lib.repro_modexp_new(modulus.to_bytes(self._mod_len, "big"), self._mod_len)
        if not self._modexp:
            raise RuntimeError("native modexp construction failed")

    def pow(self, base: int, exponent: int) -> int:
        """``pow(base, exponent, modulus)`` (base and exponent must be >= 0)."""
        if base < 0 or exponent < 0:
            raise ValueError("native modexp requires a non-negative base and exponent")
        base_be = base.to_bytes((base.bit_length() + 7) // 8, "big")
        exp_be = exponent.to_bytes((exponent.bit_length() + 7) // 8, "big")
        out = self._out
        with _LOCK:
            ok = self._lib.repro_modexp_pow(
                self._modexp, base_be, len(base_be), exp_be, len(exp_be), out, self._mod_len
            )
            if not ok:
                raise RuntimeError("native modexp pow failed")
            return int.from_bytes(out.raw, "big")

    def __del__(self) -> None:
        modexp = getattr(self, "_modexp", None)
        if modexp:
            self._lib.repro_modexp_free(modexp)
            self._modexp = None
