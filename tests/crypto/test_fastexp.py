"""Group exponentiation: Python comb, native comb, g_pow, native modexp, p_pow.

Every path must compute exactly builtin ``pow`` -- the comb is the
hottest operation in the scaled kernel and the modexp carries VRF
sortition, so any divergence would corrupt every signature, key and
consensus round in a run.  The fallback tests force the native
extension out and check that the Python path takes over loudly.
"""

import warnings

import pytest

from repro.crypto import fastexp, group, native
from repro.crypto.fastexp import FixedBaseComb, crypto_backend, g_pow, p_pow
from repro.crypto.hashing import sha256
from repro.crypto.native import NativeComb, NativeModexp, NativeUnavailable

# deterministic spread: boundaries plus a multiplicative orbit in Z_Q
EXPONENTS = [0, 1, 2, 255, 256, 257, group.Q - 1, group.Q // 2] + [
    pow(1000003, i, group.Q) for i in range(1, 6)
]


class TestFixedBaseComb:
    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_matches_builtin_pow(self, exponent):
        comb = FixedBaseComb(group.G, group.P)
        assert comb.pow(exponent) == pow(group.G, exponent, group.P)

    @pytest.mark.parametrize("window_bits", [4, 8])
    def test_window_width_does_not_change_results(self, window_bits):
        comb = FixedBaseComb(group.G, group.P, window_bits=window_bits)
        for exponent in EXPONENTS:
            assert comb.pow(exponent) == pow(group.G, exponent, group.P)

    def test_arbitrary_base(self):
        base = pow(group.G, 12345, group.P)
        comb = FixedBaseComb(base, group.P)
        assert comb.pow(6789) == pow(base, 6789, group.P)

    def test_negative_exponent_rejected(self):
        comb = FixedBaseComb(group.G, group.P)
        with pytest.raises(ValueError):
            comb.pow(-1)

    def test_exponent_beyond_comb_width_rejected(self):
        comb = FixedBaseComb(group.G, group.P, max_exponent_bits=16)
        with pytest.raises(ValueError):
            comb.pow(1 << 17)


class TestNativeComb:
    """The OpenSSL-backed comb, when the host toolchain can build it.

    Skipped (not failed) where no compiler or headers exist -- the
    kernel falls back to the Python comb there, which the tests above
    already pin.
    """

    @pytest.fixture(scope="class")
    def native(self):
        try:
            return NativeComb(group.G, group.P)
        except NativeUnavailable as exc:
            pytest.skip(f"native comb unavailable on this host: {exc}")

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_matches_builtin_pow(self, native, exponent):
        assert native.pow(exponent) == pow(group.G, exponent, group.P)

    def test_negative_exponent_rejected(self, native):
        with pytest.raises(ValueError):
            native.pow(-1)


class TestGPow:
    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_drop_in_for_pow(self, exponent):
        assert g_pow(exponent) == pow(group.G, exponent, group.P)

    def test_reduces_modulo_subgroup_order(self):
        # G has order Q, so reducing the exponent mod Q is invisible
        assert g_pow(group.Q + 5) == pow(group.G, 5, group.P)


# boundaries (zero, one, the modulus and past it), both generators, and
# hashed values: subgroup elements and raw 1024-bit integers that are
# mostly not below P
BASES = [0, 1, 2, group.G, group.H, group.P - 1, group.P, group.P + 5] + [
    group.hash_to_group(bytes([i])) for i in range(2)
] + [int.from_bytes(b"".join(sha256(bytes([i, j])) for j in range(4)), "big") for i in range(2)]
BASE_IDS = ["0", "1", "2", "G", "H", "P-1", "P", "P+5", "element0", "element1", "raw0", "raw1"]
MODEXP_EXPONENTS = [0, 1, group.Q - 1, group.Q, group.Q + 1, 2**200 + 3]


class TestNativeModexp:
    """The OpenSSL-backed variable-base modexp, when the host can build it."""

    @pytest.fixture(scope="class")
    def native(self):
        try:
            return NativeModexp(group.P)
        except NativeUnavailable as exc:
            pytest.skip(f"native modexp unavailable on this host: {exc}")

    @pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
    def test_matches_builtin_pow(self, native, base):
        for exponent in MODEXP_EXPONENTS:
            assert native.pow(base, exponent) == pow(base, exponent, group.P), exponent

    def test_negative_exponent_rejected(self, native):
        with pytest.raises(ValueError):
            native.pow(group.G, -1)

    def test_negative_base_rejected(self, native):
        with pytest.raises(ValueError):
            native.pow(-2, 5)


class TestPPow:
    @pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
    def test_drop_in_for_pow(self, base):
        for exponent in MODEXP_EXPONENTS:
            assert p_pow(base, exponent) == pow(base, exponent, group.P), exponent

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            p_pow(group.G, -1)


@pytest.fixture
def fresh_backend(monkeypatch):
    """Forget every native decision, as in a new process; the originals
    come back after the test."""
    monkeypatch.setattr(fastexp, "_G_COMB", None)
    monkeypatch.setattr(fastexp, "_P_POW", None)
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_lib_error", None)
    monkeypatch.setattr(native, "FALLBACKS", {})
    monkeypatch.setattr(native, "_warned", False)
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    return monkeypatch


def _exercise() -> None:
    for exponent in (0, 1, group.Q - 1, 2**200 + 3):
        assert g_pow(exponent) == pow(group.G, exponent, group.P)
        assert p_pow(group.H, exponent) == pow(group.H, exponent, group.P)
        assert p_pow(group.P + 5, exponent) == pow(group.P + 5, exponent, group.P)


def _runtime_warnings(caught) -> list[str]:
    return [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


class TestFallback:
    def test_failed_load_falls_back_with_one_warning(self, fresh_backend):
        def broken():
            raise NativeUnavailable("forced load failure")

        fresh_backend.setattr(native, "_open", broken)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _exercise()
            backend = crypto_backend()
        messages = _runtime_warnings(caught)
        assert len(messages) == 1, messages
        assert "native comb" in messages[0] and "forced load failure" in messages[0]
        assert backend == "python: comb: forced load failure; modexp: forced load failure"

    def test_corrupt_artifact_degrades_with_reason(self, fresh_backend, tmp_path):
        fresh_backend.setattr(native, "_BUILD_DIR", tmp_path)
        native._artifact().write_bytes(b"not a shared object")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _exercise()
        assert len(_runtime_warnings(caught)) == 1
        for primitive in ("comb", "modexp"):
            reason = native.FALLBACKS[primitive]
            assert reason.startswith(f"loading {native._artifact().name} failed"), reason

    def test_opt_out_is_reported_without_warning(self, fresh_backend):
        fresh_backend.setenv("REPRO_NO_NATIVE", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _exercise()
            backend = crypto_backend()
        assert backend == "python: comb: REPRO_NO_NATIVE is set; modexp: REPRO_NO_NATIVE is set"

    def test_probe_mismatch_falls_back(self, fresh_backend):
        try:
            NativeModexp(group.P)
        except NativeUnavailable as exc:
            pytest.skip(f"native modexp unavailable on this host: {exc}")
        fresh_backend.setattr(NativeModexp, "pow", lambda self, base, exponent: 1)
        with pytest.warns(RuntimeWarning, match="native modexp"):
            _exercise()
        assert native.FALLBACKS == {"modexp": "cross-check against the Python path failed"}
        assert crypto_backend().startswith("python: modexp:")

    def test_native_when_available(self, fresh_backend):
        try:
            NativeModexp(group.P)
        except NativeUnavailable as exc:
            pytest.skip(f"native extension unavailable on this host: {exc}")
        assert crypto_backend() == "native"
