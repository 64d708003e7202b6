"""Known-answer pins for hash-to-group, the VRF and Algorand sortition.

The VRF tests in ``test_vrf.py`` check self-consistency only: a wrong
but self-consistent ``gamma`` would pass them.  These vectors were
computed with builtin ``pow`` before exponentiation moved onto the
native modexp, and every one must hold on both backends -- the native
extension and the pure-Python path -- so a backend that computes a
different integer fails here, not in a downstream fee or latency.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto import fastexp, group
from repro.crypto.fastexp import FixedBaseComb, crypto_backend
from repro.crypto.hashing import sha256
from repro.crypto.vrf import VRFKeyPair, verify_vrf

#: message -> hash_to_group(message)
HASH_TO_GROUP = [
    (
        b"",
        int(
            "ae496faaf1063dc0c5b53e25f5bb5923c408651fe5c50e0bfe777f15ca1c34ec"
            "1ded0d805338f93bf2c361df0d67d7f0befdc42ea7799220f96f5c0e0551acd9"
            "3b2eccbf7c5dae0cdbc98825baefe74ddd9a5a94b38a692f2496ccaf67493877"
            "9ddc6c89f1eb5029796cb047c56cb4e32c17807a95b52355cf8c475573f4e8e5",
            16,
        ),
    ),
    (
        b"round-1-seed",
        int(
            "1870a3f4f9ad444d97928c0122847ee50d236563b3bd6b296a3f0df5c47b49ed"
            "0b46fc8b1475e565327afb620fecab8bede0894c424723c82a9eeba840542142"
            "cea358029b67973ce20ca8dce0b0577f298522cc6178ad7aec950321e085ff82"
            "fa3d7cb8c40f77798c91622f30fd1db88757888ee55bb3f6d9766c4fcde196da",
            16,
        ),
    ),
    (
        bytes(range(32)),
        int(
            "26a529c0da4a6fd4433bb4ef8bcadaff491bb55094423b5d02ff36e67b68ecb9"
            "d69c1a65a6e08f28d261d33b87075f00ddd9edd562cbc9f7259df433b0806e5c"
            "327962c1f8f492fbce92a9483a1e41ae24c76c44a568d7bf25e26b9a1401b958"
            "a5328a9822bd405f2085fc374944b2c76a46806cf040eceb0a18dac09320f1d7",
            16,
        ),
    ),
]

VRF_SEED = b"vrf-test"
VRF_MESSAGE = b"round-1-seed"
GAMMA = int(
    "16fbfbaad9a6eaccb68a0e7818bfd7d873773b691b63a6ba34b27cf94df6221f"
    "d184278882f3b3c6ff1a03660bac7159669cc6cb7d2b03cd75ce56e0c46df8aa"
    "46c4c7ced46b5535162938104d97701bc11c6d55e844f225acc8b541c44749ed"
    "8d9e27f8189f3cc1bb700e57f1eca2e9308118f9702f556609a828a930423ba6",
    16,
)
C = int("562c659347ebc7c99b597a9f2bb00a8bc5ee29ba", 16)
S = int("473b2cb780f6b1f2d07a38c609e433f43cc9b7d1", 16)
OUTPUT = bytes.fromhex("1b1adecb6e2284d69e4ab90d8b6d382b382f5639de043f1e90ecfb82402f4981")

#: ``(leader, committee size, sha256 of the newline-joined committee
#: addresses, approvals)`` of the first rounds of ``SORTITION_CHAIN``
SORTITION_ROUNDS = [
    (
        "G27WY4S4IBROGPOXEYQTJQWJWRB6NMUJ4OQEXQVTG6HMMZ7VKDHDNP3MOI",
        11,
        "70d67edf8586b5bbd27bf17f4b5f7bc18ead0e93c94b2fcf9cafcdd3371d4b0e",
        34,
    ),
    (
        "S3LTJXA4XWG4GO52ELQEDMMBSLMH6R6ZP3VQQTNWD52J53SH7H3JNVZU3Q",
        9,
        "6db9df979c43e60b9428ba227045d59efa0b126580cdc4ad3de9348f5b2b7c01",
        29,
    ),
    (
        "XGK6J36J4OK6Q7ZNM3U4VCTQPW7X42UV3YMHMQ7ES2B377HZBDMLTFPE54",
        12,
        "25b94dd93bce3849595c9051d5f4df3c48d4b77b3c04b359e213ff4c8ac0416f",
        31,
    ),
]


#: the chain whose participants and genesis seed the sortition pins use
SORTITION_CHAIN = ("algorand-testnet", 7)


@pytest.fixture(params=["native", "python"])
def backend(request, monkeypatch):
    """Run the test once on the native extension and once on the
    pure-Python path (the Python comb and builtin ``pow``)."""
    if request.param == "native":
        monkeypatch.setattr(fastexp, "_G_COMB", None)
        monkeypatch.setattr(fastexp, "_P_POW", None)
        if crypto_backend() != "native":
            pytest.skip(f"native extension unavailable: {crypto_backend()}")
    else:
        monkeypatch.setattr(fastexp, "_G_COMB", FixedBaseComb(group.G, group.P))
        monkeypatch.setattr(fastexp, "_P_POW", fastexp._python_p_pow)
    return request.param


class TestKnownAnswers:
    @pytest.mark.parametrize("message,element", HASH_TO_GROUP, ids=["empty", "round-1-seed", "bytes32"])
    def test_hash_to_group(self, backend, message, element):
        assert group.hash_to_group(message) == element
        assert group.is_group_element(element)

    def test_vrf_evaluate(self, backend):
        vrf = VRFKeyPair.from_seed(VRF_SEED)
        proof = vrf.evaluate(VRF_MESSAGE)
        assert (proof.gamma, proof.c, proof.s) == (GAMMA, C, S)
        assert proof.output() == OUTPUT
        assert verify_vrf(vrf.public, VRF_MESSAGE, proof) == OUTPUT

    def test_vrf_output_for(self, backend):
        assert VRFKeyPair.from_seed(VRF_SEED).output_for(VRF_MESSAGE) == OUTPUT

    def test_sortition_rounds(self, backend):
        from repro.chain.algorand.chain import AlgorandChain

        network, seed = SORTITION_CHAIN
        chain = AlgorandChain(network, seed=seed)
        round_seed = chain.blocks[-1].seed
        for number, pinned in enumerate(SORTITION_ROUNDS, start=1):
            # the seed chaining of BaseChain._produce_block
            round_seed = sha256(round_seed, number.to_bytes(8, "big"))
            outcome = chain.sortition.run_round(number, round_seed)
            committee = [credential.address for credential in outcome.committee]
            observed = (
                outcome.leader.address,
                len(committee),
                hashlib.sha256("\n".join(committee).encode()).hexdigest(),
                outcome.approvals,
            )
            assert observed == pinned, (number, committee)
            assert outcome.certified


_SIMULATION = """
from repro.bench.simulation import run_simulation
from repro.crypto.fastexp import crypto_backend
result = run_simulation("algorand-testnet", 16, seed=1)
print(crypto_backend())
for t in result.timings:
    print(t.name, t.did, t.olc, t.operation, repr(t.latency), t.fees, t.transactions)
"""


def _simulate(no_native: bool) -> tuple[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_NATIVE"}
    if no_native:
        env["REPRO_NO_NATIVE"] = "1"
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SIMULATION], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    backend, _, rows = done.stdout.partition("\n")
    return backend, rows


def test_sixteen_user_algorand_run_is_backend_independent():
    native_backend, native_rows = _simulate(no_native=False)
    python_backend, python_rows = _simulate(no_native=True)
    assert python_backend == "python: comb: REPRO_NO_NATIVE is set; modexp: REPRO_NO_NATIVE is set"
    if native_backend != "native":
        pytest.skip(f"native extension unavailable: {native_backend}")
    assert native_rows.count("\n") == 16
    assert native_rows == python_rows
