"""Pipelined submission paths through the PoL system facade."""

import itertools

import pytest

from repro.chain import make_chain
from repro.chain.ethereum import EthereumChain
from repro.core.factory import FactoryError
from repro.core.proof import ProofFailure
from repro.core.system import PolSystemError, ProofOfLocationSystem
from repro.obs import Recorder
from repro.obs.analysis import reconstruct_journeys, validate_journeys

FUNDING = 10**18
LAT, LNG = 44.4949, 11.3426
NEAR = 0.0002


def build_system(seed=31, max_users=4):
    chain = EthereumChain(profile="eth-devnet", seed=seed, validator_count=4)
    system = ProofOfLocationSystem(chain=chain, reward=5_000, max_users=max_users)
    system.register_prover("anna", LAT, LNG, funding=FUNDING)
    system.register_prover("bruno", LAT, LNG, funding=FUNDING)
    system.register_witness("walter", LAT, LNG + NEAR)
    return system


def proof_for(system, prover_name):
    request, proof, _cid = system.request_location_proof(
        prover_name, "walter", f"report by {prover_name}".encode()
    )
    return request, proof


class TestErrorRename:
    def test_other_missing_attributes_still_raise(self):
        import repro.core.system as system_module

        with pytest.raises(AttributeError):
            system_module.NoSuchName


class TestSubmitAsync:
    def test_submission_is_a_future(self):
        system = build_system()
        request, proof = proof_for(system, "anna")
        pending = system.submit_async("anna", request, proof)
        assert not pending.done
        assert system.provers["anna"].unsettled == [pending]
        with pytest.raises(PolSystemError):
            pending.outcome()  # still in flight
        pending.handle.wait()
        outcome = pending.outcome()
        assert outcome.was_deploy
        assert system.factory.instance_for(request.olc) is not None
        assert system.dht.lookup(request.olc).found

    def test_prover_tracking_settles(self):
        system = build_system()
        request, proof = proof_for(system, "anna")
        system.submit("anna", request, proof)
        prover = system.provers["anna"]
        assert prover.unsettled == []
        assert prover.in_flight == []
        assert prover.submissions_settled == 1


class TestSubmitMany:
    def test_racing_provers_share_one_contract(self):
        """Two pipelined provers at a fresh location: the second attaches
        behind the first's in-flight deploy instead of double-deploying."""
        system = build_system()
        anna_request, anna_proof = proof_for(system, "anna")
        bruno_request, bruno_proof = proof_for(system, "bruno")
        assert anna_request.olc == bruno_request.olc  # same 14 m cell

        outcomes = system.submit_many(
            [("anna", anna_request, anna_proof), ("bruno", bruno_request, bruno_proof)]
        )
        assert [o.was_deploy for o in outcomes] == [True, False]
        assert outcomes[0].deployed.ref == outcomes[1].deployed.ref
        assert len(system.factory) == 1
        assert system.factory.pending == {}
        # Both records are in the contract's Map.
        contract = outcomes[0].deployed
        anna_did = system.provers["anna"].did_uint
        bruno_did = system.provers["bruno"].did_uint
        assert contract.map_value("easy_map", anna_did) is not None
        assert contract.map_value("easy_map", bruno_did) is not None

    def test_double_deploy_reservation(self):
        """The factory refuses a second deploy while one is in flight."""
        system = build_system()
        request, proof = proof_for(system, "anna")
        account = system.accounts["anna"]
        system.factory.deploy_instance_async(request.olc, account, 1, "data")
        with pytest.raises(FactoryError, match="in flight"):
            system.factory.deploy_instance_async(request.olc, account, 2, "data")


class TestOneItemWaves:
    """The serial facade calls are one-item waves of the pipelined path.

    Two systems built alike on the same seeded testnet, one driven
    through ``submit``/``verify_and_reward`` and one through one-item
    ``submit_many``/``verify_many`` calls, must end in the same state.
    Witness nonces come from ``secrets``; they are pinned so both
    systems sign byte-identical records.
    """

    NETWORKS = ["goerli", "algorand-testnet"]

    @pytest.fixture
    def build(self, monkeypatch):
        def build(network, recorder=None):
            nonces = itertools.count(1_000_003)
            monkeypatch.setattr("repro.core.actors.secrets.randbelow", lambda _bound: next(nonces))
            chain = make_chain(network, seed=7, recorder=recorder)
            funding = chain.profile.simulation_funding
            system = ProofOfLocationSystem(chain=chain, reward=5_000, max_users=2)
            system.register_prover("anna", LAT, LNG, funding=funding)
            system.register_prover("bruno", LAT, LNG, funding=funding)
            system.register_witness("walter", LAT, LNG + NEAR)
            system.register_verifier("vera", funding=4 * funding)
            return system

        return build

    @staticmethod
    def run(system, serial):
        outcomes = []
        for name in ("anna", "bruno"):
            request, proof = proof_for(system, name)
            if serial:
                outcomes.append(system.submit(name, request, proof))
            else:
                outcomes.append(system.submit_many([(name, request, proof)])[0])
        olc = outcomes[0].olc
        system.fund_contract("vera", olc, 10_000)
        results = []
        for name in ("anna", "bruno"):
            did = system.provers[name].did_uint
            if serial:
                results.append(system.verify_and_reward("vera", olc, did))
            else:
                results.append(system.verify_many("vera", [(olc, did)])[0])
        return outcomes, results

    @pytest.mark.parametrize("network", NETWORKS)
    def test_submit_matches_one_item_submit_many(self, build, network):
        serial, _ = self.run(build(network), serial=True)
        wave, _ = self.run(build(network), serial=False)
        assert [o.was_deploy for o in serial] == [o.was_deploy for o in wave] == [True, False]
        for one, other in zip(serial, wave):
            assert one.olc == other.olc
            assert one.deployed.ref == other.deployed.ref
            assert one.operation.receipts == other.operation.receipts
            assert one.operation.fees == other.operation.fees > 0

    @pytest.mark.parametrize("network", NETWORKS)
    def test_verify_and_reward_matches_one_item_verify_many(self, build, network):
        serial_system = build(network)
        serial_outcomes, serial_results = self.run(serial_system, serial=True)
        wave_system = build(network)
        _, wave_results = self.run(wave_system, serial=False)
        assert serial_results == wave_results == [ProofFailure.OK, ProofFailure.OK]
        olc = serial_outcomes[0].olc
        shown = serial_system.display_reports(olc)
        assert shown == wave_system.display_reports(olc)
        assert sorted(shown) == [b"report by anna", b"report by bruno"]

    @pytest.mark.parametrize("network", NETWORKS)
    def test_serial_journey_validates(self, build, network):
        recorder = Recorder()
        self.run(build(network, recorder=recorder), serial=True)
        report = reconstruct_journeys(recorder)
        assert len(report.journeys) == 2
        assert validate_journeys(report) == []
