"""Extension bench: the verify operation the paper measured indirectly.

Chapter 5 excluded verification "because the verify operation is
similar to the attachment since it is a basic API call to the
contract".  This bench quantifies that justification: on every network,
the verify operation's latency sits within the attach API call's band,
and its gas (on the EVM chains) is the same order as the attach call.
"""

from __future__ import annotations

from conftest import write_output

from repro.bench.workload import generate_workload
from repro.chain import make_chain
from repro.core.contract import build_pol_program, pol_record
from repro.reach.compiler import compile_program
from repro.reach.runtime import ReachClient

NETWORKS = ("goerli", "polygon-mumbai", "algorand-testnet")


def run_verify_measurements():
    compiled = compile_program(build_pol_program(max_users=4, reward=1_000))
    results = {}
    for network in NETWORKS:
        chain = make_chain(network, seed=6)
        client = ReachClient(chain)
        funding = 10**18 if chain.profile.family == "evm" else 10**12
        workload = generate_workload(4)  # one contract's worth of users
        accounts = {
            spec.name: chain.create_account(seed=f"v/{spec.name}".encode(), funding=funding)
            for spec in workload
        }
        verifier = chain.create_account(seed=b"v/verifier", funding=funding)
        deployed = None
        attach_latencies = []
        for spec in workload:
            account = accounts[spec.name]
            record = pol_record(f"h{spec.did}", f"s{spec.did}", account.address, spec.did, f"c{spec.did}")
            if deployed is None:
                deployed = client.deploy(compiled, account, [spec.olc, spec.did, record])
            else:
                op = deployed.attach_and_call("attacherAPI.insert_data", record, spec.did, sender=account)
                attach_latencies.append(op.receipts[-1].latency)  # the API call alone
        deployed.api("verifierAPI.insert_money", 8_000, sender=verifier, pay=8_000)
        verify_ops = []
        for spec in workload:
            op = deployed.api(
                "verifierAPI.verify", spec.did, accounts[spec.name].address, sender=verifier
            )
            verify_ops.append(op)
        results[network] = {
            "attach_call_mean": sum(attach_latencies) / len(attach_latencies),
            "verify_mean": sum(op.latency for op in verify_ops) / len(verify_ops),
            "verify_gas": verify_ops[0].gas_used,
            "verify_fee": sum(op.fees for op in verify_ops),
        }
    return results


def test_extension_verify_operation(benchmark):
    results = benchmark.pedantic(run_verify_measurements, rounds=1, iterations=1)

    lines = [f"{'network':18} {'attach call':>12} {'verify':>10} {'verify gas':>11}"]
    for network, row in results.items():
        lines.append(
            f"{network:18} {row['attach_call_mean']:>10.2f}s {row['verify_mean']:>8.2f}s {row['verify_gas']:>11}"
        )
    write_output("extension_verify_op.txt", "\n".join(lines))

    for network, row in results.items():
        # "the verify operation is similar to the attachment": same band.
        ratio = row["verify_mean"] / row["attach_call_mean"]
        assert 0.4 < ratio < 2.5, f"{network}: verify/attach ratio {ratio:.2f}"
    # On the EVM networks verify is a single API call's worth of gas.
    assert 20_000 < results["goerli"]["verify_gas"] < 200_000
