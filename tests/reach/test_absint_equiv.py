"""Cross-backend equivalence: emitted EVM and TEAL must agree.

``check_equivalence`` executes both artifacts over shared IR-derived
vectors and diffs the observable effects (status, globals, map entries,
transfers, events, return value).  The seeded mutations are the
self-test: dropping a TEAL store or neutralizing an EVM SSTORE must be
*caught*, otherwise the checker proves nothing.
"""

from dataclasses import replace

import pytest

from repro.core.contract import build_pol_program
from repro.reach.absint.equiv import (
    check_equivalence,
    drop_teal_store,
    neutralize_evm_sstore,
)
from repro.reach.absint.lint import lint_compiled
from repro.reach.compiler import BackendDivergence, compile_program
from repro.reach.parser import parse_contract_file


@pytest.fixture(scope="module")
def pol():
    return compile_program(build_pol_program())


@pytest.fixture(scope="module")
def crowdfunding():
    return compile_program(parse_contract_file("contracts/crowdfunding.rsh"))


class TestBackendsAgree:
    def test_pol_backends_agree(self, pol):
        assert check_equivalence(pol) == []

    def test_crowdfunding_backends_agree(self, crowdfunding):
        assert check_equivalence(crowdfunding) == []

    def test_compile_with_check_enforces_equivalence(self):
        # check=True ran the equivalence gate and did not raise
        compiled = compile_program(build_pol_program(), check=True)
        assert compiled.verification.ok


class TestSeededMutationsAreCaught:
    def test_dropped_teal_store_diverges(self, pol):
        mutated = replace(pol, teal_source=drop_teal_store(pol.teal_source, 0), _lint=None)
        divergences = check_equivalence(mutated)
        assert divergences
        assert any("differs" in d for d in divergences)

    def test_neutralized_evm_sstore_diverges(self, pol):
        mutated = replace(pol, evm_code=neutralize_evm_sstore(pol.evm_code, 2), _lint=None)
        assert check_equivalence(mutated)

    @pytest.mark.parametrize(
        ("contract", "mutation", "total", "expected"),
        [
            ("pol", "drop_teal_store", 29, {0, 2, 3, 5, *range(7, 16), 23, 24, 25, 28}),
            ("pol", "neutralize_evm_sstore", 30, {0, 2, 3, 5, *range(7, 16), 23, 24, 25, 29}),
            ("crowdfunding", "drop_teal_store", 18, {1, 2, 3, *range(5, 14), 17}),
            ("crowdfunding", "neutralize_evm_sstore", 19, {1, 2, 3, *range(5, 14), 18}),
        ],
        ids=["pol-teal", "pol-evm", "crowdfunding-teal", "crowdfunding-evm"],
    )
    def test_observable_teal_stores_are_load_bearing(
        self, request, contract, mutation, total, expected
    ):
        # Drop each store in turn and pin exactly which mutants the
        # vectors catch.  Stores of zero are legitimately unobservable
        # (absent keys read back as zero on both backends); every store
        # of a nonzero value must be caught.
        compiled = request.getfixturevalue(contract)
        caught, index = set(), 0
        while True:
            try:
                if mutation == "drop_teal_store":
                    mutated = replace(
                        compiled,
                        teal_source=drop_teal_store(compiled.teal_source, index),
                        _lint=None,
                    )
                else:
                    mutated = replace(
                        compiled,
                        evm_code=neutralize_evm_sstore(compiled.evm_code, index),
                        _lint=None,
                    )
            except ValueError:
                break
            if check_equivalence(mutated):
                caught.add(index)
            index += 1
        assert index == total
        assert caught == expected

    def test_mutation_surfaces_as_lint_error(self, pol):
        mutated = replace(pol, teal_source=drop_teal_store(pol.teal_source, 0), _lint=None)
        report = lint_compiled(mutated)
        assert report.has_errors
        assert any(f.theorem == "EQ-DIVERGE" for f in report.findings)

    def test_out_of_range_mutation_index_raises(self, pol):
        with pytest.raises(ValueError):
            drop_teal_store(pol.teal_source, 10_000)
        with pytest.raises(ValueError):
            neutralize_evm_sstore(pol.evm_code, 10_000)


class TestDivergenceErrors:
    def test_backend_divergence_carries_the_diffs(self):
        error = BackendDivergence(["constructor [create]: global 'x' differs"])
        assert error.divergences
        assert "differs" in str(error)
