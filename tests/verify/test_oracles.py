"""The oracle registry: coverage, soundness at two seeds, selection."""

import pytest

from repro.verify import all_oracles, get_oracle, run_verification
from repro.verify.oracles import Oracle, _code_catalog


class TestRegistry:
    def test_at_least_ten_oracles_registered(self):
        assert len(all_oracles()) >= 10

    def test_names_unique_and_sorted(self):
        names = [o.name for o in all_oracles()]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_every_oracle_documents_itself(self):
        for orc in all_oracles():
            assert isinstance(orc, Oracle)
            assert orc.doc, f"{orc.name} has no doc line"
            assert orc.gens, f"{orc.name} has no generators"

    def test_expected_contracts_present(self):
        names = {o.name for o in all_oracles()}
        assert {
            "capture.batch_vs_loop",
            "fleet.decode_vs_device_loop",
            "sram.lean_send_vs_reference",
            "faults.disabled_identity",
            "ecc.roundtrip",
            "ecc.composition",
            "crypto.ctr_involution",
            "crypto.ctr_keystream",
            "stats.morans_agreement",
            "stats.normal_vs_scipy",
            "physics.nbti_monotone",
        } <= names

    def test_get_oracle_unknown_name(self):
        with pytest.raises(KeyError, match="unknown oracle"):
            get_oracle("no.such.contract")

    def test_code_catalog_covers_every_family(self):
        names = set(_code_catalog())
        for family in ("identity", "rep", "hamming", "bch", "interleave", "paper"):
            assert any(family in n for n in names), family


@pytest.mark.parametrize("seed", [1, 7])
def test_sweep_is_green_at_two_seeds(seed):
    """ISSUE acceptance: >= 10 oracles all green at two different seeds."""
    summary = run_verification(seed=seed, max_examples=2)
    assert len(summary.reports) >= 10
    failed = [str(r.failure) for r in summary.reports if not r.passed]
    assert not failed, failed
    assert summary.ok


def test_selected_subset_runs_only_those():
    summary = run_verification(
        seed=0,
        max_examples=2,
        names=["ecc.roundtrip", "crypto.ctr_involution"],
    )
    assert [r.name for r in summary.reports] == [
        "ecc.roundtrip",
        "crypto.ctr_involution",
    ]
    assert summary.ok


def test_unknown_selection_raises():
    with pytest.raises(KeyError):
        run_verification(names=["bogus.oracle"])
