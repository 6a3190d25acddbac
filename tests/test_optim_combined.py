"""The combined Conclusion-3 flow and the ordering study."""

import pytest

from repro.analysis.claims import _claims_netlist, claim_c5_resizing
from repro.netlist.generate import random_netlist
from repro.netlist.sta import compute_sta
from repro.optim.combined import combined_flow, ordering_study
from repro.optim.sizing import resizing_vs_vdd_comparison


def _factory(seed=4):
    def make():
        return random_netlist(100, n_gates=250, seed=seed,
                              depth_skew=2.2, clock_margin=1.10)
    return make


@pytest.fixture(scope="module")
def flow_and_netlist():
    netlist = _factory()()
    return combined_flow(netlist), netlist


def test_timing_met_at_the_end(flow_and_netlist):
    _, netlist = flow_and_netlist
    assert compute_sta(netlist).meets_timing(tolerance_s=1e-15)


def test_stage_results_present(flow_and_netlist):
    result, _ = flow_and_netlist
    assert result.cvs.n_low_vdd > 0
    assert result.sizing.n_resized > 0
    assert result.dual_vth.n_high_vth > 0


def test_total_savings_positive(flow_and_netlist):
    result, _ = flow_and_netlist
    assert result.total_saving > 0.3
    assert result.total_dynamic_saving > 0.3
    assert result.total_static_saving > 0.3


def test_flow_compounds_beyond_cvs(flow_and_netlist):
    result, _ = flow_and_netlist
    assert result.total_dynamic_saving > result.cvs.dynamic_saving


def test_final_power_consistent(flow_and_netlist):
    result, netlist = flow_and_netlist
    from repro.netlist.power import netlist_power
    measured = netlist_power(netlist)
    assert measured.total_w == pytest.approx(result.power_final.total_w)


def test_ordering_study_shows_cvs_first_wins():
    study = ordering_study(_factory(seed=8))
    assert study.cvs_first.low_vdd_fraction \
        > study.cvs_after_sizing.low_vdd_fraction
    assert study.low_vdd_fraction_drop > 0.05


def test_ordering_study_carries_the_comparison_arms():
    study = ordering_study(_factory(seed=8))
    comparison = resizing_vs_vdd_comparison(_factory(seed=8))
    assert study.sizing == comparison.sizing
    assert study.cvs_first == comparison.cvs


def test_claim_c5_equals_the_three_call_composition():
    # E-C5 runs each flow once: its sizing and CVS arms come from the
    # ordering study.  It must equal the composition that ran the
    # comparison, the study and the combined flow separately.
    comparison = resizing_vs_vdd_comparison(_claims_netlist)
    study = ordering_study(_claims_netlist)
    flow = combined_flow(_claims_netlist())
    expected = {
        "sizing_dynamic_saving": comparison.sizing.dynamic_saving,
        "sizing_width_saving": comparison.sizing.width_saving,
        "sizing_sublinearity": comparison.sizing.sublinearity,
        "cvs_dynamic_saving": comparison.cvs.dynamic_saving,
        "cvs_first_low_vdd_fraction": study.cvs_first.low_vdd_fraction,
        "cvs_after_sizing_low_vdd_fraction":
            study.cvs_after_sizing.low_vdd_fraction,
        "combined_total_saving": flow.total_saving,
        "combined_static_saving": flow.total_static_saving,
    }
    result = claim_c5_resizing()
    assert list(result) == list(expected)
    for key, value in expected.items():
        assert result[key] == value, key
