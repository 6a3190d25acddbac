"""Experiment registry: coverage, runnability and the paper's claims.

DESIGN.md §5 makes the *shape* of each headline number the
reproduction target.  ``test_paper_claims`` asserts it per experiment
for every claim that no model test already pins (Tables 1-2, E-V1 and
the co-simulation scenarios keep theirs next to their models).  Each
experiment runs once per session: ``_result`` caches it for the claims
and for ``test_fast_experiments_run``.
"""

import functools

import pytest

from repro.analysis import EXPERIMENTS, run_experiment
from repro.errors import ReproError

ALL_IDS = {"E-T1", "E-T2", "E-F1", "E-F2", "E-F3", "E-F4", "E-F5",
           "E-C1", "E-C2", "E-C3", "E-C4", "E-C5", "E-C6", "E-C7",
           "E-V1", "E-S1", "E-S2", "E-S3", "E-S4",
           "E-X1", "E-X2", "E-X3", "E-X4",
           "E-ET1", "E-ET2", "E-ET3", "E-ET4"}


@functools.cache
def _result(experiment_id):
    return run_experiment(experiment_id)


def test_registry_covers_every_artifact():
    assert set(EXPERIMENTS) == ALL_IDS


def test_every_table_and_figure_has_an_experiment():
    artifacts = {e.paper_artifact for e in EXPERIMENTS.values()}
    for artifact in ("Table 1", "Table 2", "Figure 1", "Figure 2",
                     "Figure 3", "Figure 4", "Figure 5"):
        assert artifact in artifacts


def test_descriptions_nonempty():
    for experiment in EXPERIMENTS.values():
        assert experiment.description
        assert experiment.id.startswith("E-")


@pytest.mark.parametrize("experiment_id",
                         ["E-T1", "E-T2", "E-F1", "E-F2", "E-F3",
                          "E-F4", "E-F5", "E-C2", "E-C6", "E-V1",
                          "E-X1", "E-X3", "E-ET1", "E-ET4"])
def test_fast_experiments_run(experiment_id):
    assert _result(experiment_id)


def test_unknown_id_raises():
    with pytest.raises(ReproError):
        run_experiment("E-X9")


# -- the paper's claims, one checker per experiment -------------------


def _table2(result):
    summary = result["summary"]
    # Paper: Ioff grows 23x along the ITRS row, and the model lands
    # >= 2.9x over ITRS at 35 nm.
    assert 20 < summary["itrs_ioff_increase_180_to_35"] < 26
    assert 2.5 < summary["model_over_itrs_at_35nm"] < 3.6


def _figure1(result):
    # Each curve falls monotonically with activity (ratio ~ 1/alpha).
    for curve in result["series"].values():
        ratios = [ratio for _, ratio in curve]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
    # Paper: in the 0.01-0.1 activity range static power approaches and
    # can exceed 10 % of dynamic at the nanometer nodes, and the
    # 0.6 V / 50 nm curve is the leakiest by far.
    summary = result["summary"]
    leakiest = summary["ratio_50nm_0v6_at_0p1"]
    assert leakiest > 0.10
    assert leakiest > 3 * summary["ratio_50nm_0v7_at_0p1"]
    assert leakiest > 3 * summary["ratio_70nm_0v9_at_0p1"]


def _figure2(result):
    # The old-node Ioff penalty for +20 % Ion is far larger than at
    # 35 nm (paper: 54x; the compact model is more velocity-saturated
    # at 1.8 V and lands higher -- see EXPERIMENTS.md).
    assert result["summary"]["penalty_at_180nm"] > 25.0


def _figure3(result):
    # Paper: 3.7x delay at 0.2 V with constant Vth (we land 3.4-3.9).
    assert 3.0 < result["summary"]["delay_constant_vth_at_0v2"] < 4.2
    # Policy ordering at every supply: constant >= conservative >=
    # constant-Pstatic in delay; the reverse in static power.
    curves = result["curves"]
    for fast, slow in (("constant_pstatic", "conservative"),
                       ("conservative", "constant")):
        for p_fast, p_slow in zip(curves[fast], curves[slow]):
            assert p_fast["delay_norm"] <= p_slow["delay_norm"] + 1e-9
            assert (p_fast["static_power_norm"]
                    >= p_slow["static_power_norm"] - 1e-9)


def _figure4(result):
    # Paper: the ITRS 10x constraint buys a ~46 % dynamic-power saving
    # (we land 44 %).
    assert 0.35 < result["summary"]["dynamic_saving_at_ratio_10"] < 0.55
    # Under constant Pstatic the ratio shrinks monotonically as the
    # supply scales down.
    curve = result["curves"]["constant_pstatic"]
    ratios = [point["dyn_over_static"] for point in curve]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def _figure5(result):
    # Paper: rails consume 17-20 % of top-level routing with pads.
    assert 0.16 < result["summary"]["min_pitch_routing_at_35nm"] < 0.25
    # Both curves grow (roughly quadratically) toward the nanometer
    # nodes, apart from the 50->35 nm density dip.
    for scenario in ("min_pitch", "itrs_pads"):
        widths = [point["width_over_min"]
                  for point in result["curves"][scenario]]
        assert all(a < b for a, b in zip(widths[:-1], widths[1:-1]))


def _thermal(result):
    # DTM buys a 33 % higher theta_ja (1/0.75).
    assert abs(result["theta_relief"] - 1 / 3) < 0.01
    # The 65 -> 75 W cooling-cost cliff triples cost.
    assert abs(result["cooling_cost_ratio_75_over_65"] - 3.0) < 0.01
    limit = result["tj_limit_c"]
    # A DTM-protected chip on an effective-worst-case package holds Tj;
    # the same package without DTM violates under the virus.
    assert result["virus_dtm_max_tj_c"] <= limit + 0.5
    assert result["virus_unmanaged_max_tj_c"] > limit + 1.0
    # Realistic applications run (essentially) unthrottled; the virus
    # pays a bounded throughput tax instead of overheating.
    assert result["app_dtm_throughput"] > 0.97
    assert 0.5 <= result["virus_dtm_throughput"] < 1.0


def _signaling(result):
    # Paper: ~1e4 repeaters in a large 180 nm MPU, nearly 1e6 at 50 nm.
    assert 5e3 < result["repeater_count_180nm"] < 3e4
    assert 5e5 < result["repeater_count_50nm"] < 3e6
    # Paper: >50 W of signaling power in the nanometer regime.
    assert result["signaling_power_50nm_w"] > 50.0
    # Low-swing differential: ~80 % bus-energy saving at 10 % swing,
    # several-x smaller supply transients, and nowhere near 2x area.
    assert 0.7 < result["low_swing_energy_saving"] < 0.95
    assert result["low_swing_transient_reduction"] > 3.0
    assert result["low_swing_area_ratio"] < 1.5
    # Footnote 2: cluster power density "can exceed 100 W/cm^2", at a
    # small quantisation delay cost.
    assert result["cluster_power_density_w_cm2"] > 100.0
    assert result["cluster_delay_penalty"] < 0.10


def _cvs(result):
    # Paper: ~75 % of gates tolerate Vdd,l on slack-rich designs.
    assert result["low_vdd_fraction"] > 0.65
    # Paper: 45-50 % dynamic saving; our load-weighted netlists land at
    # ~35 % (the paper's arithmetic assumes uniform per-gate power --
    # see EXPERIMENTS.md).  The saving is substantial and the
    # level-conversion overhead sits in the paper's 8-10 % band.
    assert result["dynamic_saving"] > 0.28
    assert 0.06 < result["lc_power_fraction"] < 0.12
    assert abs(result["vdd_ratio"] - 0.65) < 1e-9
    # Ref [18]'s placement/converter/grid area overhead: ~15 %.
    assert 0.10 < result["area_overhead"] < 0.25


def _dual_vth(result):
    # Paper band: 40-80 % leakage reduction across benchmarks; our
    # three slack scenarios span 65-86 %, the band's upper half.
    assert result["leakage_saving_min"] > 0.40
    assert result["leakage_saving_max"] < 0.95
    assert (result["saving_tight"] < result["saving_area_recovered"]
            <= result["saving_slack_rich"] + 1e-9)
    # "Minimal penalty in critical path delay".
    assert result["worst_delay_penalty"] < 0.03


def _resizing(result):
    # Re-sizing is sublinear: power saving well below the width saving.
    assert result["sizing_sublinearity"] < 0.75
    assert result["sizing_width_saving"] > result["sizing_dynamic_saving"]
    # Multi-Vdd beats re-sizing on the same design (quadratic vs
    # sublinear).
    assert result["cvs_dynamic_saving"] > result["sizing_dynamic_saving"]
    # Re-sizing first destroys a large part of the multi-Vdd population.
    assert (result["cvs_first_low_vdd_fraction"]
            - result["cvs_after_sizing_low_vdd_fraction"]) > 0.10
    # The combined Conclusion-3 flow compounds the savings.
    assert result["combined_total_saving"] > result["cvs_dynamic_saving"]
    assert result["combined_static_saving"] > 0.5


def _pdn(result):
    # Paper: ~300 A worst-case supply current at 35 nm; 1500 Vdd bumps.
    assert abs(result["supply_current_35nm_a"] - 300.0) < 15.0
    assert abs(result["vdd_pads_35nm"] - 1500.0) < 30.0
    # Paper: ITRS bump current capability is incompatible with 300 A.
    assert result["itrs_budget_feasible"] == 0.0
    assert result["per_bump_current_a"] > result["bump_limit_a"]
    assert result["vdd_bump_shortfall"] > 0
    # Paper: a roughly constant ~350 um effective pitch (356 at 35 nm).
    assert abs(result["effective_pitch_um"] - 356.0) < 1.0
    # Minimum bump pitch gives a much lower-inductance wake-up path.
    assert result["wakeup_improvement"] > 5.0
    assert result["wakeup_droop_min_pitch"] < result["wakeup_droop_itrs"]
    # MCML draws a several-x smaller peak supply current.
    assert result["mcml_transient_advantage"] > 2.0


def _library(result):
    # The default library carries the richness the paper cites: 16
    # inverter sizes and 11 2-input NANDs.
    assert result["inverter_drive_strengths"] == 16.0
    assert result["nand2_drive_strengths"] == 11.0
    # On-the-fly cell generation on top of that library saves power at
    # fixed timing (paper: 15-22 %; our already-ideal baseline mapping
    # leaves ~10-12 % -- see EXPERIMENTS.md).
    assert result["cellgen_power_saving"] > 0.08


def _leakage_toolbox(result):
    # MTCMOS: large standby reduction for a bounded delay penalty.
    assert result["mtcmos_standby_reduction"] > 50.0
    assert result["mtcmos_delay_penalty"] <= 0.05 + 1e-9
    # Body bias fades with scaling (the paper's caveat).
    assert (result["body_bias_reduction_180nm"]
            > 10 * result["body_bias_reduction_35nm"])
    # Mixed-Vth stacks: substantial saving, minimal delay cost.
    assert result["stack_leakage_saving"] > 0.3
    assert result["stack_delay_penalty"] < 0.25


def _dvs(result):
    limit = result["tj_limit_c"]
    assert result["dvs_max_tj_c"] <= limit + 0.5
    assert result["throttling_max_tj_c"] <= limit + 0.5
    assert result["dvs_advantage"] > 0.02


def _clock_domains(result):
    summary = result["summary"]
    assert summary["divider_at_180nm"] == 1
    assert summary["divider_at_35nm"] >= 2
    assert summary["all_nodes_meet_itrs"]


def _electrothermal(result):
    # The 50 nm / Vth = 0.04 V point is electrothermally marginal on
    # the ITRS-target package; 70 nm is comfortable.
    assert result["leakage_fraction_50nm"] > 0.5
    assert result["leakage_fraction_70nm"] < 0.2
    assert result["runaway_theta_50nm"] < 2 * result["theta_ja"]
    assert result["runaway_theta_70nm"] > 2 * result["theta_ja"]
    # Self-heating amplifies every node's leakage vs the 300 K numbers.
    for node in (70, 50, 35):
        assert result[f"amplification_{node}nm"] > 2.0


def _wakeup_droop(result):
    # Closed-form L di/dt agreement within 5 % at every node and pitch.
    assert result["max_abs_rel_error"] <= 0.05
    assert result["within_5pct"] == 1.0


def _dtm_virus(result):
    # Unmanaged violates; every DTM policy holds the junction with a
    # bounded throughput loss and a clean supply.
    assert result["unmanaged_violation"] == 1.0
    assert result["any_managed_violation"] == 0.0
    assert 0.5 <= result["min_throughput_fraction"] < 1.0


CLAIMS = {
    "E-T2": _table2,
    "E-F1": _figure1,
    "E-F2": _figure2,
    "E-F3": _figure3,
    "E-F4": _figure4,
    "E-F5": _figure5,
    "E-C1": _thermal,
    "E-C2": _signaling,
    "E-C3": _cvs,
    "E-C4": _dual_vth,
    "E-C5": _resizing,
    "E-C6": _pdn,
    "E-C7": _library,
    "E-X1": _leakage_toolbox,
    "E-X2": _dvs,
    "E-X3": _clock_domains,
    "E-X4": _electrothermal,
    "E-ET1": _wakeup_droop,
    "E-ET2": _dtm_virus,
}


@pytest.mark.parametrize("experiment_id", list(CLAIMS))
def test_paper_claims(experiment_id):
    CLAIMS[experiment_id](_result(experiment_id))
