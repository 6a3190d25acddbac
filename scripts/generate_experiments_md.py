"""Regenerate EXPERIMENTS.md from live experiment runs.

Run from the repository root:  python scripts/generate_experiments_md.py

All experiments execute through ``repro.engine`` in one sweep (process
pool + result cache), so a regeneration after an unrelated edit is
nearly free.  ``--check`` regenerates into memory and exits non-zero
if the committed EXPERIMENTS.md differs (the CI drift check).
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import Any

from repro.analysis import EXPERIMENTS
from repro.engine import EngineConfig, run_experiments

HEADER = """\
# EXPERIMENTS -- paper vs measured

Every table, figure and quantitative in-text claim of Sylvester & Kaul
(DAC 2001), reproduced by this library.  "Measured" values below are
generated by `python scripts/generate_experiments_md.py`, which runs
the same experiment registry whose claims the test suite asserts
(`tests/test_analysis_experiments.py`).

Reproduction criterion (DESIGN.md section 5): the *shape* of every
result -- who wins, by roughly what factor, where crossovers fall --
must match; absolute numbers match within the stated tolerances where
the paper's inputs are fully specified, and deviations are called out
explicitly.

"""


def _fmt(value: float, digits: int = 3) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.{digits}g}"


def _sweep_results() -> dict[str, Any]:
    """Run every experiment the report needs through the engine."""
    sweep = run_experiments(config=EngineConfig(jobs=4))
    failed = [record.experiment_id for record in sweep.records
              if not record.ok]
    if failed:
        raise RuntimeError(f"experiments failed: {failed}")
    return sweep.results


def write_report(stream: io.TextIOBase,
                 results: dict[str, Any] | None = None) -> None:
    if results is None:
        results = _sweep_results()
    stream.write(HEADER)

    # ---- Table 1 -----------------------------------------------------
    table1 = results["E-T1"]
    stream.write("## E-T1 / Table 1 -- published devices vs ITRS\n\n")
    stream.write(
        "All 6 published rows and 3 ITRS rows transcribed verbatim "
        "(`repro.devices.published`).  Headline observation "
        "reproduced: **0** sub-1 V published devices meet the ITRS "
        "Ion target, and running 70 nm-class parts at their published "
        f"1.2 V costs **{table1['summary']['dynamic_power_penalty_at_1v2']:.0%}**"
        " extra dynamic power (paper: 78 %).\n\n")

    # ---- Table 2 -----------------------------------------------------
    table2 = results["E-T2"]
    stream.write("## E-T2 / Table 2 -- analytical Ioff scaling\n\n")
    stream.write("| node | Vth* model [V] | Vth paper | Ioff model "
                 "[nA/um] | Ioff paper | Ioff metal (model/paper) | "
                 "ITRS |\n|---|---|---|---|---|---|---|\n")
    for row in table2["rows"]:
        stream.write(
            f"| {row['node_nm']} | {row['vth_v']:.3f} | "
            f"{row['vth_paper_v']:.2f} | {row['ioff_na_um']:.1f} | "
            f"{row['ioff_paper_na_um']:.0f} | "
            f"{row['ioff_metal_na_um']:.1f} / "
            f"{row['ioff_metal_paper_na_um']:.1f} | "
            f"{row['ioff_itrs_na_um']:.0f} |\n")
    summary = table2["summary"]
    variant = table2["variant_50nm_0v7"]
    stream.write(
        f"\nModel Ioff grows **{summary['model_ioff_increase_180_to_35']:.0f}x**"
        " across the roadmap (paper: 152x) vs the ITRS' "
        f"{summary['itrs_ioff_increase_180_to_35']:.0f}x, and sits "
        f"**{summary['model_over_itrs_at_35nm']:.1f}x** above the ITRS "
        "at 35 nm (paper: 2.9x).  The metal gate cuts 35 nm Ioff by "
        f"**{summary['metal_gate_ioff_reduction_at_35nm']:.0%}** "
        "(paper: 78 %).  The 50 nm / 0.7 V fallback relieves Ioff by "
        f"**{variant['ioff_relief_vs_0v6']:.1f}x** for a "
        f"{variant['dynamic_power_penalty']:.0%} dynamic-power penalty "
        "(paper: ~7x / 36 %; our model is steeper in Vdd, 15x).\n\n")

    # ---- Figure 1 ----------------------------------------------------
    figure1 = results["E-F1"]["summary"]
    stream.write("## E-F1 / Figure 1 -- Pstatic/Pdynamic vs activity\n\n")
    stream.write(
        "Three curves (70 nm @0.9 V, 50 nm @0.7 V, 50 nm @0.6 V) at "
        "85 C, each falling as 1/activity.  At activity 0.1 the ratio "
        f"is **{figure1['ratio_50nm_0v6_at_0p1']:.2f}** for 50 nm @0.6 V"
        f", {figure1['ratio_50nm_0v7_at_0p1']:.3f} @0.7 V and "
        f"{figure1['ratio_70nm_0v9_at_0p1']:.3f} for 70 nm @0.9 V -- "
        "static power \"approaches and exceeds 10 % of dynamic\" in "
        "the paper's 0.01-0.1 band, with the 0.6 V curve the leakiest "
        "by an order of magnitude, as in the paper.  Our 0.6 V curve "
        "runs ~3x above the paper's (the Vth = 0.04 V device at 85 C "
        "is barely off); ordering and slopes reproduce.\n\n")

    # ---- Figure 2 ----------------------------------------------------
    figure2 = results["E-F2"]["summary"]
    stream.write("## E-F2 / Figure 2 -- dual-Vth scaling\n\n")
    stream.write(
        "Ion gain from a 100 mV Vth cut rises from "
        f"**{figure2['ion_gain_at_180nm_pct']:.1f} %** (180 nm) to "
        f"**{figure2['ion_gain_at_35nm_pct']:.1f} %** (35 nm); the "
        "Ioff penalty for a +20 % Ion gain falls from "
        f"**{figure2['penalty_at_180nm']:.0f}x** to "
        f"**{figure2['penalty_at_35nm']:.1f}x** (paper: 54x -> 7x).  "
        "The 35 nm endpoint and the whole-trend direction reproduce; "
        "the 180 nm endpoint is higher than the paper's because "
        "Eqs. (2)-(3) are strongly velocity-saturated at Vdd = 1.8 V, "
        "making Ion less Vth-sensitive there than the silicon data "
        "points the paper plots -- which *strengthens* the paper's "
        "scalability conclusion.  The fixed 100 mV reduction costs the "
        "constant 15x everywhere (exactly 10^(100/85)).\n\n")

    # ---- Figure 3 ----------------------------------------------------
    figure3 = results["E-F3"]["summary"]
    stream.write("## E-F3 / Figure 3 -- delay vs Vdd, three Vth "
                 "policies (35 nm)\n\n")
    stream.write("| point | paper | measured |\n|---|---|---|\n")
    stream.write(f"| delay @0.2 V, constant Vth | 3.7x | "
                 f"{figure3['delay_constant_vth_at_0v2']:.2f}x |\n")
    stream.write(f"| delay @0.2 V, constant-Pstatic Vth | < 1.3x | "
                 f"{figure3['delay_constant_pstatic_at_0v2']:.2f}x |\n")
    stream.write(f"| dynamic power saving @0.2 V | 89 % | "
                 f"{figure3['dynamic_saving_at_0v2']:.0%} |\n")
    stream.write(f"| Pstatic @0.2 V, conservative policy | 1/3 | "
                 f"{figure3['conservative_pstatic_at_0v2']:.3f} |\n\n")
    stream.write(
        "The DIBL extension (eta = 0.12 V/V) is load-bearing for the "
        "constant-Pstatic result; "
        "`tests/test_power_vdd_scaling.py::"
        "test_dibl_is_load_bearing_for_fig3` shows the < 1.3x claim "
        "fails without it.\n\n")

    # ---- Figure 4 ----------------------------------------------------
    figure4 = results["E-F4"]["summary"]
    stream.write("## E-F4 / Figure 4 -- Pdyn/Pstat vs Vdd (35 nm, "
                 "activity 0.1)\n\n")
    stream.write(
        f"The ITRS 10x constraint allows Vdd = "
        f"**{figure4['vdd_at_ratio_10']:.2f} V** (paper: ~0.44 V), a "
        f"**{figure4['dynamic_saving_at_ratio_10']:.0%}** dynamic-power"
        " saving (paper: 46 %).  Under the constant-Pstatic policy the "
        "ratio falls monotonically toward "
        f"{figure4['ratio_constant_pstatic_at_0v2']:.1f} at 0.2 V "
        "(\"pushed towards 1\").\n\n")

    # ---- Figure 5 ----------------------------------------------------
    figure5 = results["E-F5"]["summary"]
    stream.write("## E-F5 / Figure 5 -- IR-drop rail sizing\n\n")
    stream.write("| point | paper | measured |\n|---|---|---|\n")
    stream.write(f"| W/Wmin @35 nm, min pitch | ~16x | "
                 f"{figure5['min_pitch_width_over_min_at_35nm']:.1f}x |\n")
    stream.write(f"| W/Wmin @50 nm, min pitch | > 35 nm value | "
                 f"{figure5['min_pitch_width_over_min_at_50nm']:.1f}x |\n")
    stream.write(f"| routing fraction @35 nm, min pitch | 17-20 % | "
                 f"{figure5['min_pitch_routing_at_35nm']:.1%} |\n")
    stream.write(f"| W/Wmin @35 nm, ITRS pads | > 2000x | "
                 f"{figure5['itrs_width_over_min_at_35nm']:,.0f}x |\n\n")
    stream.write(
        "Shape reproduced: roughly quadratic growth, the 50 nm > 35 nm "
        "power-density dip, and the ITRS-pad-count explosion.  Our "
        "ITRS-scenario endpoint (~1200x) sits below the paper's "
        "\"over 2000x\" log-axis reading but makes the identical "
        "point: the grid is unroutable without more bumps.  The 1-D "
        "analytic formula matches the sparse strip solver to <0.1 % "
        "(E-V1); a realistic 2-D mesh lands within the calibrated "
        "crowding allowance.\n\n")

    # ---- Claims --------------------------------------------------------
    c1 = results["E-C1"]
    stream.write("## E-C1 / Section 2.1 -- thermal management\n\n")
    stream.write(
        f"Cooling-cost cliff 65 -> 75 W: "
        f"**{c1['cooling_cost_ratio_75_over_65']:.1f}x** (paper: 3x).  "
        f"DTM's effective worst case buys a "
        f"**{c1['theta_relief']:.0%}** higher theta_ja (paper: 33 %).  "
        "Closed-loop simulation on an effective-worst-case package: "
        f"virus+DTM peaks at {c1['virus_dtm_max_tj_c']:.1f} C "
        f"({c1['virus_dtm_throughput']:.0%} throughput), virus without "
        f"DTM violates at {c1['virus_unmanaged_max_tj_c']:.1f} C, and "
        "a realistic application runs unthrottled "
        f"({c1['app_dtm_throughput']:.0%}).\n\n")

    c2 = results["E-C2"]
    stream.write("## E-C2 / Section 2.2 -- global signaling\n\n")
    stream.write(
        f"Repeater count: **{c2['repeater_count_180nm']:,.0f}** at "
        f"180 nm -> **{c2['repeater_count_50nm']:,.0f}** at 50 nm "
        "(paper: ~1e4 -> ~1e6); signaling power "
        f"**{c2['signaling_power_50nm_w']:.0f} W** at 50 nm (paper: "
        ">50 W).  Differential low-swing at 10 % of Vdd: "
        f"**{c2['low_swing_energy_saving']:.0%}** energy saving, "
        f"{c2['low_swing_transient_reduction']:.1f}x smaller supply "
        f"transients, {c2['low_swing_area_ratio']:.2f}x routing tracks "
        "(paper: \"may be less than the expected factor of 2\").  "
        "Repeater-cluster power density at 50 nm: "
        f"**{c2['cluster_power_density_w_cm2']:.0f} W/cm^2** for a "
        f"{c2['cluster_delay_penalty']:.1%} spacing-quantisation delay "
        "cost (footnote 2: \"can exceed 100 W/cm2\").\n\n")

    c3 = results["E-C3"]
    stream.write("## E-C3 / Section 2.4 -- clustered voltage scaling\n\n")
    stream.write(
        f"On slack-rich synthetic netlists: "
        f"**{c3['low_vdd_fraction']:.0%}** of gates reach "
        f"Vdd,l = 0.65 Vdd,h (paper: ~75 %), with level conversion at "
        f"**{c3['lc_power_fraction']:.1%}** of dynamic power (paper: "
        f"8-10 %), for a **{c3['dynamic_saving']:.0%}** dynamic "
        "saving.  The paper's 45-50 % assumes uniform per-gate power; "
        "our load-weighted netlists land lower because the lowered "
        "population (shallow cones) carries lighter loads than the "
        "critical cones that stay at Vdd,h.  Row-based placement, "
        "converters and dual rails cost "
        f"**{c3['area_overhead']:.0%}** of cell area (ref [18]: "
        "15 %).\n\n")

    c4 = results["E-C4"]
    stream.write("## E-C4 / Section 3.2.2 -- dual-Vth assignment\n\n")
    stream.write(
        "Across three slack scenarios (slack-rich / area-recovered / "
        "tight): leakage savings of "
        f"**{c4['saving_tight']:.0%} - {c4['saving_slack_rich']:.0%}**"
        " (paper band: 40-80 %), with worst critical-path penalty "
        f"{c4['worst_delay_penalty']:.1%} (\"minimal\").\n\n")

    c5 = results["E-C5"]
    stream.write("## E-C5 / Section 3.3 -- re-sizing vs Vdd\n\n")
    stream.write(
        f"Down-sizing is sublinear: a "
        f"{c5['sizing_width_saving']:.0%} width cut buys only a "
        f"{c5['sizing_dynamic_saving']:.0%} dynamic saving "
        f"(sublinearity {c5['sizing_sublinearity']:.2f}); CVS saves "
        f"{c5['cvs_dynamic_saving']:.0%} on the same design.  Running "
        "re-sizing first shrinks the Vdd,l population from "
        f"{c5['cvs_first_low_vdd_fraction']:.0%} to "
        f"{c5['cvs_after_sizing_low_vdd_fraction']:.0%} -- the paper's "
        "ordering argument.  The combined Conclusion-3 flow reaches "
        f"**{c5['combined_total_saving']:.0%}** total power saving "
        f"({c5['combined_static_saving']:.0%} static).\n\n")

    c6 = results["E-C6"]
    stream.write("## E-C6 / Section 4 -- power delivery\n\n")
    stream.write(
        f"35 nm: **{c6['supply_current_35nm_a']:.0f} A** supply "
        f"current (paper: 300 A) over **{c6['vdd_pads_35nm']:.0f}** "
        "Vdd bumps (paper: 1500) = "
        f"{c6['per_bump_current_a'] * 1e3:.0f} mA per bump vs a "
        f"{c6['bump_limit_a'] * 1e3:.0f} mA limit: infeasible, "
        f"**{c6['vdd_bump_shortfall']:.0f}** more Vdd bumps needed.  "
        f"Effective ITRS pitch {c6['effective_pitch_um']:.0f} um "
        "(paper: 356 um).  Wake-up droop improves "
        f"**{c6['wakeup_improvement']:.0f}x** at the minimum bump "
        "pitch; MCML draws a "
        f"**{c6['mcml_transient_advantage']:.1f}x** smaller peak "
        "supply current than speed-matched CMOS.\n\n")

    c7 = results["E-C7"]
    stream.write("## E-C7 / Section 2.3 -- libraries and cell "
                 "generation\n\n")
    stream.write(
        f"The default library carries the quoted richness "
        f"(**{c7['inverter_drive_strengths']:.0f}** inverter sizes, "
        f"**{c7['nand2_drive_strengths']:.0f}** NAND2 sizes).  "
        "On-the-fly cell generation on top of it saves "
        f"**{c7['cellgen_power_saving']:.0%}** switching power at "
        "fixed timing (paper: 15-22 %; our baseline mapper is already "
        "energy-optimal over a rich ladder, so the remaining headroom "
        "is smaller than ref [17]'s industrial flow).\n\n")

    v1 = results["E-V1"]
    stream.write("## E-V1 -- analytic IR model vs grid solver\n\n")
    stream.write(
        f"1-D strip solver vs the p^2/8 formula: "
        f"**{v1['strip_error']:.2%}** error.  2-D mesh (only every 4th "
        f"rail bumped): {v1['grid_margin']:.2f}x the analytic value, "
        "inside the calibrated crowding allowance's neighbourhood.\n\n")

    x1 = results["E-X1"]
    x2 = results["E-X2"]
    x3 = results["E-X3"]["summary"]
    x4 = results["E-X4"]
    stream.write("## E-X1..E-X4 -- extensions\n\n")
    stream.write(
        f"**E-X1** leakage toolbox: MTCMOS gives a "
        f"{x1['mtcmos_standby_reduction']:,.0f}x standby reduction at "
        f"{x1['mtcmos_area_overhead']:.0%} area / "
        f"{x1['mtcmos_delay_penalty']:.0%} delay; reverse body bias "
        f"decays from {x1['body_bias_reduction_180nm']:.0f}x (180 nm) "
        f"to {x1['body_bias_reduction_35nm']:.1f}x (35 nm) -- the "
        "paper's scaling caveat; mixed-Vth stacks save "
        f"{x1['stack_leakage_saving']:.0%} leakage for "
        f"{x1['stack_delay_penalty']:.0%} delay.\n\n"
        f"**E-X2** DVS vs throttling: {x2['dvs_throughput']:.0%} vs "
        f"{x2['throttling_throughput']:.0%} throughput at the same "
        "junction limit -- the Transmeta lever.\n\n"
        f"**E-X3** global clock domains: the edge-crossing divider "
        f"grows from {x3['divider_at_180nm']} to "
        f"{x3['divider_at_35nm']} across the roadmap, and the divided "
        "global clock meets the ITRS targets at every node with "
        "unscaled top-level wiring (ref [9]'s claim).\n\n"
        f"**E-X4** electrothermal feedback (0.25 C/W package, 160 W "
        f"dynamic): the 50 nm / Vth = 0.04 V node settles at "
        f"{x4['tj_50nm_c']:.0f} C with leakage at "
        f"{x4['leakage_fraction_50nm']:.0%} of total power and a "
        f"runaway threshold of only {x4['runaway_theta_50nm']:.2f} C/W"
        f"; 70 nm settles at {x4['tj_70nm_c']:.0f} C with "
        f"{x4['leakage_fraction_70nm']:.0%} leakage.  Self-heating "
        "amplifies every node's 300 K leakage estimate by 3-5x -- an "
        "independent, quantitative argument for the paper's preference "
        "of the 0.7 V / higher-Vth 50 nm variant.\n\n")

    et1 = results["E-ET1"]
    et2 = results["E-ET2"]
    et3 = results["E-ET3"]
    et4 = results["E-ET4"]
    stream.write("## E-ET1..E-ET4 -- closed-loop co-simulation\n\n")
    stream.write(
        f"**E-ET1** wake-up droop: the RLC supply-loop transient "
        f"reproduces the closed-form `L di/dt` answer within "
        f"**{et1['max_abs_rel_error']:.1%}** across both nodes and "
        "bump scenarios (acceptance band 5 %).\n\n"
        f"**E-ET2** DTM virus co-simulation (droop-derated frequency, "
        f"temperature-dependent leakage): the unmanaged chip peaks at "
        f"{et2['unmanaged_max_junction_c']:.1f} C (violation), every "
        f"throttle policy holds the junction under the limit at >= "
        f"{et2['min_throughput_fraction']:.0%} throughput with "
        f"{et2['throttle_0.5_voltage_emergencies']:.0f} voltage "
        "emergencies.\n\n"
        f"**E-ET3** thermal runaway ({et3['theta_scale']:.1f}x "
        f"under-sized package): unmanaged, the leakage loop diverges "
        f"past the model ceiling; with DTM the junction settles "
        f"bounded at {et3['dtm_final_junction_c']:.0f} C at "
        f"{et3['dtm_throughput_fraction']:.0%} throughput.\n\n"
        f"**E-ET4** step droop vs decap: simulated peak droop matches "
        f"`dI * Z0` within {et4['max_abs_rel_error']:.1%} and halves "
        "for every 4x of on-die decap, the paper's quadratic decap "
        "lever.\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate EXPERIMENTS.md via the engine")
    parser.add_argument(
        "--check", action="store_true",
        help="don't write; exit 1 if EXPERIMENTS.md is out of date")
    args = parser.parse_args(argv)

    buffer = io.StringIO()
    write_report(buffer)
    fresh = buffer.getvalue()

    if args.check:
        committed = open("EXPERIMENTS.md", encoding="utf-8").read()
        if committed != fresh:
            print("EXPERIMENTS.md is out of date; rerun "
                  "python scripts/generate_experiments_md.py",
                  file=sys.stderr)
            return 1
        print("EXPERIMENTS.md is up to date")
        return 0

    with open("EXPERIMENTS.md", "w", encoding="utf-8") as stream:
        stream.write(fresh)
    print("wrote EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
