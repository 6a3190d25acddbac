"""E-C1..E-C7: the paper's quantitative in-text claims.

Each function exercises the relevant subsystem end-to-end and returns a
flat dictionary of measured values next to the paper's quoted numbers.
"""

from __future__ import annotations

from repro.circuits.gate import GateKind
from repro.circuits.cellgen import optimize_block
from repro.circuits.library import build_library
from repro.devices.params import device_for_node
from repro.interconnect.repeaters import repeater_scaling
from repro.interconnect.signaling import compare_schemes
from repro.netlist.generate import random_netlist
from repro.optim.combined import combined_flow, ordering_study
from repro.optim.cvs import assign_cvs
from repro.optim.dual_vth import assign_dual_vth
from repro.pdn.bumps import bump_budget
from repro.pdn.transients import mcml_transient_advantage, wakeup_transient
from repro.thermal.dtm import DtmController, simulate_dtm
from repro.thermal.package import (
    cooling_cost_usd,
    dtm_packaging_benefit,
    theta_ja,
)
from repro.thermal.rc_network import default_thermal_network
from repro.thermal.sensor import ThermalSensor
from repro.thermal.workloads import power_virus_trace, realistic_app_trace

#: Netlist configuration used by the optimization claims: slack-rich,
#: matching the media-processor / MPU profiles the paper cites.
_NETLIST_NODE_NM = 100
_NETLIST_KWARGS = dict(n_gates=400, depth_skew=2.2, clock_margin=1.10)


def _claims_netlist(seed: int = 1):
    return random_netlist(_NETLIST_NODE_NM, seed=seed, **_NETLIST_KWARGS)


def claim_c1_thermal() -> dict[str, float]:
    """E-C1: DTM / packaging-cost claims of Section 2.1."""
    benefit = dtm_packaging_benefit(100.0, tj_max_c=85.0)
    tj_limit = 85.0
    cost_65 = cooling_cost_usd(65.0, tj_limit)
    cost_75 = cooling_cost_usd(75.0, tj_limit)

    virus_w = 100.0
    theta = theta_ja(tj_limit, 45.0, 0.75 * virus_w)  # DTM-sized package
    runs: dict[str, float] = {}
    for label, trace, managed in (
        ("virus_dtm", power_virus_trace(virus_w, 60.0), True),
        ("virus_unmanaged", power_virus_trace(virus_w, 60.0), False),
        ("app_dtm", realistic_app_trace(virus_w, 60.0, seed=3), True),
    ):
        network = default_thermal_network(theta)
        controller = (DtmController(ThermalSensor(trip_c=tj_limit - 2.0))
                      if managed else None)
        result = simulate_dtm(trace, network, controller)
        runs[f"{label}_max_tj_c"] = result.max_junction_c
        runs[f"{label}_throughput"] = result.throughput_fraction
    return {
        "theta_relief": benefit.theta_relief,
        "paper_theta_relief": 1.0 / 0.75 - 1.0,
        "cooling_cost_ratio_75_over_65": cost_75 / cost_65,
        "paper_cooling_cost_ratio": 3.0,
        "tj_limit_c": tj_limit,
        **runs,
    }


def claim_c2_signaling() -> dict[str, float]:
    """E-C2: repeater-count/power, low-swing, and repeater-cluster
    claims of Section 2.2."""
    from repro.interconnect.clusters import cluster_station
    at_180 = repeater_scaling(180)
    at_50 = repeater_scaling(50)
    comparison = compare_schemes(50)
    station = cluster_station(50)
    return {
        "cluster_power_density_w_cm2": station.power_density_w_cm2,
        "paper_cluster_density_bound_w_cm2": 100.0,
        "cluster_delay_penalty": station.delay_penalty,
        "repeater_count_180nm": at_180.repeater_count,
        "paper_repeater_count_180nm": 1e4,
        "repeater_count_50nm": at_50.repeater_count,
        "paper_repeater_count_50nm": 1e6,
        "signaling_power_50nm_w": at_50.signaling_power_w,
        "paper_signaling_power_bound_w": 50.0,
        "low_swing_energy_saving": comparison.energy_saving,
        "low_swing_transient_reduction": comparison.transient_reduction,
        "low_swing_area_ratio": comparison.area_ratio,
        "paper_area_ratio_bound": 2.0,
    }


def claim_c3_cvs() -> dict[str, float]:
    """E-C3: clustered voltage scaling claims of Section 2.4."""
    from repro.optim.placement import placement_overhead
    netlist = _claims_netlist()
    result = assign_cvs(netlist)
    overhead = placement_overhead(netlist)
    return {
        "area_overhead": overhead.area_overhead,
        "paper_area_overhead": 0.15,
        "low_vdd_fraction": result.low_vdd_fraction,
        "paper_low_vdd_fraction": 0.75,
        "dynamic_saving": result.dynamic_saving,
        "paper_dynamic_saving_band_low": 0.45,
        "paper_dynamic_saving_band_high": 0.50,
        "lc_power_fraction": result.power_after.lc_fraction,
        "paper_lc_power_band_low": 0.08,
        "paper_lc_power_band_high": 0.10,
        "vdd_ratio": result.vdd_low_v / result.vdd_high_v,
    }


def claim_c4_dual_vth() -> dict[str, float]:
    """E-C4: dual-Vth assignment claims of Section 3.2.2.

    Three design scenarios spanning realistic slack profiles: a
    slack-rich netlist straight out of mapping, and two that have been
    through area-recovery down-sizing (which consumes slack, as
    production flows do) to different degrees.  The paper's 40-80 % band
    reflects exactly this benchmark-to-benchmark spread.
    """
    from repro.optim.sizing import downsize_netlist

    scenarios = (
        ("slack_rich", None),
        ("area_recovered", 0.7),
        ("tight", 0.5),
    )
    savings = []
    penalties = []
    per_scenario: dict[str, float] = {}
    for label, min_factor in scenarios:
        netlist = random_netlist(35, n_gates=400, seed=2, depth_skew=1.6,
                                 clock_margin=1.05)
        if min_factor is not None:
            downsize_netlist(netlist, min_factor=min_factor)
        result = assign_dual_vth(netlist, clock_margin=1.0)
        savings.append(result.leakage_saving)
        penalties.append(result.delay_penalty)
        per_scenario[f"saving_{label}"] = result.leakage_saving
    return {
        **per_scenario,
        "leakage_saving_min": min(savings),
        "leakage_saving_max": max(savings),
        "paper_band_low": 0.40,
        "paper_band_high": 0.80,
        "worst_delay_penalty": max(penalties),
    }


def claim_c5_resizing() -> dict[str, float]:
    """E-C5: re-sizing is sublinear; Vdd reduction is quadratic.

    The ordering study down-sizes one fresh copy of the design and runs
    CVS on another, at the defaults of
    :func:`~repro.optim.sizing.resizing_vs_vdd_comparison`, so those two
    results are the sizing-vs-Vdd comparison: each flow runs once.
    """
    study = ordering_study(_claims_netlist)
    flow = combined_flow(_claims_netlist())
    return {
        "sizing_dynamic_saving": study.sizing.dynamic_saving,
        "sizing_width_saving": study.sizing.width_saving,
        "sizing_sublinearity": study.sizing.sublinearity,
        "cvs_dynamic_saving": study.cvs_first.dynamic_saving,
        "cvs_first_low_vdd_fraction": study.cvs_first.low_vdd_fraction,
        "cvs_after_sizing_low_vdd_fraction":
            study.cvs_after_sizing.low_vdd_fraction,
        "combined_total_saving": flow.total_saving,
        "combined_static_saving": flow.total_static_saving,
    }


def claim_c6_pdn() -> dict[str, float]:
    """E-C6: bump budget / wake-up transient / MCML claims of Section 4."""
    budget = bump_budget(35)
    wake_min = wakeup_transient(35, use_min_pitch=True)
    wake_itrs = wakeup_transient(35, use_min_pitch=False)
    return {
        "supply_current_35nm_a": budget.supply_current_a,
        "paper_supply_current_a": 300.0,
        "vdd_pads_35nm": float(budget.vdd_pads),
        "paper_vdd_pads": 1500.0,
        "per_bump_current_a": budget.current_per_vdd_bump_a,
        "bump_limit_a": budget.bump_current_limit_a,
        "itrs_budget_feasible": float(budget.feasible),
        "vdd_bump_shortfall": float(budget.vdd_bump_shortfall),
        "effective_pitch_um": budget.effective_pitch_um,
        "paper_effective_pitch_um": 356.0,
        "wakeup_droop_itrs": wake_itrs.droop_fraction,
        "wakeup_droop_min_pitch": wake_min.droop_fraction,
        "wakeup_improvement": (wake_itrs.droop_v / wake_min.droop_v),
        "mcml_transient_advantage": mcml_transient_advantage(50),
    }


def claim_c7_library() -> dict[str, float]:
    """E-C7: library richness / on-the-fly cell generation (Section 2.3)."""
    node_nm = 100
    device = device_for_node(node_nm)
    library = build_library(node_nm)
    inverter_strengths = library.drive_strengths(GateKind.INVERTER)
    nand_strengths = library.drive_strengths(GateKind.NAND)

    # A block of instances sampled from a netlist's load/slack profile.
    netlist = _claims_netlist(seed=5)
    from repro.netlist.sta import compute_sta  # local import, no cycle
    report = compute_sta(netlist)
    instances = []
    for name in list(netlist.topo_order())[:120]:
        instance = netlist.instances[name]
        load = netlist.load_f(name)
        budget = (netlist.gate_delay_s(name)
                  + max(report.slack_s[name], 0.0) * 0.5)
        instances.append((instance.cell.design.kind,
                          instance.cell.design.n_inputs, load, budget))
    block = optimize_block(device, library, instances)
    return {
        "inverter_drive_strengths": float(len(inverter_strengths)),
        "paper_inverter_drive_strengths": 16.0,
        "nand2_drive_strengths": float(len(nand_strengths)),
        "paper_nand2_drive_strengths": 11.0,
        "cellgen_power_saving": block.power_saving,
        "paper_cellgen_band_low": 0.15,
        "paper_cellgen_band_high": 0.22,
    }
