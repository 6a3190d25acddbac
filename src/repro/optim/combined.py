"""The combined multi-Vdd + multi-Vth + re-sizing flow (Conclusion 3).

"Non-critical gates are first assigned to a reduced Vdd, followed by
sizing and Vth selection to reduce power most efficiently."

The flow therefore runs, on one netlist:

1. **CVS** multi-Vdd assignment (quadratic dynamic savings first);
2. **down-sizing** of whatever slack remains (sublinear, so second);
3. **dual-Vth** assignment to claw back leakage.

The paper also argues that running re-sizing *before* multi-Vdd is
sub-optimal ("more paths approach criticality; this makes the
application of multi-Vdd approaches less advantageous"); the
``ordering_study`` helper quantifies that by running both orders on
identical netlists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.netlist.graph import Netlist
from repro.netlist.power import NetlistPower, netlist_power
from repro.optim.cvs import DEFAULT_VDD_RATIO, CvsResult, assign_cvs
from repro.optim.dual_vth import DualVthResult, assign_dual_vth
from repro.optim.sizing import SizingResult, downsize_netlist


@dataclass(frozen=True)
class CombinedResult:
    """Stage-by-stage outcome of the combined flow."""

    power_initial: NetlistPower
    cvs: CvsResult
    sizing: SizingResult
    dual_vth: DualVthResult
    power_final: NetlistPower

    @property
    def total_dynamic_saving(self) -> float:
        """End-to-end dynamic-power reduction (incl. LC overhead)."""
        before = self.power_initial.total_dynamic_w
        if before == 0:
            return 0.0
        return 1.0 - self.power_final.total_dynamic_w / before

    @property
    def total_static_saving(self) -> float:
        """End-to-end leakage reduction."""
        before = self.power_initial.static_w
        if before == 0:
            return 0.0
        return 1.0 - self.power_final.static_w / before

    @property
    def total_saving(self) -> float:
        """End-to-end total power reduction."""
        before = self.power_initial.total_w
        if before == 0:
            return 0.0
        return 1.0 - self.power_final.total_w / before


def combined_flow(netlist: Netlist, vdd_ratio: float = 0.65,
                  vth_offset_v: float = 0.100, activity: float = 0.1,
                  temperature_k: float = 300.0) -> CombinedResult:
    """Run the Conclusion-3 flow on ``netlist`` in place.

    The dual-Vth stage runs against the netlist's *existing* clock (no
    re-baselining), since CVS and sizing have already consumed the slack
    the paper's flow intends to spend on supply reduction first.
    """
    power_initial = netlist_power(netlist, activity, temperature_k)
    cvs_result = assign_cvs(netlist, vdd_ratio=vdd_ratio,
                            activity=activity,
                            temperature_k=temperature_k)
    sizing_result = downsize_netlist(netlist, activity=activity,
                                     temperature_k=temperature_k)
    dual_result = assign_dual_vth(netlist, vth_offset_v=vth_offset_v,
                                  temperature_k=temperature_k,
                                  rebase_clock=False)
    power_final = netlist_power(netlist, activity, temperature_k)
    return CombinedResult(
        power_initial=power_initial,
        cvs=cvs_result,
        sizing=sizing_result,
        dual_vth=dual_result,
        power_final=power_final,
    )


@dataclass(frozen=True)
class OrderingStudy:
    """CVS-first vs sizing-first comparison (Section 3.3's argument).

    ``cvs_first`` and ``sizing`` are CVS and down-sizing each run once
    on a fresh copy of the design, so they are also the two arms of
    :func:`~repro.optim.sizing.resizing_vs_vdd_comparison` at the same
    settings.
    """

    #: CVS result when CVS runs first.
    cvs_first: CvsResult
    #: Down-sizing result on the netlist CVS then runs on.
    sizing: SizingResult
    #: CVS result when down-sizing has already consumed the slack.
    cvs_after_sizing: CvsResult

    @property
    def low_vdd_fraction_drop(self) -> float:
        """How much of the Vdd,l population re-sizing-first destroys."""
        return (self.cvs_first.low_vdd_fraction
                - self.cvs_after_sizing.low_vdd_fraction)


def ordering_study(netlist_factory: Callable[[], Netlist],
                   vdd_ratio: float = DEFAULT_VDD_RATIO,
                   activity: float = 0.1,
                   temperature_k: float = 300.0) -> OrderingStudy:
    """Quantify why multi-Vdd should precede re-sizing.

    ``netlist_factory`` must return identical netlists on each call.
    One copy gets CVS; another is down-sized and then gets CVS, and the
    study keeps that down-sizing's result as ``sizing``.
    """
    cvs_first = assign_cvs(netlist_factory(), vdd_ratio=vdd_ratio,
                           activity=activity, temperature_k=temperature_k)

    resized = netlist_factory()
    sizing = downsize_netlist(resized, activity=activity,
                              temperature_k=temperature_k)
    cvs_after = assign_cvs(resized, vdd_ratio=vdd_ratio, activity=activity,
                           temperature_k=temperature_k)
    return OrderingStudy(cvs_first=cvs_first, sizing=sizing,
                         cvs_after_sizing=cvs_after)
