"""Incremental timing engine: equivalence with full STA and the dict oracle."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.netlist.sta as sta_module
import repro.optim.upsize as upsize_module
from repro.analysis.claims import _claims_netlist
from repro.analysis.experiments import EXPERIMENTS
from repro.errors import NetlistError
from repro.netlist.generate import random_netlist
from repro.netlist.sta import build_timing_index, compute_sta
from repro.optim.combined import combined_flow
from repro.optim.cvs import assign_cvs
from repro.optim.dual_vth import assign_dual_vth
from repro.optim.incremental import _EPS_S, IncrementalTimer
from repro.optim.sizing import downsize_netlist
from tests.timing_oracle import DictIncrementalTimer


@pytest.fixture
def netlist():
    return random_netlist(100, n_gates=150, seed=11, clock_margin=1.2)


def test_initial_state_matches_full_sta(netlist):
    timer = IncrementalTimer(netlist)
    report = compute_sta(netlist)
    assert timer.critical_delay_s == pytest.approx(
        report.critical_delay_s)
    for name in netlist.topo_order():
        assert timer.arrival_s[name] == pytest.approx(
            report.arrival_s[name])


def test_accepted_change_matches_full_sta(netlist):
    timer = IncrementalTimer(netlist)
    name = list(netlist.topo_order())[50]
    instance = netlist.instances[name]
    instance.vth_v = instance.cell.device.vth_v + 0.05
    assert timer.try_change([name])
    report = compute_sta(netlist)
    for other in netlist.topo_order():
        assert timer.arrival_s[other] == pytest.approx(
            report.arrival_s[other]), other


def test_rejected_change_preserves_state(netlist):
    timer = IncrementalTimer(netlist)
    before = dict(timer.arrival_s)
    # Make a gate catastrophically slow so endpoints miss timing.
    name = list(netlist.topo_order())[0]
    instance = netlist.instances[name]
    instance.size_factor = 0.01
    accepted = timer.try_change([name])
    if accepted:
        pytest.skip("gate was not on any near-critical path")
    instance.size_factor = 1.0  # caller must revert
    assert timer.arrival_s == before


def test_meets_timing_flag(netlist):
    timer = IncrementalTimer(netlist)
    assert timer.meets_timing()
    assert not timer.meets_timing(period_s=timer.critical_delay_s * 0.5)


def test_unknown_name_rejected(netlist):
    timer = IncrementalTimer(netlist)
    with pytest.raises(NetlistError):
        timer.try_change(["ghost"])


def test_resize_changes_fanin_delays_too(netlist):
    # Shrinking a gate unloads its fanins; passing the fanins in
    # `changed` must leave the timer equivalent to a full STA.
    timer = IncrementalTimer(netlist)
    name = list(netlist.topo_order())[80]
    instance = netlist.instances[name]
    instance.size_factor = 0.5
    changed = [name] + [f for f in instance.fanins
                        if f in netlist.instances]
    if timer.try_change(changed):
        report = compute_sta(netlist)
        for other in netlist.topo_order():
            assert timer.arrival_s[other] == pytest.approx(
                report.arrival_s[other])


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500),
       picks=st.lists(st.integers(min_value=0, max_value=119),
                      min_size=3, max_size=8))
def test_random_mutation_sequence_stays_consistent(seed, picks):
    netlist = random_netlist(100, n_gates=120, seed=seed,
                             clock_margin=1.15)
    timer = IncrementalTimer(netlist)
    names = list(netlist.topo_order())
    for pick in picks:
        name = names[pick]
        instance = netlist.instances[name]
        previous = instance.vth_v
        instance.vth_v = instance.cell.device.vth_v + 0.08
        if not timer.try_change([name]):
            instance.vth_v = previous
    report = compute_sta(netlist)
    assert timer.critical_delay_s == pytest.approx(
        report.critical_delay_s)
    assert report.meets_timing()


def test_undriven_fanin_raises_at_construction(netlist):
    # A fanin that is neither a primary input nor a timed instance
    # used to be silently treated as arriving at t = 0, optimistically
    # passing timing; the timer must refuse the netlist instead.
    name = netlist.topo_order()[-1]
    instance = netlist.instances[name]
    instance.fanins = (*instance.fanins, "ghost-net")
    with pytest.raises(NetlistError, match="ghost-net"):
        IncrementalTimer(netlist)


def test_misnamed_fanin_raises_during_try_change(netlist):
    timer = IncrementalTimer(netlist)
    name = netlist.topo_order()[-1]
    instance = netlist.instances[name]
    instance.fanins = (*instance.fanins, "ghost-net")
    with pytest.raises(NetlistError, match="ghost-net"):
        timer.try_change([name])


def test_compute_sta_rejects_undriven_fanin(netlist):
    # Full STA used to drop an unknown fanin, timing it at t = 0; it
    # shares the timer's fanin resolver now and raises the same error.
    name = netlist.topo_order()[-1]
    instance = netlist.instances[name]
    instance.fanins = (*instance.fanins, "ghost-net")
    with pytest.raises(NetlistError, match="ghost-net"):
        compute_sta(netlist)


# -- differential: array timer vs the dict-keyed oracle ----------------


def _logic_levels(netlist) -> dict[str, int]:
    """Gate depth, counting a gate fed only by primary inputs as 1."""
    graph = build_timing_index(netlist)
    levels: list[int] = []
    for fanins in graph.fanins:
        levels.append(1 + max((levels[f] for f in fanins), default=0))
    return dict(zip(graph.order, levels))


def _assert_timers_agree(timer, oracle, netlist, levels):
    arrivals = dict(timer.arrival_s)
    assert arrivals == oracle.arrival_s
    assert timer.critical_delay_s == oracle.critical_delay_s
    # Pruning keeps an arrival within _EPS_S of its recomputed value, so
    # the drift from a fresh full STA is bounded by _EPS_S per level.
    report = compute_sta(netlist)
    for name, value in arrivals.items():
        assert abs(value - report.arrival_s[name]) <= levels[name] * _EPS_S


_MOVES = st.lists(
    st.tuples(st.sampled_from(("vth", "resize", "vdd", "probe")),
              st.integers(min_value=0, max_value=10**6)),
    min_size=10, max_size=60)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500), moves=_MOVES)
def test_array_timer_matches_dict_oracle(seed, moves):
    """Random flow moves: same decisions, equal arrivals, STA-consistent.

    The moves are the flows' own: a Vth bump (dual-Vth), a resize with
    its fanins re-timed (down-sizing), a supply change with the
    converter flag set (CVS), and fix_timing's period-free
    probe-and-revert up-size.
    """
    netlist = random_netlist(100, n_gates=120, seed=seed,
                             clock_margin=1.03)
    timer = IncrementalTimer(netlist)
    oracle = DictIncrementalTimer(netlist)
    names = list(netlist.topo_order())
    levels = _logic_levels(netlist)
    low_vdd = 0.65 * netlist.nominal_vdd_v
    unbounded = float("inf")
    for kind, pick in moves:
        name = names[pick % len(names)]
        instance = netlist.instances[name]
        saved = (instance.vth_v, instance.size_factor, instance.vdd_v,
                 instance.level_converter)
        changed = [name]
        if kind in ("resize", "probe"):
            changed += [f for f in instance.fanins
                        if f in netlist.instances]
        if kind == "vth":
            instance.vth_v = (instance.cell.device.vth_v + 0.08
                              if instance.vth_v is None else None)
        elif kind == "resize":
            step = 0.8 if pick % 2 else 1.25
            instance.size_factor = min(4.0, max(0.35,
                                                saved[1] * step))
        elif kind == "vdd":
            instance.vdd_v = low_vdd if instance.vdd_v is None else None
            instance.level_converter = netlist.needs_level_converter(name)
        else:
            previous_critical = timer.critical_delay_s
            instance.size_factor = saved[1] * 1.25
            assert timer.try_change(changed, period_s=unbounded)
            assert oracle.try_change(changed, period_s=unbounded)
            if not timer.critical_delay_s < previous_critical - 1e-18:
                instance.size_factor = saved[1]
                assert timer.try_change(changed, period_s=unbounded)
                assert oracle.try_change(changed, period_s=unbounded)
            _assert_timers_agree(timer, oracle, netlist, levels)
            continue
        accepted = timer.try_change(changed)
        assert oracle.try_change(changed) == accepted
        if not accepted:
            (instance.vth_v, instance.size_factor, instance.vdd_v,
             instance.level_converter) = saved
        _assert_timers_agree(timer, oracle, netlist, levels)


# -- decision pins: the flows' accept/reject outcomes ------------------


def test_cvs_decisions_pinned():
    assert assign_cvs(_claims_netlist()).n_low_vdd == 301


def test_downsizing_decisions_pinned():
    assert downsize_netlist(_claims_netlist()).n_resized == 400


@pytest.mark.parametrize("min_factor, n_high", [
    (None, 346), (0.7, 325), (0.5, 264)])
def test_dual_vth_decisions_pinned(min_factor, n_high):
    # E-C4's three scenarios: slack-rich, area-recovered, tight.
    netlist = random_netlist(35, n_gates=400, seed=2, depth_skew=1.6,
                             clock_margin=1.05)
    if min_factor is not None:
        downsize_netlist(netlist, min_factor=min_factor)
    assert assign_dual_vth(netlist, clock_margin=1.0).n_high_vth == n_high


def test_combined_flow_decisions_pinned():
    flow = combined_flow(_claims_netlist())
    assert (flow.cvs.n_low_vdd, flow.sizing.n_resized,
            flow.dual_vth.n_high_vth) == (301, 390, 400)


# -- work pins: how much timing each optimization experiment does -----


@pytest.mark.parametrize("experiment_id, trials, sta_passes", [
    ("E-C3", 306, 1), ("E-C4", 3021, 3), ("E-C5", 4671, 3)])
def test_flow_work_pinned(monkeypatch, experiment_id, trials, sta_passes):
    # Timer trials and full STA passes per experiment (what perfbench
    # traces as optim.incremental.try_changes and netlist.sta.calls):
    # a flow run twice, or a netlist generated twice, shows up here.
    counts = {"trials": 0, "sta": 0}
    try_change = IncrementalTimer.try_change
    compute = sta_module.compute_sta

    def counting_try_change(self, *args, **kwargs):
        counts["trials"] += 1
        return try_change(self, *args, **kwargs)

    def counting_compute_sta(*args, **kwargs):
        counts["sta"] += 1
        return compute(*args, **kwargs)

    monkeypatch.setattr(IncrementalTimer, "try_change", counting_try_change)
    monkeypatch.setattr(sta_module, "compute_sta", counting_compute_sta)
    monkeypatch.setattr(upsize_module, "compute_sta", counting_compute_sta)
    EXPERIMENTS[experiment_id].runner()
    assert (counts["trials"], counts["sta"]) == (trials, sta_passes)
