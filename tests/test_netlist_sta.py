"""Static timing analysis: invariants and hand-checkable cases."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.scaling import SCALE_N_GATES, SCALE_SEED
from repro.circuits.gate import GateKind
from repro.circuits.library import build_library
from repro.errors import NetlistError
from repro.netlist.graph import Netlist
from repro.netlist.sta import compute_sta
from repro.netlist.generate import random_netlist


@pytest.fixture(scope="module")
def library():
    return build_library(100)


def _chain(library, length, period=1e-9):
    netlist = Netlist(100, clock_period_s=period)
    netlist.add_input("a")
    inv = library.cells_of_kind(GateKind.INVERTER)[6]
    previous = "a"
    for index in range(length):
        name = f"g{index}"
        netlist.add_instance(name, inv, (previous,))
        previous = name
    netlist.finalize()
    return netlist


class TestChain:
    def test_arrival_accumulates(self, library):
        netlist = _chain(library, 4)
        report = compute_sta(netlist)
        arrivals = [report.arrival_s[f"g{i}"] for i in range(4)]
        assert all(a < b for a, b in zip(arrivals, arrivals[1:]))
        # The endpoint's arrival is the sum of all stage delays.
        total = sum(netlist.gate_delay_s(f"g{i}") for i in range(4))
        assert arrivals[-1] == pytest.approx(total)

    def test_slack_uniform_along_chain(self, library):
        netlist = _chain(library, 4)
        report = compute_sta(netlist)
        slacks = set(round(report.slack_s[f"g{i}"] * 1e15)
                     for i in range(4))
        assert len(slacks) == 1  # single path: identical slack everywhere

    def test_critical_path_is_whole_chain(self, library):
        netlist = _chain(library, 5)
        report = compute_sta(netlist)
        assert list(report.critical_path) == [f"g{i}" for i in range(5)]

    def test_meets_timing_thresholds(self, library):
        netlist = _chain(library, 3)
        report = compute_sta(netlist)
        assert report.meets_timing()
        tight = compute_sta(netlist,
                            clock_period_s=report.critical_delay_s * 0.5)
        assert not tight.meets_timing()

    def test_worst_slack_relation(self, library):
        netlist = _chain(library, 3)
        report = compute_sta(netlist)
        assert report.worst_slack_s == pytest.approx(
            report.clock_period_s - report.critical_delay_s)


class TestInvariants:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_required_ge_arrival_when_meeting_timing(self, seed):
        netlist = random_netlist(100, n_gates=120, seed=seed,
                                 clock_margin=1.2)
        report = compute_sta(netlist)
        for name in netlist.topo_order():
            assert report.slack_s[name] == pytest.approx(
                report.required_s[name] - report.arrival_s[name])
        assert report.worst_slack_s >= 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_arrival_exceeds_every_fanin(self, seed):
        netlist = random_netlist(100, n_gates=120, seed=seed)
        report = compute_sta(netlist)
        for name in netlist.topo_order():
            instance = netlist.instances[name]
            for fanin in instance.fanins:
                if fanin in netlist.instances:
                    assert report.arrival_s[name] \
                        > report.arrival_s[fanin]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_critical_path_arrival_is_max(self, seed):
        netlist = random_netlist(100, n_gates=120, seed=seed)
        report = compute_sta(netlist)
        end = report.critical_path[-1]
        assert report.arrival_s[end] == pytest.approx(
            report.critical_delay_s)

    def test_path_utilisation_fractions(self):
        netlist = random_netlist(100, n_gates=200, seed=3,
                                 clock_margin=1.1)
        report = compute_sta(netlist)
        utilisation = report.path_utilisation()
        assert all(0.0 < value <= 1.0 for value in utilisation.values())

    def test_path_utilisation_covers_exactly_the_endpoints(self):
        # The statistic is a per-*path* utilisation: one entry per
        # primary-output endpoint, none for internal gates (which used
        # to dilute the distribution toward zero).
        netlist = random_netlist(100, n_gates=200, seed=3,
                                 clock_margin=1.1)
        report = compute_sta(netlist)
        utilisation = report.path_utilisation()
        assert set(utilisation) == set(netlist.primary_outputs)
        assert len(utilisation) < len(netlist.topo_order())

    def test_path_utilisation_pinned_on_chain(self, library):
        # A 4-stage chain has exactly one endpoint; its utilisation is
        # the endpoint arrival over the clock period, to the digit.
        netlist = _chain(library, 4)
        report = compute_sta(netlist)
        utilisation = report.path_utilisation()
        assert list(utilisation) == ["g3"]
        assert utilisation["g3"] == pytest.approx(
            report.arrival_s["g3"] / netlist.clock_period_s, rel=1e-12)

    def test_critical_path_from_primary_input_only(self, library):
        # Worst endpoint driven directly by a PI: its worst_fanin is
        # None immediately, so the critical path is that single gate.
        netlist = _chain(library, 1)
        report = compute_sta(netlist)
        assert list(report.critical_path) == ["g0"]
        assert report.critical_delay_s == pytest.approx(
            netlist.gate_delay_s("g0"))

    def test_bad_period_rejected(self):
        netlist = random_netlist(100, n_gates=60, seed=0)
        with pytest.raises(NetlistError):
            compute_sta(netlist, clock_period_s=-1.0)


@pytest.mark.parametrize("n_gates", [200, 800, 2000, SCALE_N_GATES])
def test_random_netlists_meet_timing_at_scale(n_gates):
    # The largest is E-S2's netlist: the STA scaling tier must time a
    # 4000-gate design that closes.
    netlist = random_netlist(100, n_gates=n_gates, seed=SCALE_SEED)
    assert len(netlist) == n_gates
    assert compute_sta(netlist).meets_timing()
