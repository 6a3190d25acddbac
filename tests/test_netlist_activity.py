"""Probabilistic activity estimation vs simulation."""

import pytest

from repro.circuits.gate import GateKind
from repro.circuits.mcml import CMOS_GLITCH_FACTOR
from repro.circuits.library import build_library
from repro.errors import NetlistError
from repro.netlist.activity import (
    estimated_activity_map,
    signal_probabilities,
    transition_densities,
)
from repro.netlist.graph import Netlist
from repro.netlist.generate import random_netlist
from repro.netlist.logic import measured_activity


@pytest.fixture(scope="module")
def library():
    return build_library(100)


def _single_gate(library, kind):
    netlist = Netlist(100, clock_period_s=1e-9)
    netlist.add_input("a")
    netlist.add_input("b")
    if kind is GateKind.INVERTER:
        cell = library.cells_of_kind(kind)[4]
        netlist.add_instance("g", cell, ("a",))
    else:
        cell = library.cells_of_kind(kind)[4]
        netlist.add_instance("g", cell, ("a", "b"))
    netlist.finalize()
    return netlist


class TestSignalProbabilities:
    def test_inverter(self, library):
        netlist = _single_gate(library, GateKind.INVERTER)
        probs = signal_probabilities(netlist, input_probability=0.3)
        assert probs["g"] == pytest.approx(0.7)

    def test_nand(self, library):
        netlist = _single_gate(library, GateKind.NAND)
        probs = signal_probabilities(netlist, input_probability=0.5)
        assert probs["g"] == pytest.approx(0.75)

    def test_nor(self, library):
        netlist = _single_gate(library, GateKind.NOR)
        probs = signal_probabilities(netlist, input_probability=0.5)
        assert probs["g"] == pytest.approx(0.25)

    def test_probabilities_in_unit_interval(self):
        netlist = random_netlist(100, n_gates=200, seed=11)
        for value in signal_probabilities(netlist).values():
            assert 0.0 <= value <= 1.0

    def test_validation(self):
        netlist = random_netlist(100, n_gates=40, seed=0)
        with pytest.raises(NetlistError):
            signal_probabilities(netlist, input_probability=1.5)


class TestTransitionDensities:
    def test_inverter_passes_density(self, library):
        netlist = _single_gate(library, GateKind.INVERTER)
        densities = transition_densities(netlist, input_density=0.4)
        assert densities["g"] == pytest.approx(0.4)

    def test_nand_sensitisation(self, library):
        # D(out) = p_b D_a + p_a D_b = 0.5*0.4 + 0.5*0.4 = 0.4 at
        # p = 0.5, D = 0.4.
        netlist = _single_gate(library, GateKind.NAND)
        densities = transition_densities(netlist, input_density=0.4)
        assert densities["g"] == pytest.approx(0.4)

    def test_density_scales_with_input_density(self):
        netlist = random_netlist(100, n_gates=150, seed=13)
        low = transition_densities(netlist, input_density=0.1)
        high = transition_densities(netlist, input_density=0.5)
        assert sum(high.values()) == pytest.approx(
            5.0 * sum(low.values()))

    def test_negative_density_rejected(self):
        netlist = random_netlist(100, n_gates=40, seed=0)
        with pytest.raises(NetlistError):
            transition_densities(netlist, input_density=-0.1)


class TestAgainstSimulation:
    def test_aggregate_tracks_simulation(self):
        netlist = random_netlist(100, n_gates=200, seed=21)
        simulated = measured_activity(netlist, n_vectors=400, seed=1)
        estimated = estimated_activity_map(netlist, input_density=0.5)
        total_sim = sum(simulated.activity_map().values())
        total_est = sum(estimated.values())
        # Independence assumptions bias the estimate; aggregate must
        # stay within ~2.5x either way across random netlists.
        assert 0.4 < total_est / total_sim < 2.5

    def test_estimate_cross_checks_simulation(self):
        netlist = random_netlist(100, n_gates=250, seed=22)
        estimated = estimated_activity_map(netlist)
        simulated = measured_activity(netlist, n_vectors=300, seed=2)
        ratio = (sum(estimated.values())
                 / sum(simulated.activity_map().values()))
        assert 0.4 < ratio < 2.5

    def test_map_is_capped(self):
        netlist = random_netlist(100, n_gates=150, seed=23)
        for value in estimated_activity_map(netlist,
                                            input_density=0.9).values():
            assert 0.0 <= value <= 1.0


class TestActivityRegimes:
    """The activity factors behind Figs. 1/4 and the CMOS glitch
    multiplier behind Section 4's MCML comparison."""

    def test_busy_random_logic(self):
        netlist = random_netlist(100, n_gates=250, seed=21, max_depth=24)
        result = measured_activity(netlist, n_vectors=300, seed=1)
        # Busy traffic produces the high-activity regime; the glitch
        # factor exceeds one and sits below the conservative datapath
        # multiplier of the MCML comparison (random logic glitches less
        # than arithmetic).
        assert 0.1 < result.mean_activity() < 0.5
        assert 1.0 <= result.mean_glitch_factor() <= CMOS_GLITCH_FACTOR

    @pytest.mark.parametrize("flip,band", [(0.03, (0.005, 0.12)),
                                           (0.5, (0.1, 0.5))])
    def test_input_activity_sets_the_band(self, flip, band):
        netlist = random_netlist(100, n_gates=200, seed=23)
        result = measured_activity(netlist, n_vectors=300, seed=3,
                                   flip_probability=flip)
        low, high = band
        assert low < result.mean_activity() < high
