"""Static-CMOS gate model built on the compact device equations.

The paper's circuit-level numbers (Figs. 1, 3, 4 and the library analysis
of Section 2.3) all derive from a simple gate abstraction:

* an inverter with Wn/L = 4 and Wp/L = 8 (paper footnote 6);
* propagation delay proportional to C_load * Vdd / Ion (the standard
  CV/I metric, with a 0.7 fitting factor chosen so the 180 nm FO4 delay
  lands near the classic ~65 ps);
* dynamic energy C * Vdd^2 per transition;
* subthreshold leakage proportional to the width of the off devices,
  averaged over input states, with a 10x stack-effect reduction per
  additional series off transistor (Section 3.3 / [38]).

NAND/NOR gates are modelled with the usual series/parallel width scaling
so the library and netlist layers can reuse one implementation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro import units
from repro.devices.mosfet import DeviceParams, MosfetModel
from repro.errors import ModelParameterError

#: CV/I delay fitting factor (dimensionless).  0.7 reproduces the classic
#: ~65 ps FO4 delay at the 180 nm node.
DELAY_FIT_K = 0.7

#: Ratio of total gate capacitance to the ideal Coxe*W*L (overlap and
#: fringing overhead).
CAP_FACTOR = 1.2

#: PMOS-to-NMOS mobility ratio used to derate PMOS drive per unit width.
PMOS_DRIVE_DERATE = 0.5

#: Leakage reduction per additional OFF transistor in a series stack.
STACK_LEAKAGE_FACTOR = 0.1

#: Default NMOS width in units of Leff (paper footnote 6: Wn/L = 4).
DEFAULT_WN_OVER_L = 4.0

#: Default PMOS width in units of Leff (paper footnote 6: Wp/L = 8).
DEFAULT_WP_OVER_L = 8.0


class GateKind(enum.Enum):
    """Supported static-CMOS gate topologies."""

    INVERTER = "inv"
    NAND = "nand"
    NOR = "nor"


@dataclass(frozen=True)
class GateDesign:
    """Sizing and topology of one gate.

    ``size`` multiplies both device widths (drive strength X-factor);
    ``beta`` is the P/N width ratio (2.0 gives balanced rise/fall with the
    0.5 PMOS derate).
    """

    kind: GateKind = GateKind.INVERTER
    n_inputs: int = 1
    size: float = 1.0
    beta: float = 2.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ModelParameterError(f"gate size must be positive: {self.size}")
        if self.beta <= 0:
            raise ModelParameterError(f"beta must be positive: {self.beta}")
        if self.n_inputs < 1:
            raise ModelParameterError("a gate needs at least one input")
        if self.kind is GateKind.INVERTER and self.n_inputs != 1:
            raise ModelParameterError("an inverter has exactly one input")
        if self.kind is not GateKind.INVERTER and self.n_inputs < 2:
            raise ModelParameterError(
                f"a {self.kind.value} gate needs at least two inputs"
            )

    def scaled(self, factor: float) -> "GateDesign":
        """Return the same gate with its drive strength multiplied.

        A factor equal to 1 returns this design itself.
        """
        if factor == 1.0:
            return self
        return replace(self, size=self.size * factor)


class GateModel:
    """Delay / power model of a :class:`GateDesign` in one technology.

    ``device`` and ``design`` are read-only: the input capacitance is
    computed once, drive currents are memoized per supply and threshold
    and leakage currents per supply, threshold and temperature, so a
    model never changes after construction and its memos only ever hold
    what a fresh build computes.  That is what lets
    :func:`repro.circuits.library.gate_model` share one model per
    (cell, Vth, size) state across a process.
    """

    def __init__(self, device: DeviceParams, design: GateDesign | None = None,
                 wn_over_l: float = DEFAULT_WN_OVER_L):
        self._device = device
        self._design = design if design is not None else GateDesign()
        if wn_over_l <= 0:
            raise ModelParameterError("Wn/L must be positive")
        self._wn_over_l = wn_over_l
        self._model = MosfetModel(device)
        gate_area = (self.wn_m + self.wp_m) * self.leff_m
        self._input_cap_f = CAP_FACTOR * device.gate_stack.coxe * gate_area
        # (vdd_v, vth_v) -> drive current [A]
        self._drive_memo: dict[tuple[float | None, float | None], float] = {}
        # (vdd_v, vth_v, temperature_k) -> leakage current [A]
        self._leak_memo: dict[tuple[float | None, float | None, float],
                              float] = {}

    @property
    def device(self) -> DeviceParams:
        """Device card the gate is built from."""
        return self._device

    @property
    def design(self) -> GateDesign:
        """Sizing and topology of the gate."""
        return self._design

    # --- geometry ----------------------------------------------------------

    @property
    def leff_m(self) -> float:
        """Channel length [m]."""
        return units.nm(self.device.leff_nm)

    @property
    def wn_m(self) -> float:
        """Total NMOS width [m], including series-stack up-sizing.

        NAND pull-downs are stacked n-high, so each NMOS is made n times
        wider to preserve drive (standard practice); NOR stacks the PMOS
        instead.
        """
        base = self._wn_over_l * self.leff_m * self.design.size
        if self.design.kind is GateKind.NAND:
            return base * self.design.n_inputs
        return base

    @property
    def wp_m(self) -> float:
        """Total PMOS width [m], including series-stack up-sizing."""
        base = (self._wn_over_l * self.design.beta * self.leff_m
                * self.design.size)
        if self.design.kind is GateKind.NOR:
            return base * self.design.n_inputs
        return base

    # --- capacitance ---------------------------------------------------------

    @property
    def input_cap_f(self) -> float:
        """Capacitance presented at one input pin [F]."""
        return self._input_cap_f

    @property
    def parasitic_cap_f(self) -> float:
        """Self-loading (drain junction) capacitance at the output [F].

        Approximated as equal to the input capacitance per unit width --
        the standard logical-effort assumption (p ~ 1 for an inverter).
        """
        return self.input_cap_f

    # --- drive -----------------------------------------------------------------

    def drive_current_a(self, vdd_v: float | None = None,
                        vth_v: float | None = None) -> float:
        """Worst-case output drive current [A].

        The weaker of pull-down and pull-up; series stacks divide the
        per-width current by the stack height (already compensated by the
        width up-sizing in :attr:`wn_m`/:attr:`wp_m`).  Memoized per
        ``(vdd_v, vth_v)``.
        """
        key = (vdd_v, vth_v)
        drive = self._drive_memo.get(key)
        if drive is None:
            drive = self._drive_memo[key] = self._drive_current_a(vdd_v, vth_v)
        return drive

    def _drive_current_a(self, vdd_v: float | None,
                         vth_v: float | None) -> float:
        ion_per_um = self._model.ion_ua_um(vdd_v, vth_v) * 1e-6  # A/um
        wn_um = units.to_um(self.wn_m)
        wp_um = units.to_um(self.wp_m)
        n_stack = (self.design.n_inputs
                   if self.design.kind is GateKind.NAND else 1)
        p_stack = (self.design.n_inputs
                   if self.design.kind is GateKind.NOR else 1)
        pull_down = ion_per_um * wn_um / n_stack
        pull_up = ion_per_um * PMOS_DRIVE_DERATE * wp_um / p_stack
        return min(pull_down, pull_up)

    # --- delay -------------------------------------------------------------------

    def delay_s(self, load_f: float, vdd_v: float | None = None,
                vth_v: float | None = None) -> float:
        """Propagation delay into ``load_f`` [s]: k * C * Vdd / Ion."""
        if load_f < 0:
            raise ModelParameterError("load capacitance cannot be negative")
        vdd = self.device.vdd_v if vdd_v is None else vdd_v
        drive = self.drive_current_a(vdd, vth_v)
        if drive <= 0:
            raise ModelParameterError(
                f"gate has no drive at Vdd = {vdd} V "
                f"(Vth = {vth_v if vth_v is not None else self.device.vth_v} V)"
            )
        total_load = load_f + self.parasitic_cap_f
        return DELAY_FIT_K * total_load * vdd / drive

    # --- power ----------------------------------------------------------------------

    def dynamic_energy_j(self, load_f: float,
                         vdd_v: float | None = None) -> float:
        """Energy per output transition pair, C * Vdd^2 [J]."""
        vdd = self.device.vdd_v if vdd_v is None else vdd_v
        return (load_f + self.parasitic_cap_f) * vdd ** 2

    def dynamic_power_w(self, load_f: float, frequency_hz: float,
                        activity: float,
                        vdd_v: float | None = None) -> float:
        """Average switching power, alpha * f * C * Vdd^2 [W]."""
        if not 0.0 <= activity <= 1.0:
            raise ModelParameterError(
                f"switching activity must lie in [0, 1], got {activity}"
            )
        if frequency_hz <= 0:
            raise ModelParameterError("frequency must be positive")
        return activity * frequency_hz * self.dynamic_energy_j(load_f, vdd_v)

    def leakage_current_a(self, vdd_v: float | None = None,
                          vth_v: float | None = None,
                          temperature_k: float = 300.0) -> float:
        """Input-state-averaged leakage current [A].

        For an inverter, half the time the NMOS leaks (input low) and half
        the time the PMOS leaks.  For NAND/NOR, the stacked network leaks
        through a series stack in the worst input state; we average the
        single-device and stacked states with the 10x-per-level stack
        suppression.  Memoized per ``(vdd_v, vth_v, temperature_k)``.
        """
        key = (vdd_v, vth_v, temperature_k)
        leak = self._leak_memo.get(key)
        if leak is None:
            leak = self._leak_memo[key] = self._leakage_current_a(*key)
        return leak

    def _leakage_current_a(self, vdd_v: float | None,
                           vth_v: float | None,
                           temperature_k: float) -> float:
        ioff_per_um = (self._model.ioff_na_um(vdd_v, vth_v, temperature_k)
                       * 1e-9)  # A/um
        wn_um = units.to_um(self.wn_m)
        wp_um = units.to_um(self.wp_m)
        n = self.design.n_inputs
        if self.design.kind is GateKind.INVERTER:
            return 0.5 * ioff_per_um * (wn_um + wp_um)
        if self.design.kind is GateKind.NAND:
            # NMOS stack: average suppression over input states; PMOS
            # devices are parallel, one leaks per off state on average.
            stack = STACK_LEAKAGE_FACTOR ** (n - 1)
            nmos = ioff_per_um * (wn_um / n) * stack
            pmos = ioff_per_um * wp_um / n
            return 0.5 * (nmos + pmos)
        # NOR: mirror image.
        stack = STACK_LEAKAGE_FACTOR ** (n - 1)
        pmos = ioff_per_um * (wp_um / n) * stack
        nmos = ioff_per_um * wn_um / n
        return 0.5 * (nmos + pmos)

    def static_power_w(self, vdd_v: float | None = None,
                       vth_v: float | None = None,
                       temperature_k: float = 300.0) -> float:
        """Average leakage power Vdd * Ileak [W]."""
        vdd = self.device.vdd_v if vdd_v is None else vdd_v
        return vdd * self.leakage_current_a(vdd, vth_v, temperature_k)

    # --- reference metrics ------------------------------------------------------------

    def fo4_delay_s(self, vdd_v: float | None = None,
                    vth_v: float | None = None,
                    extra_load_f: float = 0.0) -> float:
        """Delay driving four copies of itself plus ``extra_load_f`` [s]."""
        return self.delay_s(4.0 * self.input_cap_f + extra_load_f,
                            vdd_v, vth_v)
