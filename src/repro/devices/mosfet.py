"""Compact MOSFET I-V model: Eqs. (2)-(4) of the paper.

The paper's static-power analysis (Table 2, Figs. 1-4) is driven by three
compact expressions from Chen & Hu [32] and Hu [33]:

* Eq. (3) -- the velocity-saturated intrinsic saturation current::

      Idsat0 = (W mu_eff Coxe / 2 Leff) (Vdd - Vth)^2
               / (1 + (Vdd - Vth) / (Esat Leff))

* Eq. (2) -- Ion degraded by parasitic source resistance Rs::

      Ion = Idsat0 / (1 + 2 Idsat0 Rs / (Vdd - Vth)
                        - Idsat0 Rs / (Vdd - Vth + Esat Leff))

* Eq. (4) -- exponential subthreshold leakage with an assumed 85 mV/decade
  swing at room temperature::

      Ioff = 10 uA/um * 10^(-Vth / 85 mV)

We extend Eq. (4) with two standard effects the paper invokes
qualitatively but does not write out:

* **DIBL**: Section 3.3 states that "static power decays roughly
  quadratically with Vdd reductions (given a fixed Vth) due to shrinking
  Ioff and a smaller Vdd value".  At fixed Vth the only mechanism that
  shrinks Ioff when Vdd drops is drain-induced barrier lowering; a DIBL
  coefficient of ~0.1 V/V reproduces the quoted quadratic decay and the
  Fig. 3/4 headline numbers.
* **Temperature**: Fig. 1 is evaluated at 85 C.  The swing scales as
  kT/q and the threshold drops with temperature at ~0.7 mV/K, both
  textbook behaviours.

All currents are per unit transistor width, expressed in uA/um (equal to
A/m), matching the paper's units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import units
from repro.devices.oxide import GateStack
from repro.errors import ModelParameterError

#: Subthreshold swing assumed by the paper at room temperature [mV/decade].
SUBTHRESHOLD_SWING_300K_MV = 85.0

#: Prefactor of Eq. (4) [uA/um]: leakage at Vth = 0.
IOFF_PREFACTOR_UA_UM = 10.0

#: Default DIBL coefficient [V/V] (see module docstring; fitted within
#: the physical 0.05-0.15 V/V range to the Fig. 3 headline points).
DEFAULT_DIBL_V_PER_V = 0.12

#: Threshold-voltage temperature coefficient [V/K] (Vth falls as T rises).
#: Physical values span ~0.4-1 mV/K; the low end is used, fitted jointly
#: with the Fig. 1 / Fig. 4 operating points (see DESIGN.md section 5).
VTH_TEMPERATURE_COEFF_V_PER_K = 0.4e-3

#: Minimum gate overdrive accepted by the saturation-current expressions [V].
_MIN_OVERDRIVE_V = 1e-4


def subthreshold_swing_mv(temperature_k: float = 300.0) -> float:
    """Subthreshold swing at the given temperature [mV/decade].

    85 mV/decade at 300 K (the paper's assumption), scaling linearly
    with absolute temperature as kT/q does.
    """
    if temperature_k <= 0:
        raise ModelParameterError("temperature must be positive")
    return SUBTHRESHOLD_SWING_300K_MV * temperature_k / 300.0


def subthreshold_ioff_na_um(vth_v: float,
                            temperature_k: float = 300.0) -> float:
    """The temperature terms of Eq. (4) at a drain-biased Vth [nA/um].

    ``vth_v`` already carries the DIBL shift for the drain bias, so a
    caller that fixes device and bias (the chip leakage chain of
    :mod:`repro.power.static`) works it out once and evaluates only
    this per temperature.  :meth:`MosfetModel.ioff_na_um` is this plus
    the DIBL shift.
    """
    swing_v = subthreshold_swing_mv(temperature_k) * 1e-3
    effective_vth = (vth_v
                     - VTH_TEMPERATURE_COEFF_V_PER_K * (temperature_k - 300.0))
    ioff_ua = IOFF_PREFACTOR_UA_UM * 10.0 ** (-effective_vth / swing_v)
    return ioff_ua * 1e3  # uA/um -> nA/um


@dataclass(frozen=True)
class DeviceParams:
    """Physical parameters of one NMOS technology (a "model card").

    ``mu_eff_cm2`` is the only per-node fitted parameter (the paper does
    not publish mobilities); everything else is either quoted by the paper
    or a fixed physical constant.  See :mod:`repro.devices.params`.
    """

    #: Label, e.g. the technology node in nm.
    node_nm: int
    #: Nominal supply voltage [V].
    vdd_v: float
    #: Effective channel length [nm].
    leff_nm: float
    #: Gate stack (physical thickness + electrode type).
    gate_stack: GateStack
    #: Effective channel mobility [cm^2/Vs] (fitted).
    mu_eff_cm2: float
    #: Saturation velocity [m/s].
    vsat_m_s: float
    #: Parasitic source resistance [ohm*um], per the ITRS.
    rs_ohm_um: float
    #: Threshold voltage at nominal Vdd, room temperature [V].
    vth_v: float
    #: DIBL coefficient [V per V of drain bias].
    dibl_v_per_v: float = DEFAULT_DIBL_V_PER_V

    def __post_init__(self) -> None:
        for name in ("vdd_v", "leff_nm", "mu_eff_cm2", "vsat_m_s"):
            if getattr(self, name) <= 0:
                raise ModelParameterError(
                    f"DeviceParams.{name} must be positive, "
                    f"got {getattr(self, name)!r}"
                )
        if self.rs_ohm_um < 0:
            raise ModelParameterError("source resistance cannot be negative")
        if self.dibl_v_per_v < 0:
            raise ModelParameterError("DIBL coefficient cannot be negative")
        if self.vth_v >= self.vdd_v:
            raise ModelParameterError(
                f"Vth {self.vth_v} V leaves no overdrive at Vdd {self.vdd_v} V"
            )

    def with_vth(self, vth_v: float) -> "DeviceParams":
        """Return a copy with a different threshold voltage."""
        return replace(self, vth_v=vth_v)

    def with_gate_stack(self, gate_stack: GateStack) -> "DeviceParams":
        """Return a copy with a different gate stack."""
        return replace(self, gate_stack=gate_stack)

    def with_mobility(self, mu_eff_cm2: float) -> "DeviceParams":
        """Return a copy with a different effective mobility."""
        return replace(self, mu_eff_cm2=mu_eff_cm2)


class MosfetModel:
    """Evaluates Eqs. (2)-(4) for a :class:`DeviceParams` card."""

    def __init__(self, params: DeviceParams):
        self.params = params

    # --- geometry / derived constants ------------------------------------

    @property
    def esat_v_per_m(self) -> float:
        """Lateral field that saturates carrier velocity [V/m].

        Standard velocity-saturation relation Esat = 2 vsat / mu_eff.
        """
        mu_si = units.cm2_per_vs(self.params.mu_eff_cm2)
        return 2.0 * self.params.vsat_m_s / mu_si

    @property
    def esat_leff_v(self) -> float:
        """The Esat * Leff product of Eqs. (2)-(3) [V]."""
        return self.esat_v_per_m * units.nm(self.params.leff_nm)

    # --- Eq. (3): intrinsic saturation current ----------------------------

    def idsat0_ua_um(self, vdd_v: float | None = None,
                     vth_v: float | None = None) -> float:
        """Intrinsic saturation current per Eq. (3) [uA/um]."""
        vdd = self.params.vdd_v if vdd_v is None else vdd_v
        vth = self.params.vth_v if vth_v is None else vth_v
        overdrive = vdd - vth
        if overdrive < _MIN_OVERDRIVE_V:
            return 0.0
        mu_si = units.cm2_per_vs(self.params.mu_eff_cm2)
        coxe = self.params.gate_stack.coxe
        leff = units.nm(self.params.leff_nm)
        width = 1e-6  # per micron of width
        prefactor = width * mu_si * coxe / (2.0 * leff)
        current_a = (prefactor * overdrive ** 2
                     / (1.0 + overdrive / self.esat_leff_v))
        return current_a * 1e6  # A per um of width -> uA/um

    # --- Eq. (2): Ion with source resistance ------------------------------

    def ion_ua_um(self, vdd_v: float | None = None,
                  vth_v: float | None = None) -> float:
        """On-current per Eq. (2) [uA/um]."""
        vdd = self.params.vdd_v if vdd_v is None else vdd_v
        vth = self.params.vth_v if vth_v is None else vth_v
        overdrive = vdd - vth
        if overdrive < _MIN_OVERDRIVE_V:
            return 0.0
        idsat0_ua = self.idsat0_ua_um(vdd, vth)
        # Rs is in ohm*um; current is per-um, so (uA/um)*(ohm*um) = uV.
        ir_drop_v = idsat0_ua * self.params.rs_ohm_um * 1e-6
        divisor = (1.0
                   + 2.0 * ir_drop_v / overdrive
                   - ir_drop_v / (overdrive + self.esat_leff_v))
        if divisor <= 0:
            raise ModelParameterError(
                f"source-resistance correction diverged (divisor {divisor}); "
                f"Rs = {self.params.rs_ohm_um} ohm*um is unphysically large"
            )
        return idsat0_ua / divisor

    # --- Eq. (4): subthreshold leakage -------------------------------------

    def subthreshold_swing_mv(self, temperature_k: float = 300.0) -> float:
        """Subthreshold swing at the given temperature [mV/decade]."""
        return subthreshold_swing_mv(temperature_k)

    def ioff_na_um(self, vdd_v: float | None = None,
                   vth_v: float | None = None,
                   temperature_k: float = 300.0) -> float:
        """Off-current per Eq. (4), extended with DIBL/temperature [nA/um].

        At ``vdd_v == params.vdd_v`` and 300 K this reduces exactly to the
        paper's Eq. (4): ``10 uA/um * 10^(-Vth/85 mV)``.
        """
        vdd = self.params.vdd_v if vdd_v is None else vdd_v
        vth = self.params.vth_v if vth_v is None else vth_v
        if vdd < 0:
            raise ModelParameterError("Vdd cannot be negative")
        return subthreshold_ioff_na_um(
            vth - self.params.dibl_v_per_v * (vdd - self.params.vdd_v),
            temperature_k)

    # --- convenience -------------------------------------------------------

    def static_power_w_per_um(self, vdd_v: float | None = None,
                              vth_v: float | None = None,
                              temperature_k: float = 300.0) -> float:
        """Standby power Vdd * Ioff per micron of device width [W/um]."""
        vdd = self.params.vdd_v if vdd_v is None else vdd_v
        ioff_na = self.ioff_na_um(vdd, vth_v, temperature_k)
        return vdd * ioff_na * 1e-9

    def on_off_ratio(self, vdd_v: float | None = None,
                     vth_v: float | None = None,
                     temperature_k: float = 300.0) -> float:
        """Ion / Ioff ratio (dimensionless)."""
        ion_ua = self.ion_ua_um(vdd_v, vth_v)
        ioff_ua = self.ioff_na_um(vdd_v, vth_v, temperature_k) * 1e-3
        if ioff_ua == 0:
            raise ModelParameterError("Ioff underflowed to zero")
        return ion_ua / ioff_ua
