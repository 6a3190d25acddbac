"""Lumped thermal RC network of the die / spreader / heat-sink stack.

The DTM simulator needs thermal *dynamics*, not just the steady state of
Eq. (1): the die heats in milliseconds while the heat sink responds in
tens of seconds, which is exactly the separation of time scales that
makes sensor-driven throttling effective.

The stack is a chain of stages, each with a heat capacity and a thermal
resistance toward ambient-side; power enters at the junction (stage 0).
Integration is explicit Euler with an automatic sub-stepping rule that
keeps the step below a fraction of the fastest *stage* time constant
C_i / g_i, where g_i sums every conductance touching the stage (its
outward resistance plus, for interior stages, the upstream one).

``step`` is called once per control interval, tens of thousands of
times per sweep, so it keeps a sub-step plan (count, length and stage
R and C) per ``dt`` and stage list instead of re-deriving it. The plan
is rebuilt when either changes. The three-stage stack that
:func:`default_thermal_network` builds advances as an unrolled update;
other stage counts use a plain loop. Both use the same operation order,
``T + (inflow - out) * sub_dt / C``, so every result is bit-identical
to the list-based sub-step loop the tests keep as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ModelParameterError
from repro.itrs.packaging import AMBIENT_C

#: Explicit-Euler stability/accuracy margin: dt <= margin * min(C/g),
#: where g is each stage's total conductance (see _min_stage_time_s).
_EULER_MARGIN = 0.2


@dataclass(frozen=True)
class ThermalStage:
    """One stage of the stack: a heat capacity and its outward resistance."""

    name: str
    #: Heat capacity [J/K].
    capacity_j_per_k: float
    #: Resistance from this stage toward the next (or ambient) [C/W].
    resistance_c_per_w: float

    def __post_init__(self) -> None:
        if self.capacity_j_per_k <= 0 or self.resistance_c_per_w <= 0:
            raise ModelParameterError(
                f"thermal stage {self.name!r} needs positive R and C"
            )


class _SubStepPlan(NamedTuple):
    """The Euler sub-steps of one ``step`` interval on one stage list."""

    #: The interval the plan was made for (matched by identity, so an
    #: equal value of another numeric type gets a plan of its own).
    dt_s: float
    #: Copy of the stage list the plan was made from.
    stages: list[ThermalStage]
    n_sub: int
    sub_dt: float
    resistances: tuple[float, ...]
    capacities: tuple[float, ...]


class ThermalNetwork:
    """A chain of :class:`ThermalStage` between junction and ambient."""

    def __init__(self, stages: list[ThermalStage],
                 t_ambient_c: float = AMBIENT_C):
        if not stages:
            raise ModelParameterError("network needs at least one stage")
        self.stages = list(stages)
        self.t_ambient_c = t_ambient_c
        self.temperatures_c = [t_ambient_c] * len(stages)
        self._plan: _SubStepPlan | None = None

    @property
    def theta_ja(self) -> float:
        """Total junction-to-ambient resistance [C/W]."""
        return sum(stage.resistance_c_per_w for stage in self.stages)

    @property
    def junction_c(self) -> float:
        """Current junction temperature [C]."""
        return self.temperatures_c[0]

    def reset(self, t_c: float | None = None) -> None:
        """Set every stage to ``t_c`` (default: ambient)."""
        value = self.t_ambient_c if t_c is None else t_c
        self.temperatures_c = [value] * len(self.stages)

    def steady_state_c(self, power_w: float) -> list[float]:
        """Steady-state temperature of every stage at constant power [C]."""
        if power_w < 0:
            raise ModelParameterError("power cannot be negative")
        temperatures = []
        downstream = self.theta_ja
        for stage in self.stages:
            temperatures.append(self.t_ambient_c + power_w * downstream)
            downstream -= stage.resistance_c_per_w
        return temperatures

    def settle(self, power_w: float) -> None:
        """Jump the network to its steady state at ``power_w``."""
        self.temperatures_c = self.steady_state_c(power_w)

    def _min_stage_time_s(self) -> float:
        """Fastest per-stage time constant C_i / g_i [s].

        The explicit-Euler update of stage ``i`` has the Jacobian
        diagonal ``-g_i / C_i`` with ``g_i`` the *sum* of the stage's
        conductances: ``1/R_i`` toward ambient-side plus, for interior
        stages, ``1/R_{i-1}`` from upstream.  Bounding the sub-step by
        ``min(R_i C_i)`` alone (the old rule) misses the upstream term,
        so a stack with a small upstream resistance could violate the
        stability bound and oscillate or diverge.
        """
        fastest = float("inf")
        for index, stage in enumerate(self.stages):
            conductance = 1.0 / stage.resistance_c_per_w
            if index > 0:
                conductance += \
                    1.0 / self.stages[index - 1].resistance_c_per_w
            fastest = min(fastest, stage.capacity_j_per_k / conductance)
        return fastest

    def _sub_step_plan(self, dt_s: float) -> _SubStepPlan:
        """Sub-step count, length and stage constants for ``dt_s``."""
        max_sub = _EULER_MARGIN * self._min_stage_time_s()
        n_sub = max(1, int(dt_s / max_sub) + 1)
        stages = list(self.stages)
        return _SubStepPlan(
            dt_s=dt_s, stages=stages, n_sub=n_sub, sub_dt=dt_s / n_sub,
            resistances=tuple(stage.resistance_c_per_w for stage in stages),
            capacities=tuple(stage.capacity_j_per_k for stage in stages))

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the network by ``dt_s`` with power injected at stage 0.

        Returns the junction temperature after the step [C].
        """
        if power_w < 0:
            raise ModelParameterError("power cannot be negative")
        if dt_s <= 0:
            raise ModelParameterError("time step must be positive")
        plan = self._plan
        if plan is None or plan.dt_s is not dt_s \
                or plan.stages != self.stages:
            plan = self._plan = self._sub_step_plan(dt_s)
        n_sub, sub_dt, t_amb = plan.n_sub, plan.sub_dt, self.t_ambient_c
        temps = self.temperatures_c
        if len(plan.stages) == 3:  # default_thermal_network's stack
            r0, r1, r2 = plan.resistances
            c0, c1, c2 = plan.capacities
            t0, t1, t2 = temps[0], temps[1], temps[2]
            for _ in range(n_sub):
                f0 = (t0 - t1) / r0
                f1 = (t1 - t2) / r1
                f2 = (t2 - t_amb) / r2
                t0 = t0 + (power_w - f0) * sub_dt / c0
                t1 = t1 + (f0 - f1) * sub_dt / c1
                t2 = t2 + (f1 - f2) * sub_dt / c2
            self.temperatures_c = [t0, t1, t2]
            return t0
        resistances, capacities = plan.resistances, plan.capacities
        last = len(resistances) - 1
        for _ in range(n_sub):
            flows_out = [(temps[i] - (temps[i + 1] if i < last else t_amb))
                         / resistance
                         for i, resistance in enumerate(resistances)]
            temps = [temps[i] + ((power_w if i == 0 else flows_out[i - 1])
                                 - flows_out[i]) * sub_dt / capacity
                     for i, capacity in enumerate(capacities)]
        self.temperatures_c = temps
        return self.junction_c


def default_thermal_network(theta_ja_total: float,
                            t_ambient_c: float = AMBIENT_C
                            ) -> ThermalNetwork:
    """Build a three-stage die/spreader/sink stack with total theta_ja.

    The resistance split (20/30/50 %) and heat capacities are typical of
    a desktop processor package: the die responds in ~10 ms, the
    spreader in ~1 s, the sink in ~100 s.
    """
    if theta_ja_total <= 0:
        raise ModelParameterError("theta_ja must be positive")
    return ThermalNetwork([
        ThermalStage("die", capacity_j_per_k=0.3,
                     resistance_c_per_w=0.20 * theta_ja_total),
        ThermalStage("spreader", capacity_j_per_k=40.0,
                     resistance_c_per_w=0.30 * theta_ja_total),
        ThermalStage("heat sink", capacity_j_per_k=400.0,
                     resistance_c_per_w=0.50 * theta_ja_total),
    ], t_ambient_c=t_ambient_c)
