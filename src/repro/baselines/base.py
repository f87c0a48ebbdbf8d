"""Base classes for the state-of-the-art comparison models (Table I, Fig. 10).

Each comparator from the paper is described by:

* a **feature profile** — the qualitative rows of Table I (open source,
  reusable design, decoupled access/execute, programmable affine dimensions,
  fine-grained prefetch, runtime addressing-mode switching, on-the-fly data
  manipulation);
* an **overhead profile** — the share of system area/power its data-movement
  machinery occupies, as compiled by the paper in Fig. 10 (right);
* optionally a **performance model** — an analytic utilization estimate used
  for the normalized-throughput comparison of Fig. 10 (left).  These models
  are behavioural approximations built from each accelerator's documented
  data-orchestration scheme (see DESIGN.md, substitution table); they are not
  re-implementations of the original RTL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..workloads.spec import Workload

class AnalyticCycleModel:
    """Event-protocol view of an analytic performance estimate.

    The comparator models are closed-form — they predict a total cycle count
    without maintaining per-cycle state — which is the extreme case of the
    next-event protocol (:mod:`repro.engine`): *every* intermediate cycle is
    skippable.  This adapter exposes an estimate as an event-driven target so
    the shared :class:`~repro.sim.runner.CycleRunner` can drive baselines and
    the cycle-level system through one interface: the event engine completes
    the model in two real steps (the first step proves the fixpoint, one
    bulk ``advance`` jumps to the completion event), while the lockstep
    engine grinds through all ``total_cycles`` — both report the same count.
    """

    def __init__(self, name: str, total_cycles: int) -> None:
        if total_cycles <= 0:
            raise ValueError("total_cycles must be positive")
        self.name = name
        self.total_cycles = int(total_cycles)
        self.cycle = 0
        self.last_step_activity = 0
        #: Cycles the event engine bulk-advanced instead of stepping.
        self.skipped_cycles = 0

    @property
    def done(self) -> bool:
        return self.cycle >= self.total_cycles

    def step(self) -> bool:
        """Advance one cycle; only the completion cycle counts as activity."""
        if self.done:
            return False
        self.cycle += 1
        self.last_step_activity = 1 if self.done else 0
        return not self.done

    def next_event_cycle(self) -> Optional[int]:
        """The only event an analytic model schedules is its completion."""
        if self.done:
            return None
        return self.total_cycles - 1

    def advance(self, cycles: int) -> None:
        """Skip ``cycles`` — an analytic model has no per-cycle counters."""
        self.cycle += cycles
        self.skipped_cycles += cycles


#: Feature keys in the order Table I lists them.
TABLE1_FEATURES = (
    "open_source",
    "reusable_design",
    "decoupled_access_execute",
    "programmable_affine_dims",
    "fine_grained_prefetch",
    "runtime_addressing_mode_switching",
    "on_the_fly_data_manipulation",
)


@dataclass(frozen=True)
class FeatureProfile:
    """One row set of Table I."""

    open_source: bool
    reusable_design: bool
    decoupled_access_execute: bool
    #: Number of programmable affine dimensions (0 = not programmable,
    #: ``None`` encodes the paper's "N-D" for DataMaestro).
    programmable_affine_dims: Optional[int]
    fine_grained_prefetch: bool
    runtime_addressing_mode_switching: bool
    on_the_fly_data_manipulation: bool

    def as_dict(self) -> Dict[str, object]:
        dims = self.programmable_affine_dims
        if dims is None:
            dims_text = "N-D"
        elif dims == 0:
            dims_text = False
        else:
            dims_text = f"{dims}-D"
        return {
            "open_source": self.open_source,
            "reusable_design": self.reusable_design,
            "decoupled_access_execute": self.decoupled_access_execute,
            "programmable_affine_dims": dims_text,
            "fine_grained_prefetch": self.fine_grained_prefetch,
            "runtime_addressing_mode_switching": self.runtime_addressing_mode_switching,
            "on_the_fly_data_manipulation": self.on_the_fly_data_manipulation,
        }


@dataclass(frozen=True)
class OverheadProfile:
    """Share of the whole accelerator system used by data movement."""

    area_percent: Optional[float]
    power_percent: Optional[float]
    source: str = "paper Fig. 10 (right)"


class DataMovementSolution:
    """A state-of-the-art data movement solution / accelerator."""

    #: Display name (matching the paper's Table I column headers).
    name: str = "unnamed"
    #: Publication reference, for reports.
    reference: str = ""

    @property
    def slug(self) -> str:
        """Registry identifier of this model.

        ``BASELINE_REGISTRY`` stamps its authoritative key onto every model
        it instantiates; models built directly fall back to a slug derived
        from the display name.
        """
        assigned = getattr(self, "_slug", None)
        if assigned is not None:
            return assigned
        text = self.name.lower()
        for old, new in ((" (", "-"), (")", ""), (" ", "-"), ("[", ""), ("]", ""), (".", "")):
            text = text.replace(old, new)
        return text

    def feature_profile(self) -> FeatureProfile:
        raise NotImplementedError

    def overhead_profile(self) -> Optional[OverheadProfile]:
        """Data-movement area/power share, if the literature reports it."""
        return None

    # ------------------------------------------------------------------
    # Performance model (only the Fig. 10 throughput baselines implement it).
    # ------------------------------------------------------------------
    @property
    def has_performance_model(self) -> bool:
        return False

    def utilization(self, workload: Workload) -> float:
        """Estimated PE-array utilization on ``workload`` (0..1)."""
        raise NotImplementedError(f"{self.name} has no performance model")

    def normalized_throughput_gops(
        self, workload: Workload, num_pes: int = 512, frequency_ghz: float = 1.0
    ) -> float:
        """Throughput normalized to a common PE count and clock (Fig. 10)."""
        return 2.0 * num_pes * frequency_ghz * self.utilization(workload)

    def estimated_cycles(
        self,
        workload: Workload,
        mu: int = 8,
        nu: int = 8,
        ku: int = 8,
        utilization: Optional[float] = None,
    ) -> int:
        """The model's total cycle count for ``workload``.

        Requires a performance model: the ideal compute cycle count on an
        ``mu×nu×ku`` PE array divided by the model's estimated utilization.
        Callers that already evaluated the model pass ``utilization`` to
        avoid a second evaluation.
        """
        if utilization is None:
            utilization = self.utilization(workload)  # raises without a model
        ideal = workload.ideal_compute_cycles(mu, nu, ku)
        return max(1, int(round(ideal / max(utilization, 1e-9))))

    def analytic_cycle_model(
        self,
        workload: Workload,
        mu: int = 8,
        nu: int = 8,
        ku: int = 8,
        utilization: Optional[float] = None,
    ) -> AnalyticCycleModel:
        """Wrap :meth:`estimated_cycles` as an event-driven target."""
        return AnalyticCycleModel(
            name=f"{self.slug}:{workload.name}",
            total_cycles=self.estimated_cycles(workload, mu, nu, ku, utilization),
        )

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "slug": self.slug,
            "reference": self.reference,
            "has_performance_model": self.has_performance_model,
        }
        data.update(self.feature_profile().as_dict())
        overhead = self.overhead_profile()
        if overhead is not None:
            data["data_movement_area_percent"] = overhead.area_percent
            data["data_movement_power_percent"] = overhead.power_percent
        return data
