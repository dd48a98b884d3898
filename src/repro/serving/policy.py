"""When to retrain: count- and drift-based refit triggers.

The seed reproduction refit lazily — any estimate after new feedback paid
the full retraining cost inline.  The serving layer instead accumulates
feedback and asks a :class:`RefitPolicy` after every observation whether
a (background) refit is due:

* **count trigger** — at least ``min_new_observations`` pieces of
  feedback have arrived since the last published model, so the model is
  simply out of date;
* **drift trigger** — the served model is *wrong*: the mean absolute
  error between the estimate the current snapshot serves and the true
  selectivity the engine measured, over the last ``drift_window``
  observations, exceeds ``drift_threshold``.  This fires early under
  workload shift (the paper's Figure 7 scenario) even when the count
  trigger has not filled up.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import ServingError

__all__ = ["RefitDecision", "RefitPolicy"]


@dataclass(frozen=True)
class RefitDecision:
    """The policy's verdict plus a human-readable reason for metrics/logs.

    ``trigger`` names which rule fired (``"count"`` or ``"drift"``;
    empty when no refit is due) so the serving stats can count
    drift-driven refits separately.
    """

    refit: bool
    reason: str = ""
    trigger: str = ""

    def __bool__(self) -> bool:
        return self.refit


@dataclass(frozen=True)
class RefitPolicy:
    """Tunable triggers deciding when accumulated feedback forces a refit.

    Attributes:
        min_new_observations: count trigger — refit once this many
            observations are pending since the last publish.
        drift_threshold: drift trigger — refit when the rolling mean
            absolute estimation error exceeds this value.
        drift_window: number of recent observations the drift statistic
            averages over.
        min_drift_observations: don't evaluate drift until at least this
            many errors are available (avoids firing on one bad query).
    """

    min_new_observations: int = 32
    drift_threshold: float = 0.1
    drift_window: int = 16
    min_drift_observations: int = 8

    def __post_init__(self) -> None:
        if self.min_new_observations < 1:
            raise ServingError("min_new_observations must be at least 1")
        if not (0.0 < self.drift_threshold <= 1.0):
            raise ServingError("drift_threshold must be in (0, 1]")
        if self.drift_window < 1:
            raise ServingError("drift_window must be at least 1")
        if self.min_drift_observations < 1:
            raise ServingError("min_drift_observations must be at least 1")

    def decide(
        self,
        pending_observations: int,
        recent_errors: Sequence[float],
    ) -> RefitDecision:
        """Evaluate the triggers against the current feedback state.

        Args:
            pending_observations: feedback recorded since the last publish.
            recent_errors: absolute ``|served - observed|`` errors, oldest
                first; only the trailing ``drift_window`` entries are used.
        """
        if pending_observations >= self.min_new_observations:
            return RefitDecision(
                True,
                f"count: {pending_observations} >= {self.min_new_observations}",
                trigger="count",
            )
        if pending_observations > 0 and len(recent_errors) >= self.min_drift_observations:
            window = list(recent_errors)[-self.drift_window:]
            mean_error = sum(window) / len(window)
            if mean_error > self.drift_threshold:
                return RefitDecision(
                    True,
                    f"drift: mean |error| {mean_error:.4f} > "
                    f"{self.drift_threshold:.4f} over {len(window)} queries",
                    trigger="drift",
                )
        return RefitDecision(False)
