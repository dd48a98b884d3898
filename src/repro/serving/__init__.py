"""The selectivity-estimation serving layer.

The seed reproduction served every estimate as a blocking scalar call on
a mutable estimator; this package turns the observe → refit → estimate
loop into a small production-shaped subsystem:

* :mod:`repro.serving.snapshot` — immutable, versioned model snapshots,
* :mod:`repro.serving.registry` — per-``(table, columns)`` snapshot
  registry with atomic hot-swap on publish,
* :mod:`repro.serving.cache` — version-scoped LRU result cache,
* :mod:`repro.serving.policy` — count- and drift-based refit triggers,
* :mod:`repro.serving.scheduler` — background (or inline) refit execution,
* :mod:`repro.serving.stats` — hit rate, latency percentiles, refit
  counters, and the ``Counters`` core every layer's counter set uses,
* :mod:`repro.serving.service` — the :class:`SelectivityService`
  front-end tying it all together (``estimate`` / ``estimate_batch`` /
  ``observe``),
* :mod:`repro.serving.adapter` — a
  :class:`~repro.estimators.base.SelectivityEstimator`-protocol view so
  the engine's optimizer and feedback loop use the service unchanged.

The stack is generic over the
:class:`~repro.estimators.backend.TrainableBackend` protocol: any
estimator with ``observe_many``/``refit``/``snapshot_model`` — QuickSel
natively, the adapted query-driven and scan-based baselines — serves
behind the same snapshot/version discipline, with per-backend error
stats.

Batch-API contract: ``estimate_batch`` answers every predicate from one
snapshot version and matches per-predicate ``estimate`` to < 1e-9.
"""

from repro.serving.adapter import SelectivityServing, ServingEstimator
from repro.serving.cache import EstimateCache, FrequencySketch, predicate_cache_key
from repro.serving.policy import RefitDecision, RefitPolicy
from repro.serving.registry import (
    EstimatorRegistry,
    ModelKey,
    SnapshotCell,
    normalize_key,
)
from repro.serving.scheduler import RefitScheduler
from repro.serving.service import FastSlot, SelectivityService
from repro.serving.snapshot import ModelSnapshot
from repro.serving.stats import ServingStats

__all__ = [
    "ModelSnapshot",
    "ModelKey",
    "SnapshotCell",
    "normalize_key",
    "EstimatorRegistry",
    "EstimateCache",
    "FrequencySketch",
    "predicate_cache_key",
    "RefitPolicy",
    "RefitDecision",
    "RefitScheduler",
    "ServingStats",
    "FastSlot",
    "SelectivityService",
    "SelectivityServing",
    "ServingEstimator",
]
