"""Datasets and query workloads standing in for the paper's evaluation data.

* :mod:`repro.workloads.synthetic` — the correlated Gaussian datasets
  (Figures 5, 6, 7).
* :mod:`repro.workloads.dmv` — a synthetic stand-in for the New York DMV
  registration dump (Table 3, Figures 3–4).
* :mod:`repro.workloads.instacart` — a synthetic stand-in for the
  Instacart orders table (Table 3, Figures 3–4).
* :mod:`repro.workloads.queries` — conjunctive range-predicate generators
  (random, sliding, fixed, and per-dataset templates).
* :mod:`repro.workloads.shifts` — the data-drift scenario of Figure 5.
* :mod:`repro.workloads.drift` — a seeded abrupt-shift drift stream
  for streaming-window training tests and benchmarks.
* :mod:`repro.workloads.joins` — skewed-key, filter-correlated join
  tables and join-query generators for the join-estimation benchmarks.
"""

from repro.workloads.dmv import DMV_SCHEMA, DMVDataset, dmv_dataset, dmv_table
from repro.workloads.drift import (
    AbruptShiftStream,
    DriftRegime,
)
from repro.workloads.joins import (
    JoinQueryGenerator,
    skewed_join_tables,
    zipf_key_frequencies,
)
from repro.workloads.instacart import (
    INSTACART_SCHEMA,
    InstacartDataset,
    instacart_dataset,
    instacart_table,
)
from repro.workloads.queries import (
    FixedRangeQueryGenerator,
    RandomRangeQueryGenerator,
    SlidingRangeQueryGenerator,
    dmv_queries,
    instacart_queries,
    labelled_feedback,
)
from repro.workloads.shifts import CorrelationDriftScenario, DriftPhase
from repro.workloads.synthetic import (
    GaussianDataset,
    correlation_matrix,
    gaussian_dataset,
)

__all__ = [
    "GaussianDataset",
    "gaussian_dataset",
    "correlation_matrix",
    "DMV_SCHEMA",
    "DMVDataset",
    "dmv_dataset",
    "dmv_table",
    "INSTACART_SCHEMA",
    "InstacartDataset",
    "instacart_dataset",
    "instacart_table",
    "JoinQueryGenerator",
    "skewed_join_tables",
    "zipf_key_frequencies",
    "RandomRangeQueryGenerator",
    "SlidingRangeQueryGenerator",
    "FixedRangeQueryGenerator",
    "dmv_queries",
    "instacart_queries",
    "labelled_feedback",
    "CorrelationDriftScenario",
    "DriftPhase",
    "DriftRegime",
    "AbruptShiftStream",
]
