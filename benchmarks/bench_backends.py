"""Multi-backend serving benchmark: throughput + accuracy per backend.

Measures the claims the backend-agnostic serving refactor makes:

1. **Every backend serves.** QuickSel, ST-Holes, and AutoHist — one
   native backend and one from each adapted estimator family — are
   registered behind the same :class:`SelectivityService`
   snapshot/version discipline, fed the same feedback, and answer the
   same probe burst.
2. **The QuickSel fast path survived the refactor.** The served batch
   path is still the one-kernel-call vectorised pipeline: snapshot-level
   batched estimation must stay within 5 % of calling the underlying
   mixture model's ``estimate_from_bounds`` directly (the pre-refactor
   serving hot path), and the served cold burst must keep beating the
   scalar loop by >= 5x (the PR 1 bar).
3. **Vectorised baselines.** The ST-Holes and AutoHist
   ``estimate_many`` overrides must match their scalar loops elementwise
   (<= 1e-9) — the batch path never changes an answer, for any backend.
4. **Accuracy-per-parameter.** Per-backend mean relative error (the
   paper's metric), mean |error|, and parameter counts on the shared
   workload land in the JSON side by side.

Runs two ways:

* ``pytest benchmarks/bench_backends.py --benchmark-only`` — through the
  pytest-benchmark harness like the other benches, or
* ``python benchmarks/bench_backends.py [--quick]`` — standalone script
  (used by CI); ``--quick`` shrinks the workload but still asserts the
  parity and fast-path-dispatch bars.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.config import QuickSelConfig
from repro.core.predicate import lower_batch
from repro.core.quicksel import QuickSel
from repro.estimators import AutoHist, STHoles
from repro.serving import RefitScheduler, SelectivityService
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

MATCH_TOLERANCE = 1e-9
MIN_COLD_SPEEDUP = 5.0
MAX_FAST_PATH_OVERHEAD = 0.05  # served batch within 5% of the raw kernel path


def build_backends(dataset, feedback):
    """One trained backend per family, fed identical feedback."""
    quicksel = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
    quicksel.observe_many(feedback, refit=True)

    stholes = STHoles(dataset.domain, max_buckets=500)
    for predicate, selectivity in feedback:
        stholes.observe(predicate, selectivity)

    auto_hist = AutoHist(
        dataset.domain, lambda: dataset.rows, bucket_budget=len(feedback)
    )
    auto_hist.refresh()

    return {"quicksel": quicksel, "stholes": stholes, "auto_hist": auto_hist}


def _time(callable_, repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds (steady-state, allocator warm)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def run_backend_benchmark(
    rows: int = 20_000,
    train_queries: int = 100,
    probe_queries: int = 1_000,
    check_speedup: bool = True,
) -> dict[str, object]:
    """Serve all three backends, measure throughput and q-error each."""
    dataset = gaussian_dataset(rows, dimension=2, correlation=0.5, seed=0)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=1)
    feedback = labelled_feedback(generator.generate(train_queries), dataset.rows)
    probes = generator.generate(probe_queries)
    truths = np.array([predicate.selectivity(dataset.rows) for predicate in probes])

    backends = build_backends(dataset, feedback)
    service = SelectivityService(scheduler=RefitScheduler("inline"))
    keys = {
        name: service.register_model(name, backend)
        for name, backend in backends.items()
    }

    results: dict[str, object] = {
        "predicates": len(probes),
        "train_queries": len(feedback),
        "backends": {},
    }
    per_backend: dict[str, dict[str, float]] = results["backends"]

    for name, key in keys.items():
        snapshot = service.snapshot_for(key)
        backend = backends[name]
        # Warmup: first vectorised call pays one-time allocator cost.
        snapshot.estimate_many(probes)

        # The scalar baseline is the bare estimator's per-predicate loop
        # — the only path the seed had, and what the parity criterion
        # compares the served answers against.
        scalar = np.array([backend.estimate(p) for p in probes])
        scalar_seconds = _time(
            lambda b=backend: [b.estimate(p) for p in probes], repeats=1
        )
        served_cold = {}

        def cold_burst(k=key, out=served_cold):
            service.cache.clear()
            out["values"] = service.estimate_batch(k, probes)

        served_cold_seconds = _time(cold_burst)
        served_warm_seconds = _time(lambda k=key: service.estimate_batch(k, probes))

        estimates = np.asarray(served_cold["values"])
        max_divergence = float(np.abs(estimates - scalar).max())
        abs_error = np.abs(estimates - truths)
        # The paper's relative-error metric (denominator floored at 1e-3).
        rel_error = abs_error / np.maximum(truths, 1e-3)

        per_backend[name] = {
            "parameter_count": snapshot.parameter_count,
            "snapshot_version": snapshot.version,
            "scalar_seconds": scalar_seconds,
            "served_cold_seconds": served_cold_seconds,
            "served_warm_seconds": served_warm_seconds,
            "served_cold_qps": len(probes) / served_cold_seconds,
            "served_warm_qps": len(probes) / served_warm_seconds,
            "cold_speedup_vs_scalar": scalar_seconds / served_cold_seconds,
            "max_batch_divergence": max_divergence,
            "mean_abs_error": float(abs_error.mean()),
            "mean_relative_error": float(rel_error.mean()),
        }
        assert max_divergence <= MATCH_TOLERANCE, (
            f"{name}: served batch diverged from the bare estimator "
            f"by {max_divergence}"
        )

    # Fast-path dispatch overhead: the served QuickSel snapshot against
    # the raw pre-refactor pipeline (lower once, one kernel call on the
    # mixture model).  Both sides measured back to back, best of N.
    model = backends["quicksel"].model
    snapshot = service.snapshot_for(keys["quicksel"])
    domain = dataset.domain

    def raw_kernel():
        piece_lower, piece_upper, owners = lower_batch(probes, domain)
        return model.estimate_from_bounds(
            piece_lower, piece_upper, owners, len(probes)
        )

    raw_kernel()  # warm
    raw_seconds = _time(raw_kernel, repeats=5)
    snapshot_seconds = _time(lambda: snapshot.estimate_many(probes), repeats=5)
    overhead = snapshot_seconds / raw_seconds - 1.0
    results["quicksel_raw_kernel_seconds"] = raw_seconds
    results["quicksel_snapshot_seconds"] = snapshot_seconds
    results["quicksel_fast_path_overhead"] = overhead
    results["quicksel_snapshot_qps"] = len(probes) / snapshot_seconds

    if check_speedup:
        assert overhead <= MAX_FAST_PATH_OVERHEAD, (
            f"snapshot batch dispatch {overhead:+.1%} over the raw kernel "
            f"path; the refactor must stay within {MAX_FAST_PATH_OVERHEAD:.0%}"
        )
        quicksel = per_backend["quicksel"]
        assert quicksel["cold_speedup_vs_scalar"] >= MIN_COLD_SPEEDUP, (
            f"served cold burst speedup {quicksel['cold_speedup_vs_scalar']:.1f}x "
            f"below the {MIN_COLD_SPEEDUP}x bar"
        )
    service.close()
    return results


def render_report(results: dict[str, object]) -> str:
    lines = [
        f"backend serving benchmark ({results['predicates']} predicates, "
        f"{results['train_queries']} training queries)",
    ]
    for name, stats in results["backends"].items():
        lines.append(
            f"  {name:<10} params={int(stats['parameter_count']):>6}"
            f"  cold {stats['served_cold_seconds'] * 1e3:8.2f} ms"
            f" ({stats['served_cold_qps']:>9.0f} est/s,"
            f" {stats['cold_speedup_vs_scalar']:5.1f}x vs scalar)"
            f"  mean rel err {stats['mean_relative_error']:.4f}"
        )
    lines.append(
        f"  quicksel snapshot vs raw kernel: "
        f"{results['quicksel_fast_path_overhead']:+.2%} "
        f"({results['quicksel_snapshot_qps']:.0f} est/s)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest-benchmark entry point
# ----------------------------------------------------------------------
def test_backend_serving_throughput(benchmark):
    """All three backend families serve; QuickSel keeps its fast path."""
    results = benchmark.pedantic(run_backend_benchmark, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            f"{name}_{metric}": value
            for name, stats in results["backends"].items()
            for metric, value in stats.items()
        }
    )
    print("\n" + render_report(results))


# ----------------------------------------------------------------------
# Standalone CLI (used by CI's smoke run)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (still asserts batch parity)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the results dict as JSON to PATH",
    )
    args = parser.parse_args(argv)
    if args.quick:
        # CI smoke: still asserts correctness (1e-9 batch parity for
        # every backend) but not the wall-clock bars — shared runners
        # are too noisy for hard timing assertions on a small workload.
        results = run_backend_benchmark(
            rows=8_000, train_queries=60, probe_queries=300,
            check_speedup=False,
        )
    else:
        results = run_backend_benchmark()
    print(render_report(results))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    print("backend benchmark: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
