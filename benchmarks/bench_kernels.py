"""Native-kernel and serving-fast-path benchmark.

Measures the claims the ``repro.kernels`` package and the
:class:`~repro.serving.service.FastSlot` read path make:

1. **Kernel throughput** — box-intersection volume pairs per second on
   a random box workload (correctness is property-tested in
   ``tests/test_kernels.py``).
2. **Steady-state allocation** — the arena-backed batch path does not
   grow memory across repeated ``estimate_from_bounds`` calls: all
   temporaries live in reused thread-local arena buffers.
3. **Served latency** — a :class:`FastSlot` burst (slot resolved once,
   snapshot read lock-free, stats flushed in bulk, snapshot-scoped
   predicate memo) answers repeated single-predicate requests >= 3x
   faster than the seed's per-request dispatch chain (key normalisation
   -> registry lock -> cache-key build -> locked cache -> stats lock),
   at single-digit-microsecond latency.
4. **TinyLFU admission** — under a Zipfian working set with a one-pass
   scan mixed in, ``admission="tinylfu"`` holds >= 2x the hit rate of
   plain LRU.

Runs two ways:

* ``pytest benchmarks/bench_kernels.py --benchmark-only`` — through the
  pytest-benchmark harness like the other benches, or
* ``python benchmarks/bench_kernels.py [--quick] [--json PATH]`` —
  standalone script (used by CI); ``--quick`` shrinks the workload and
  drops the wall-clock ratio bars (shared runners are too noisy for
  hard timing assertions) but still asserts fast-path parity, the
  flat-memory guard, a conservative estimates/sec floor, and prints the
  backend report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

import numpy as np

import repro.kernels as kernels
from repro.core.config import QuickSelConfig
from repro.core.quicksel import QuickSel
from repro.kernels import intersection_volumes
from repro.serving import (
    EstimateCache,
    RefitScheduler,
    SelectivityService,
    normalize_key,
)
from repro.serving.cache import predicate_cache_key
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

PARITY_TOLERANCE = 1e-12
MIN_FAST_PATH_SPEEDUP = 3.0
MIN_TINYLFU_RATIO = 2.0
# Conservative floor for CI (--quick): the memo-hit fast path measures
# >1M est/s/core locally; anything under this is a real regression, not
# runner noise.
MIN_QUICK_ESTIMATES_PER_SECOND = 10_000.0
# Steady-state growth budget across the flat-memory window; covers
# tracemalloc bookkeeping jitter, not real per-call temporaries (one
# leaked (n, m, d) f64 temporary alone is ~1.5 MB across the window).
MAX_STEADY_STATE_GROWTH_BYTES = 256 * 1024


# ----------------------------------------------------------------------
# 1. Kernel throughput
# ----------------------------------------------------------------------
def run_kernel_throughput(rows: int, cols: int, dimension: int = 3) -> dict:
    """Box-intersection volume pairs per second on one random workload."""
    rng = np.random.default_rng(0)
    row_lower = rng.uniform(-5.0, 5.0, size=(rows, dimension))
    row_upper = row_lower + rng.uniform(0.0, 4.0, size=(rows, dimension))
    col_lower = rng.uniform(-5.0, 5.0, size=(cols, dimension))
    col_upper = col_lower + rng.uniform(0.0, 4.0, size=(cols, dimension))

    repeats = 20
    start = time.perf_counter()
    for _ in range(repeats):
        intersection_volumes(row_lower, row_upper, col_lower, col_upper)
    seconds = (time.perf_counter() - start) / repeats
    pair_rate = rows * cols / seconds

    return {
        "rows": rows,
        "cols": cols,
        "dimension": dimension,
        "volumes_seconds": seconds,
        "volumes_pairs_per_second": pair_rate,
    }


# ----------------------------------------------------------------------
# 2. Steady-state allocation guard for the arena batch path
# ----------------------------------------------------------------------
def run_flat_memory_guard(probe_queries: int = 200) -> dict:
    """Repeated estimate_batch calls must not grow traced memory."""
    dataset = gaussian_dataset(6_000, dimension=2, correlation=0.5, seed=3)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=4)
    feedback = labelled_feedback(generator.generate(60), dataset.rows)
    model = QuickSel(dataset.domain, QuickSelConfig(random_seed=3))
    model.observe_many(feedback, refit=True)
    probes = generator.generate(probe_queries)

    # Warm up: arena buffers grow to workload size, caches fill.
    for _ in range(3):
        model.estimate_many(probes)

    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    window = 50
    for _ in range(window):
        model.estimate_many(probes)
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    growth = max(0, current - baseline)
    results = {
        "flat_memory_window_calls": window,
        "flat_memory_growth_bytes": growth,
        "flat_memory_growth_per_call": growth / window,
    }
    assert growth <= MAX_STEADY_STATE_GROWTH_BYTES, (
        f"batch path grew {growth} bytes over {window} warm calls — "
        "per-call temporaries are escaping the arena"
    )
    return results


# ----------------------------------------------------------------------
# 3. Served single-predicate latency: seed dispatch vs. fast slot
# ----------------------------------------------------------------------
def run_fast_path_benchmark(
    requests: int, check_speedup: bool
) -> dict:
    dataset = gaussian_dataset(8_000, dimension=2, correlation=0.5, seed=0)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=1)
    feedback = labelled_feedback(generator.generate(80), dataset.rows)
    trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
    trainer.observe_many(feedback, refit=True)
    service = SelectivityService(scheduler=RefitScheduler("inline"))
    key = service.register_model("bench", trainer)
    probes = generator.generate(64)

    registry = service._registry
    cache = service._cache
    stats = service.stats

    def legacy_estimate(table, predicate):
        # The seed's per-request dispatch chain, reconstructed verbatim
        # against the same live objects: key normalisation, a locked
        # registry read, structural cache-key derivation, a locked
        # cache round-trip, and a locked stats record — every request.
        legacy_key = normalize_key(table)
        start = time.perf_counter()
        snapshot = registry.current(legacy_key)
        cache_key = (
            legacy_key,
            snapshot.version,
            predicate_cache_key(predicate),
        )
        cached = cache.get(cache_key)
        if cached is not None:
            value, hit = cached, True
        else:
            value = float(snapshot.estimate(predicate))
            cache.put(cache_key, value)
            hit = False
        stats.record_estimate(time.perf_counter() - start, hit)
        return value

    # Warm every path (cache entries, slot memo, arena buffers).
    for predicate in probes:
        service.estimate("bench", predicate)
    slot = service.fast_slot("bench", flush_every=64)
    for predicate in probes:
        slot.estimate(predicate)
    slot.flush()

    start = time.perf_counter()
    for i in range(requests):
        legacy_estimate("bench", probes[i % len(probes)])
    legacy_seconds = (time.perf_counter() - start) / requests

    start = time.perf_counter()
    for i in range(requests):
        service.estimate("bench", probes[i % len(probes)])
    service_seconds = (time.perf_counter() - start) / requests

    start = time.perf_counter()
    for i in range(requests):
        slot.estimate(probes[i % len(probes)])
    slot_seconds = (time.perf_counter() - start) / requests
    slot.flush()

    # Parity: every path must return identical values.
    max_error = 0.0
    for predicate in probes:
        a = legacy_estimate("bench", predicate)
        b = service.estimate("bench", predicate)
        c = slot.estimate(predicate)
        max_error = max(max_error, abs(a - b), abs(a - c))
    slot.flush()
    service.close()

    results = {
        "fast_path_requests": requests,
        "legacy_dispatch_us": legacy_seconds * 1e6,
        "service_estimate_us": service_seconds * 1e6,
        "fast_slot_us": slot_seconds * 1e6,
        "legacy_estimates_per_second": 1.0 / legacy_seconds,
        "service_estimates_per_second": 1.0 / service_seconds,
        "fast_slot_estimates_per_second": 1.0 / slot_seconds,
        "fast_slot_speedup": legacy_seconds / slot_seconds,
        "fast_path_parity": max_error,
    }
    assert max_error <= PARITY_TOLERANCE, (
        f"fast-path estimates diverged from the dispatch path by {max_error}"
    )
    assert results["fast_slot_estimates_per_second"] >= (
        MIN_QUICK_ESTIMATES_PER_SECOND
    ), (
        f"fast slot served only "
        f"{results['fast_slot_estimates_per_second']:.0f} est/s/core"
    )
    if check_speedup:
        assert results["fast_slot_speedup"] >= MIN_FAST_PATH_SPEEDUP, (
            f"fast slot speedup {results['fast_slot_speedup']:.1f}x below "
            f"the {MIN_FAST_PATH_SPEEDUP}x bar"
        )
    return results


# ----------------------------------------------------------------------
# 4. TinyLFU admission vs. plain LRU under scan pollution
# ----------------------------------------------------------------------
def run_tinylfu_benchmark(
    requests: int, check_ratio: bool
) -> dict:
    """Zipfian working set + interleaved one-pass scan, capacity 64."""
    capacity = 64
    universe = 5_000
    scan_per_request = 16
    ranks = np.arange(1, universe + 1)
    probabilities = 1.0 / ranks**1.2
    probabilities /= probabilities.sum()

    def run(cache: EstimateCache) -> float:
        rng = np.random.default_rng(0)
        zipf_keys = rng.choice(universe, size=requests, p=probabilities)
        hits = 0
        scan_key = 0
        for i in range(requests):
            key = ("zipf", int(zipf_keys[i]))
            if cache.get(key) is not None:
                hits += 1
            else:
                cache.put(key, 1.0)
            for _ in range(scan_per_request):
                cold = ("scan", scan_key)
                scan_key += 1
                if cache.get(cold) is None:
                    cache.put(cold, 0.0)
        return hits / requests

    lru_rate = run(EstimateCache(capacity=capacity))
    tinylfu_rate = run(
        EstimateCache(capacity=capacity, admission="tinylfu")
    )
    results = {
        "cache_capacity": capacity,
        "cache_requests": requests,
        "scan_keys_per_request": scan_per_request,
        "lru_hit_rate": lru_rate,
        "tinylfu_hit_rate": tinylfu_rate,
        "tinylfu_vs_lru_ratio": tinylfu_rate / lru_rate if lru_rate else float("inf"),
    }
    assert tinylfu_rate > lru_rate, (
        f"TinyLFU hit rate {tinylfu_rate:.3f} not above LRU {lru_rate:.3f}"
    )
    if check_ratio:
        assert results["tinylfu_vs_lru_ratio"] >= MIN_TINYLFU_RATIO, (
            f"TinyLFU/LRU hit-rate ratio "
            f"{results['tinylfu_vs_lru_ratio']:.2f} below the "
            f"{MIN_TINYLFU_RATIO}x bar"
        )
    return results


def run_kernels_benchmark(quick: bool = False) -> dict:
    results: dict = {"kernel_backend": kernels.backend_report()}

    if quick:
        results.update(run_kernel_throughput(rows=200, cols=60))
        results.update(run_flat_memory_guard(probe_queries=100))
        results.update(
            run_fast_path_benchmark(requests=5_000, check_speedup=False)
        )
        results.update(
            run_tinylfu_benchmark(requests=800, check_ratio=False)
        )
    else:
        results.update(run_kernel_throughput(rows=1_000, cols=200))
        results.update(run_flat_memory_guard())
        results.update(
            run_fast_path_benchmark(requests=50_000, check_speedup=True)
        )
        results.update(
            run_tinylfu_benchmark(requests=4_000, check_ratio=True)
        )
    return results


def render_report(results: dict) -> str:
    backend = results["kernel_backend"]
    lines = [
        "kernels benchmark",
        f"  backend            {backend['backend']} (NumPy {backend['numpy']})",
        f"  volumes            {results['volumes_pairs_per_second']:,.0f} pairs/s"
        f"  ({int(results['rows'])}x{int(results['cols'])} boxes)",
        f"  steady-state mem   +{int(results['flat_memory_growth_bytes'])} B"
        f" over {int(results['flat_memory_window_calls'])} warm batch calls",
        f"  legacy dispatch    {results['legacy_dispatch_us']:7.2f} us"
        f"  ({results['legacy_estimates_per_second']:>10,.0f} est/s/core)",
        f"  service.estimate   {results['service_estimate_us']:7.2f} us"
        f"  ({results['service_estimates_per_second']:>10,.0f} est/s/core)",
        f"  fast slot burst    {results['fast_slot_us']:7.2f} us"
        f"  ({results['fast_slot_estimates_per_second']:>10,.0f} est/s/core, "
        f"{results['fast_slot_speedup']:.1f}x vs legacy)",
        f"  TinyLFU hit rate   {results['tinylfu_hit_rate']:.3f} vs LRU "
        f"{results['lru_hit_rate']:.3f} "
        f"({results['tinylfu_vs_lru_ratio']:.1f}x, scan-polluted Zipf)",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_kernels_benchmark(benchmark):
    """Throughput, flat memory, >=3x fast path, >=2x TinyLFU — one run."""
    results = benchmark.pedantic(run_kernels_benchmark, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            key: value
            for key, value in results.items()
            if isinstance(value, (int, float))
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
        help="small workload for CI smoke runs (fast-path parity, flat "
        "memory, est/s floor, backend report; no wall-clock ratio bars)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the results dict as JSON to PATH",
    )
    args = parser.parse_args(argv)
    results = run_kernels_benchmark(quick=args.quick)
    print(render_report(results))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    print("kernels benchmark: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
