"""Cluster benchmark: shard scaling and non-blocking feedback ingest.

Measures the two claims the sharded serving cluster makes:

1. **Aggregate throughput scales with shards.**  Each shard models one
   node with a *fixed-size* result cache; the workload is a mixed burst
   over >= 8 tables whose combined working set does not fit in one
   shard's cache but does fit in the fleet's at 4+ shards.  Repeated
   mixed bursts through ``estimate_batch_mixed`` must show >= 2x
   aggregate throughput at 4 shards vs. 1 shard — the scale-out story:
   adding shards adds cache (and, on multi-core hosts, fan-out
   parallelism; this assertion does not rely on cores).
2. **Writes never stall behind training.**  ``observe`` during an
   in-flight refit must stay bounded (buffered + replayed after the
   publish) instead of waiting out the trainer lock the way the plain
   service's observe does, and no feedback may be lost.

Correctness rides along: mixed-batch estimates must match a plain
``SelectivityService`` to 1e-12 at every shard count.

Runs two ways:

* ``pytest benchmarks/bench_cluster.py --benchmark-only`` — through the
  pytest-benchmark harness like the other benches, or
* ``python benchmarks/bench_cluster.py [--quick] [--json PATH]`` —
  standalone script (used by CI); ``--quick`` shrinks the workload and
  skips the wall-clock speedup bar (shared runners are too noisy), but
  still asserts parity and the no-lost-feedback / bounded-stall
  contracts.  The full run's results are committed as
  ``BENCH_cluster.json``.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import threading
import time

import numpy as np

from repro.cluster import ShardedSelectivityService
from repro.core.config import QuickSelConfig
from repro.core.quicksel import QuickSel
from repro.serving import RefitScheduler, SelectivityService
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

MATCH_TOLERANCE = 1e-12
MIN_SHARD_SPEEDUP = 2.0  # 4 shards vs. 1 shard, aggregate estimate_batch
SHARD_COUNTS = (1, 2, 4, 8)


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------
def build_mixed_workload(
    num_tables: int,
    rows: int,
    train_queries: int,
    probes_per_table: int,
    seed: int = 0,
):
    """Per-table trained trainers plus a fixed interleaved probe stream.

    Every table gets its own trainer (distinct random seed, so distinct
    models) and its own distinct probe predicates; the mixed stream
    round-robins the tables, the worst case for any per-key batching.
    """
    dataset = gaussian_dataset(rows, dimension=2, correlation=0.5, seed=seed)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=seed + 1)
    feedback = labelled_feedback(
        generator.generate(train_queries), dataset.rows
    )
    tables = [f"tbl{index:02d}" for index in range(num_tables)]
    trainers = {}
    probes = {}
    for index, table in enumerate(tables):
        trainer = QuickSel(
            dataset.domain, QuickSelConfig(random_seed=seed + index)
        )
        trainer.observe_many(feedback, refit=True)
        trainers[table] = trainer
        table_generator = RandomRangeQueryGenerator(
            dataset.domain, seed=seed + 100 + index
        )
        probes[table] = table_generator.generate(probes_per_table)
    pairs = [
        (table, probes[table][position])
        for position in range(probes_per_table)
        for table in tables
    ]
    return dataset, tables, trainers, pairs


def reference_estimates(trainers, pairs) -> np.ndarray:
    """Ground truth from a plain single-process service (fresh twins)."""
    service = SelectivityService(scheduler=RefitScheduler("inline"))
    for table, trainer in trainers.items():
        service.register_model(table, copy.deepcopy(trainer))
    try:
        return service.estimate_batch_mixed(pairs)
    finally:
        service.close()


# ----------------------------------------------------------------------
# Claim 1: aggregate throughput vs. shard count
# ----------------------------------------------------------------------
def run_throughput_benchmark(
    num_tables: int = 16,
    rows: int = 8_000,
    train_queries: int = 150,
    probes_per_table: int = 250,
    per_shard_cache: int = 1_750,
    rounds: int = 3,
    replicas: int = 128,
    check_speedup: bool = True,
) -> dict[str, object]:
    """Mixed multi-table bursts against 1/2/4/8 shards, fixed node size.

    ``replicas=128`` keeps key placement balanced enough that every
    4-shard member's share of the working set fits its cache (the JSON
    records ``max_keys_on_one_shard`` so skew is visible).
    """
    _, tables, trainers, pairs = build_mixed_workload(
        num_tables, rows, train_queries, probes_per_table
    )
    expected = reference_estimates(trainers, pairs)

    shard_results: dict[str, dict[str, float]] = {}
    for num_shards in SHARD_COUNTS:
        cluster = ShardedSelectivityService(
            num_shards=num_shards,
            scheduler_mode="inline",
            cache_capacity=per_shard_cache,
            replicas=replicas,
        )
        for table in tables:
            cluster.register_model(table, copy.deepcopy(trainers[table]))
        try:
            start = time.perf_counter()
            cold = cluster.estimate_batch_mixed(pairs)
            cold_seconds = time.perf_counter() - start
            max_error = float(np.abs(cold - expected).max())
            assert max_error <= MATCH_TOLERANCE, (
                f"{num_shards}-shard mixed batch diverged from the plain "
                f"service by {max_error}"
            )
            start = time.perf_counter()
            for _ in range(rounds):
                steady = cluster.estimate_batch_mixed(pairs)
            steady_seconds = (time.perf_counter() - start) / rounds
            assert float(np.abs(steady - expected).max()) <= MATCH_TOLERANCE
            keys_per_shard = {
                shard_id: len(cluster.shard(shard_id).model_keys())
                for shard_id in cluster.shard_ids
            }
            shard_results[str(num_shards)] = {
                "cold_seconds": cold_seconds,
                "cold_qps": len(pairs) / cold_seconds,
                "steady_seconds": steady_seconds,
                "steady_qps": len(pairs) / steady_seconds,
                "hit_rate": cluster.fleet_stats()["aggregate"]["hit_rate"],
                "max_error": max_error,
                "max_keys_on_one_shard": max(keys_per_shard.values()),
            }
        finally:
            cluster.close()

    speedup = (
        shard_results["4"]["steady_qps"] / shard_results["1"]["steady_qps"]
    )
    results: dict[str, object] = {
        "tables": num_tables,
        "probes_per_table": probes_per_table,
        "working_set_entries": num_tables * probes_per_table,
        "per_shard_cache_capacity": per_shard_cache,
        "rounds": rounds,
        "predicates_per_round": len(pairs),
        "shards": shard_results,
        "steady_speedup_4_vs_1": speedup,
        "steady_speedup_8_vs_1": (
            shard_results["8"]["steady_qps"] / shard_results["1"]["steady_qps"]
        ),
    }
    if check_speedup:
        assert speedup >= MIN_SHARD_SPEEDUP, (
            f"4-shard aggregate throughput only {speedup:.2f}x the 1-shard "
            f"baseline (bar: {MIN_SHARD_SPEEDUP}x)"
        )
    return results


# ----------------------------------------------------------------------
# Claim 2: observe latency while a refit is in flight
# ----------------------------------------------------------------------
def _observe_latencies_during_refit(backend, table, probes, count) -> tuple[
    list[float], float
]:
    """Fire ``count`` observes while ``refit_now`` runs on another thread.

    Returns the per-observe latencies and the refit's duration.
    """
    refit_seconds = [0.0]

    def refit():
        start = time.perf_counter()
        backend.refit_now(table)
        refit_seconds[0] = time.perf_counter() - start

    refitting = threading.Thread(target=refit)
    refitting.start()
    time.sleep(0.05)  # let the refit take the trainer lock
    latencies = []
    for index in range(count):
        predicate = probes[index % len(probes)]
        start = time.perf_counter()
        backend.observe(table, predicate, 0.25)
        latencies.append(time.perf_counter() - start)
    refitting.join()
    return latencies, refit_seconds[0]


def run_observe_latency_benchmark(
    rows: int = 10_000,
    train_queries: int = 400,
    observations: int = 200,
    check_stall: bool = True,
) -> dict[str, object]:
    """Buffered (cluster) vs. blocking (plain) observe during a refit."""
    dataset = gaussian_dataset(rows, dimension=2, correlation=0.5, seed=3)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=4)
    feedback = labelled_feedback(
        generator.generate(train_queries), dataset.rows
    )
    probes = generator.generate(observations)

    def trained_trainer() -> QuickSel:
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        trainer.observe_many(feedback, refit=True)
        return trainer

    # Buffered path: the sharded cluster's non-blocking observe.
    cluster = ShardedSelectivityService(
        num_shards=2, scheduler_mode="background"
    )
    try:
        cluster.register_model("hot", trained_trainer())
        before = cluster.feedback_count("hot")
        buffered, refit_seconds = _observe_latencies_during_refit(
            cluster, "hot", probes, observations
        )
        cluster.drain(timeout=60)
        lost = before + observations - cluster.feedback_count("hot")
    finally:
        cluster.close()

    # Blocking path: the plain service's observe waits out the lock.
    plain = SelectivityService(scheduler=RefitScheduler("background"))
    try:
        plain.register_model("hot", trained_trainer())
        blocking, plain_refit_seconds = _observe_latencies_during_refit(
            plain, "hot", probes, observations
        )
        plain.drain(timeout=60)
    finally:
        plain.close()

    buffered_array = np.array(buffered)
    blocking_array = np.array(blocking)
    results: dict[str, object] = {
        "observations": observations,
        "refit_seconds": refit_seconds,
        "plain_refit_seconds": plain_refit_seconds,
        "lost_feedback": int(lost),
        "buffered": {
            "p50_seconds": float(np.percentile(buffered_array, 50.0)),
            "p99_seconds": float(np.percentile(buffered_array, 99.0)),
            "max_seconds": float(buffered_array.max()),
        },
        "blocking": {
            "p50_seconds": float(np.percentile(blocking_array, 50.0)),
            "p99_seconds": float(np.percentile(blocking_array, 99.0)),
            "max_seconds": float(blocking_array.max()),
        },
    }
    assert lost == 0, f"{lost} observations were lost during the refit"
    if check_stall:
        buffered_p99 = results["buffered"]["p99_seconds"]
        assert buffered_p99 < 0.05, (
            f"buffered observe p99 {buffered_p99 * 1e3:.1f} ms is not "
            "bounded during an in-flight refit"
        )
        assert results["blocking"]["max_seconds"] > 10 * buffered_p99, (
            "the blocking baseline shows no trainer-lock stall; the "
            "comparison is not measuring anything"
        )
    return results


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def run_cluster_benchmark(quick: bool = False) -> dict[str, object]:
    if quick:
        # CI smoke: asserts parity, bounded stall, and zero feedback loss,
        # but not the wall-clock speedup bar — shared runners are too
        # noisy for hard timing assertions on a small workload.
        throughput = run_throughput_benchmark(
            num_tables=8,
            rows=5_000,
            train_queries=60,
            probes_per_table=120,
            per_shard_cache=420,
            rounds=2,
            check_speedup=False,
        )
        observe = run_observe_latency_benchmark(
            rows=6_000,
            train_queries=150,
            observations=60,
            check_stall=False,
        )
    else:
        throughput = run_throughput_benchmark()
        observe = run_observe_latency_benchmark()
    return {"throughput": throughput, "observe_during_refit": observe}


def render_report(results: dict[str, object]) -> str:
    throughput = results["throughput"]
    observe = results["observe_during_refit"]
    lines = [
        f"cluster benchmark ({throughput['tables']} tables, "
        f"{throughput['predicates_per_round']} mixed predicates/round, "
        f"cache {throughput['per_shard_cache_capacity']}/shard)",
    ]
    for num_shards in SHARD_COUNTS:
        shard = throughput["shards"][str(num_shards)]
        lines.append(
            f"  {num_shards} shard{'s' if num_shards > 1 else ' '}  "
            f"steady {shard['steady_qps']:>10.0f} est/s  "
            f"(cold {shard['cold_qps']:>9.0f} est/s, "
            f"hit rate {shard['hit_rate']:.2f})"
        )
    lines.append(
        f"  4-shard speedup {throughput['steady_speedup_4_vs_1']:.2f}x, "
        f"8-shard {throughput['steady_speedup_8_vs_1']:.2f}x (bar: "
        f"{MIN_SHARD_SPEEDUP}x at 4)"
    )
    buffered = observe["buffered"]
    blocking = observe["blocking"]
    lines.append(
        f"observe during a {observe['refit_seconds'] * 1e3:.0f} ms refit "
        f"({observe['observations']} writes, lost={observe['lost_feedback']})"
    )
    lines.append(
        f"  buffered (cluster)  p50 {buffered['p50_seconds'] * 1e6:8.0f} us  "
        f"p99 {buffered['p99_seconds'] * 1e6:8.0f} us  "
        f"max {buffered['max_seconds'] * 1e3:7.1f} ms"
    )
    lines.append(
        f"  blocking (plain)    p50 {blocking['p50_seconds'] * 1e6:8.0f} us  "
        f"p99 {blocking['p99_seconds'] * 1e6:8.0f} us  "
        f"max {blocking['max_seconds'] * 1e3:7.1f} ms"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_shard_scaling_throughput(benchmark):
    """4 shards serve a mixed >= 8-table burst >= 2x faster than 1."""
    results = benchmark.pedantic(
        run_throughput_benchmark, rounds=1, iterations=1
    )
    benchmark.extra_info["steady_speedup_4_vs_1"] = results[
        "steady_speedup_4_vs_1"
    ]
    for num_shards in SHARD_COUNTS:
        benchmark.extra_info[f"steady_qps_{num_shards}_shards"] = results[
            "shards"
        ][str(num_shards)]["steady_qps"]


def test_observe_not_blocked_by_refit(benchmark):
    """Buffered observe stays bounded while a refit holds the trainer."""
    results = benchmark.pedantic(
        run_observe_latency_benchmark, rounds=1, iterations=1
    )
    benchmark.extra_info["buffered_p99_seconds"] = results["buffered"][
        "p99_seconds"
    ]
    benchmark.extra_info["blocking_max_seconds"] = results["blocking"][
        "max_seconds"
    ]


# ----------------------------------------------------------------------
# Standalone CLI (used by CI's smoke run)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (skips the timing bars, "
        "keeps parity and no-lost-feedback assertions)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the results dict as JSON to PATH",
    )
    args = parser.parse_args(argv)
    results = run_cluster_benchmark(quick=args.quick)
    print(render_report(results))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    print("cluster benchmark: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
