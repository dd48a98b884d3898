"""Gateway benchmark: out-of-process fleet throughput and read isolation.

Measures the two claims the ``repro.net`` serving gateway makes:

1. **A 4-worker process fleet beats one in-process node.**  Each worker
   process models one node with a *fixed-size* estimate cache; the
   workload is a mixed burst over 16 tables whose combined working set
   does not fit one node's cache but does fit the 4-worker fleet's.
   Repeated mixed bursts through the remote client must show higher
   aggregate throughput at 4 workers than a plain in-process
   ``SelectivityService`` given the same single node's cache — i.e. the
   fleet's extra cache capacity must buy more than the wire protocol
   costs.  (On multi-core hosts the fan-out parallelism adds more; this
   assertion does not rely on cores.)
2. **Remote reads stay bounded while another worker refits.**  With the
   refitting model and the probed model on different worker processes,
   read latency through the gateway must stay bounded for the whole
   refit — the process boundary is what isolates serving from training
   CPU, where a single process would share one GIL.

It also maps the **clients x shards saturation surface**: independent
client *processes* (1, 2, 4, 8) hammer mixed bursts against 1/2/4-worker
fleets, all funnelled through the one asyncio gateway.  The sweep
records aggregate throughput per cell and, per fleet size, the client
count past which adding clients stops paying — the point where the
single gateway event loop (not the workers) becomes the bottleneck.
No wall-clock bar is asserted on the sweep (host-dependent); the
committed ``BENCH_gateway.json`` holds the reference surface.

Correctness rides along: remote mixed-batch estimates must match a plain
``SelectivityService`` to 1e-12 at every fleet size.

Runs two ways:

* ``pytest benchmarks/bench_gateway.py --benchmark-only`` — through the
  pytest-benchmark harness like the other benches, or
* ``python benchmarks/bench_gateway.py [--quick] [--json PATH]`` —
  standalone script (used by CI); ``--quick`` shrinks the workload to a
  2-worker fleet and skips the wall-clock bars (shared runners are too
  noisy), but still asserts remote/in-process parity.  The full run's
  results are committed as ``BENCH_gateway.json``.
"""

from __future__ import annotations

import argparse
import copy
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.config import QuickSelConfig
from repro.core.quicksel import QuickSel
from repro.net import GatewayServer, WorkerProcess, connect
from repro.serving import EstimateCache, RefitScheduler, SelectivityService
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

MATCH_TOLERANCE = 1e-12
#: The 4-worker fleet must beat the one-node in-process baseline.
MIN_FLEET_ADVANTAGE = 1.2
FLEET_SIZES = (1, 2, 4)
#: Reads-during-refit p99 bound (full run; CI smoke skips timing bars).
MAX_REFIT_READ_P99_SECONDS = 0.25
#: The clients x shards saturation sweep's axes (full run).
SATURATION_FLEET_SIZES = (1, 2, 4)
SATURATION_CLIENT_COUNTS = (1, 2, 4, 8)
#: A client count saturates the gateway once doubling the clients buys
#: less than this factor in aggregate throughput.
SATURATION_GAIN = 1.1


# ----------------------------------------------------------------------
# Workload construction (bench_cluster's shape, served over the wire)
# ----------------------------------------------------------------------
def build_mixed_workload(
    num_tables: int,
    rows: int,
    train_queries: int,
    probes_per_table: int,
    seed: int = 0,
):
    """Per-table trained trainers plus a fixed interleaved probe stream."""
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
# Claim 1: fleet throughput vs. one in-process node
# ----------------------------------------------------------------------
def _measure_single_process_baseline(
    trainers, pairs, cache_capacity: int, rounds: int
) -> dict[str, float]:
    """One in-process node with one node's cache — no wire, no fleet."""
    service = SelectivityService(
        cache=EstimateCache(capacity=cache_capacity),
        scheduler=RefitScheduler("inline"),
    )
    for table, trainer in trainers.items():
        service.register_model(table, copy.deepcopy(trainer))
    try:
        service.estimate_batch_mixed(pairs)  # cold round
        start = time.perf_counter()
        for _ in range(rounds):
            service.estimate_batch_mixed(pairs)
        steady_seconds = (time.perf_counter() - start) / rounds
        return {
            "steady_seconds": steady_seconds,
            "steady_qps": len(pairs) / steady_seconds,
            "hit_rate": service.stats.hit_rate,
        }
    finally:
        service.close()


def _measure_fleet(
    num_workers: int,
    trainers,
    pairs,
    expected: np.ndarray,
    cache_capacity: int,
    rounds: int,
    replicas: int,
) -> dict[str, float]:
    """Spawn a worker-process fleet, serve the burst through the gateway."""
    processes = [
        WorkerProcess(
            shard_id=f"w{index}",
            cache_capacity=cache_capacity,
            scheduler_mode="inline",
        )
        for index in range(num_workers)
    ]
    server = None
    try:
        server = GatewayServer(
            {process.shard_id: process.address for process in processes},
            replicas=replicas,
            request_timeout=120.0,
        )
        server.start()
        client = connect(*server.address, timeout=120.0)
        for table, trainer in trainers.items():
            client.register_model(table, copy.deepcopy(trainer))
        start = time.perf_counter()
        cold = client.estimate_batch_mixed(pairs)
        cold_seconds = time.perf_counter() - start
        max_error = float(np.abs(cold - expected).max())
        assert max_error <= MATCH_TOLERANCE, (
            f"{num_workers}-worker remote mixed batch diverged from the "
            f"in-process service by {max_error}"
        )
        start = time.perf_counter()
        for _ in range(rounds):
            steady = client.estimate_batch_mixed(pairs)
        steady_seconds = (time.perf_counter() - start) / rounds
        assert float(np.abs(steady - expected).max()) <= MATCH_TOLERANCE
        view = client.fleet_stats()
        client.close()
        return {
            "cold_seconds": cold_seconds,
            "cold_qps": len(pairs) / cold_seconds,
            "steady_seconds": steady_seconds,
            "steady_qps": len(pairs) / steady_seconds,
            "hit_rate": float(view["aggregate"]["hit_rate"]),
            "max_error": max_error,
            "model_keys": int(view["aggregate"]["model_keys"]),
            "gateway_p99_latency_seconds": float(
                view["gateway"]["p99_latency_seconds"]
            ),
        }
    finally:
        if server is not None:
            server.close()
        for process in processes:
            try:
                process.request_shutdown(timeout=10.0)
            except Exception:
                process.terminate()


def run_throughput_benchmark(
    num_tables: int = 16,
    rows: int = 8_000,
    train_queries: int = 300,
    probes_per_table: int = 250,
    per_node_cache: int = 1_750,
    rounds: int = 3,
    replicas: int = 128,
    fleet_sizes: tuple[int, ...] = FLEET_SIZES,
    check_advantage: bool = True,
) -> dict[str, object]:
    """Mixed bursts against worker-process fleets vs. one in-process node.

    Every node — the in-process baseline and each worker process — gets
    the same fixed cache.  The 16x250 working set thrashes one node's
    cache but fits the 4-worker fleet's combined capacity, so the fleet
    must win on cache even though every one of its estimates pays the
    wire.
    """
    _, tables, trainers, pairs = build_mixed_workload(
        num_tables, rows, train_queries, probes_per_table
    )
    expected = reference_estimates(trainers, pairs)
    baseline = _measure_single_process_baseline(
        trainers, pairs, per_node_cache, rounds
    )

    fleets: dict[str, dict[str, float]] = {}
    for num_workers in fleet_sizes:
        fleets[str(num_workers)] = _measure_fleet(
            num_workers,
            trainers,
            pairs,
            expected,
            per_node_cache,
            rounds,
            replicas,
        )

    largest = str(max(fleet_sizes))
    advantage = fleets[largest]["steady_qps"] / baseline["steady_qps"]
    results: dict[str, object] = {
        "tables": num_tables,
        "probes_per_table": probes_per_table,
        "working_set_entries": num_tables * probes_per_table,
        "per_node_cache_capacity": per_node_cache,
        "rounds": rounds,
        "predicates_per_round": len(pairs),
        "single_process_baseline": baseline,
        "fleets": fleets,
        "largest_fleet": int(largest),
        "fleet_advantage_vs_single_process": advantage,
    }
    if check_advantage:
        assert advantage > MIN_FLEET_ADVANTAGE, (
            f"{largest}-worker fleet served only {advantage:.2f}x the "
            f"single-process baseline (bar: >{MIN_FLEET_ADVANTAGE}x) — the "
            "wire cost ate the fleet's cache advantage"
        )
    return results


# ----------------------------------------------------------------------
# Claim 2: read latency while another worker process refits
# ----------------------------------------------------------------------
def _pick_split_tables(router, candidates) -> tuple[str, str]:
    """Two tables the ring places on different workers."""
    from repro.serving.registry import normalize_key

    by_worker: dict[str, str] = {}
    for table in candidates:
        by_worker.setdefault(router.route(normalize_key(table)), table)
        if len(by_worker) == 2:
            break
    if len(by_worker) < 2:
        raise AssertionError("candidate tables all landed on one worker")
    first, second = sorted(by_worker)
    return by_worker[first], by_worker[second]


def run_refit_isolation_benchmark(
    rows: int = 10_000,
    train_queries: int = 400,
    fresh_feedback: int = 80,
    probe_count: int = 40,
    max_samples: int = 4_000,
    check_bound: bool = True,
) -> dict[str, object]:
    """Gateway reads against worker B while worker A refits synchronously.

    The refit runs in its own process, so the only coupling left is the
    host's CPU — reads must stay bounded for the refit's whole duration
    instead of stalling behind a shared trainer lock or GIL.
    """
    dataset = gaussian_dataset(rows, dimension=2, correlation=0.5, seed=3)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=4)
    feedback = labelled_feedback(
        generator.generate(train_queries + fresh_feedback), dataset.rows
    )
    probes = RandomRangeQueryGenerator(dataset.domain, seed=5).generate(
        probe_count
    )

    processes = [
        WorkerProcess(shard_id=f"w{index}", scheduler_mode="background")
        for index in range(2)
    ]
    server = None
    try:
        server = GatewayServer(
            {process.shard_id: process.address for process in processes},
            request_timeout=120.0,
        )
        server.start()
        hot_table, probe_table = _pick_split_tables(
            server.gateway.router, [f"t{index:02d}" for index in range(16)]
        )
        client = connect(*server.address, timeout=120.0)
        refit_client = connect(*server.address, timeout=120.0)

        hot = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        hot.observe_many(feedback[:train_queries], refit=True)
        probe_model = QuickSel(dataset.domain, QuickSelConfig(random_seed=1))
        probe_model.observe_many(feedback[:120], refit=True)
        client.register_model(hot_table, hot)
        client.register_model(probe_table, probe_model)
        for predicate, selectivity in feedback[train_queries:]:
            client.observe(hot_table, predicate, selectivity)

        def read_once(index: int) -> float:
            start = time.perf_counter()
            client.estimate(probe_table, probes[index % len(probes)])
            return time.perf_counter() - start

        idle = np.array([read_once(index) for index in range(200)])

        refit_seconds = [0.0]

        def refit():
            start = time.perf_counter()
            refit_client.refit_now(hot_table)
            refit_seconds[0] = time.perf_counter() - start

        refitting = threading.Thread(target=refit)
        refitting.start()
        time.sleep(0.02)  # let the refit request reach the hot worker
        during: list[float] = []
        while refitting.is_alive() and len(during) < max_samples:
            during.append(read_once(len(during)))
        refitting.join()
        overlapped = len(during)
        if not during:
            during = [read_once(index) for index in range(50)]
        during_array = np.array(during)
        client.close()
        refit_client.close()

        results: dict[str, object] = {
            "refit_seconds": refit_seconds[0],
            "reads_during_refit": overlapped,
            "idle": {
                "p50_seconds": float(np.percentile(idle, 50.0)),
                "p99_seconds": float(np.percentile(idle, 99.0)),
            },
            "during_refit": {
                "p50_seconds": float(np.percentile(during_array, 50.0)),
                "p99_seconds": float(np.percentile(during_array, 99.0)),
                "max_seconds": float(during_array.max()),
            },
        }
        if check_bound:
            assert overlapped > 0, "no reads overlapped the refit"
            p99 = results["during_refit"]["p99_seconds"]
            assert p99 < MAX_REFIT_READ_P99_SECONDS, (
                f"read p99 {p99 * 1e3:.1f} ms during a remote refit is not "
                f"bounded (bar: {MAX_REFIT_READ_P99_SECONDS * 1e3:.0f} ms)"
            )
        return results
    finally:
        if server is not None:
            server.close()
        for process in processes:
            try:
                process.request_shutdown(timeout=10.0)
            except Exception:
                process.terminate()


# ----------------------------------------------------------------------
# Clients x shards saturation sweep
# ----------------------------------------------------------------------
def _saturation_client(
    address: tuple[str, int],
    pairs,
    rounds: int,
    start_event,
    results_queue,
    client_id: int,
) -> None:
    """One client process's inner loop (module-level: spawn must pickle it).

    Warms its connection, signals ready, waits for the shared start gun,
    then hammers ``rounds`` mixed bursts and reports its wall clock.
    """
    client = connect(*address, timeout=120.0)
    try:
        client.estimate_batch_mixed(pairs)  # warm connection + caches
        results_queue.put(("ready", client_id, 0.0, 0))
        start_event.wait()
        start = time.perf_counter()
        for _ in range(rounds):
            client.estimate_batch_mixed(pairs)
        elapsed = time.perf_counter() - start
        results_queue.put(("done", client_id, elapsed, rounds * len(pairs)))
    finally:
        client.close()


def _measure_client_cell(
    ctx,
    address: tuple[str, int],
    pairs,
    rounds: int,
    num_clients: int,
) -> dict[str, float]:
    """Aggregate throughput of ``num_clients`` concurrent client processes."""
    start_event = ctx.Event()
    results_queue = ctx.Queue()
    clients = [
        ctx.Process(
            target=_saturation_client,
            args=(address, pairs, rounds, start_event, results_queue, index),
            daemon=True,
        )
        for index in range(num_clients)
    ]
    try:
        for client in clients:
            client.start()
        for _ in clients:
            kind, *_ = results_queue.get(timeout=120.0)
            assert kind == "ready", f"client reported {kind!r} before start"
        start_event.set()
        elapsed: list[float] = []
        served = 0
        for _ in clients:
            kind, _, seconds, estimates = results_queue.get(timeout=300.0)
            assert kind == "done", f"client reported {kind!r} after start"
            elapsed.append(seconds)
            served += estimates
        for client in clients:
            client.join(timeout=30.0)
    finally:
        for client in clients:
            if client.is_alive():
                client.terminate()
    # Aggregate rate over the slowest client's window: every client ran
    # for (at least) that long, so this is the sustained fleet-wide rate.
    wall = max(elapsed)
    return {
        "clients": num_clients,
        "wall_seconds": wall,
        "aggregate_qps": served / wall,
        "per_client_qps": [
            (rounds * len(pairs)) / seconds for seconds in sorted(elapsed)
        ],
    }


def run_saturation_sweep(
    num_tables: int = 8,
    rows: int = 5_000,
    train_queries: int = 120,
    probes_per_table: int = 40,
    rounds: int = 4,
    fleet_sizes: tuple[int, ...] = SATURATION_FLEET_SIZES,
    client_counts: tuple[int, ...] = SATURATION_CLIENT_COUNTS,
) -> dict[str, object]:
    """Map aggregate throughput over the clients x shards grid.

    Every worker's cache is big enough to hold the whole working set, so
    steady-state cells measure the serving path — gateway event loop,
    wire, worker socket threads — not model math.  Per fleet size the
    sweep reports ``saturation_clients``: the first client count past
    which doubling clients buys less than ``SATURATION_GAIN``x aggregate
    throughput (the single asyncio gateway running out of headroom).
    """
    _, tables, trainers, pairs = build_mixed_workload(
        num_tables, rows, train_queries, probes_per_table, seed=42
    )
    ctx = multiprocessing.get_context("spawn")
    cache_capacity = len(pairs) + 16  # every worker can cache everything
    grid: dict[str, dict[str, object]] = {}
    for num_workers in fleet_sizes:
        processes = [
            WorkerProcess(
                shard_id=f"w{index}",
                cache_capacity=cache_capacity,
                scheduler_mode="inline",
            )
            for index in range(num_workers)
        ]
        server = None
        try:
            server = GatewayServer(
                {process.shard_id: process.address for process in processes},
                request_timeout=120.0,
            )
            server.start()
            setup = connect(*server.address, timeout=120.0)
            for table, trainer in trainers.items():
                setup.register_model(table, copy.deepcopy(trainer))
            setup.estimate_batch_mixed(pairs)  # populate worker caches
            cells = [
                _measure_client_cell(
                    ctx, server.address, pairs, rounds, num_clients
                )
                for num_clients in client_counts
            ]
            setup.close()
        finally:
            if server is not None:
                server.close()
            for process in processes:
                try:
                    process.request_shutdown(timeout=10.0)
                except Exception:
                    process.terminate()
        saturation = max(client_counts)
        for previous, cell in zip(cells, cells[1:]):
            gain = cell["aggregate_qps"] / previous["aggregate_qps"]
            if gain < SATURATION_GAIN:
                saturation = previous["clients"]
                break
        peak = max(cells, key=lambda cell: cell["aggregate_qps"])
        grid[str(num_workers)] = {
            "cells": cells,
            "saturation_clients": saturation,
            "peak_aggregate_qps": peak["aggregate_qps"],
            "peak_clients": peak["clients"],
            "scaling_vs_one_client": peak["aggregate_qps"]
            / cells[0]["aggregate_qps"],
        }
    return {
        "tables": num_tables,
        "predicates_per_round": len(pairs),
        "rounds_per_client": rounds,
        "client_counts": list(client_counts),
        "fleet_sizes": list(fleet_sizes),
        "saturation_gain_threshold": SATURATION_GAIN,
        "fleets": grid,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def host_fingerprint(quick: bool) -> dict[str, object]:
    """Cores, Python, NumPy, source version and run kind of a result."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", str(Path(__file__).resolve().parent), *args],
                capture_output=True, text=True, timeout=30, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip()

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "run": "quick" if quick else "full",
    }


def run_gateway_benchmark(quick: bool = False) -> dict[str, object]:
    if quick:
        # CI smoke: 2-worker fleet, parity asserted, timing bars skipped —
        # shared runners are too noisy for hard wall-clock assertions.
        throughput = run_throughput_benchmark(
            num_tables=8,
            rows=5_000,
            train_queries=60,
            probes_per_table=60,
            per_node_cache=200,
            rounds=2,
            fleet_sizes=(1, 2),
            check_advantage=False,
        )
        isolation = run_refit_isolation_benchmark(
            rows=6_000,
            train_queries=150,
            fresh_feedback=30,
            probe_count=20,
            max_samples=400,
            check_bound=False,
        )
        saturation = run_saturation_sweep(
            num_tables=4,
            rows=3_000,
            train_queries=60,
            probes_per_table=20,
            rounds=2,
            fleet_sizes=(1, 2),
            client_counts=(1, 2),
        )
    else:
        throughput = run_throughput_benchmark()
        isolation = run_refit_isolation_benchmark()
        saturation = run_saturation_sweep()
    return {
        "host": host_fingerprint(quick),
        "throughput": throughput,
        "reads_during_remote_refit": isolation,
        "saturation_sweep": saturation,
    }


def render_report(results: dict[str, object]) -> str:
    throughput = results["throughput"]
    isolation = results["reads_during_remote_refit"]
    baseline = throughput["single_process_baseline"]
    lines = [
        f"gateway benchmark ({throughput['tables']} tables, "
        f"{throughput['predicates_per_round']} mixed predicates/round, "
        f"cache {throughput['per_node_cache_capacity']}/node)",
        f"  in-process 1 node   steady {baseline['steady_qps']:>10.0f} est/s  "
        f"(hit rate {baseline['hit_rate']:.2f}, no wire)",
    ]
    for size in sorted(throughput["fleets"], key=int):
        fleet = throughput["fleets"][size]
        lines.append(
            f"  {size} worker proc{'s ' if int(size) > 1 else '  '} "
            f"steady {fleet['steady_qps']:>10.0f} est/s  "
            f"(cold {fleet['cold_qps']:>9.0f} est/s, "
            f"hit rate {fleet['hit_rate']:.2f})"
        )
    lines.append(
        f"  {throughput['largest_fleet']}-worker fleet vs in-process node: "
        f"{throughput['fleet_advantage_vs_single_process']:.2f}x "
        f"(bar: >{MIN_FLEET_ADVANTAGE}x)"
    )
    idle = isolation["idle"]
    during = isolation["during_refit"]
    lines.append(
        f"reads during a {isolation['refit_seconds'] * 1e3:.0f} ms refit on "
        f"the other worker ({isolation['reads_during_refit']} reads overlapped)"
    )
    lines.append(
        f"  idle          p50 {idle['p50_seconds'] * 1e6:8.0f} us  "
        f"p99 {idle['p99_seconds'] * 1e6:8.0f} us"
    )
    lines.append(
        f"  during refit  p50 {during['p50_seconds'] * 1e6:8.0f} us  "
        f"p99 {during['p99_seconds'] * 1e6:8.0f} us  "
        f"max {during['max_seconds'] * 1e3:7.1f} ms "
        f"(bar: p99 < {MAX_REFIT_READ_P99_SECONDS * 1e3:.0f} ms)"
    )
    sweep = results["saturation_sweep"]
    lines.append(
        f"clients x shards saturation sweep "
        f"({sweep['predicates_per_round']} mixed predicates/round, "
        f"clients {sweep['client_counts']})"
    )
    for size in sorted(sweep["fleets"], key=int):
        fleet = sweep["fleets"][size]
        cells = "  ".join(
            f"{cell['clients']}c {cell['aggregate_qps']:>8.0f}/s"
            for cell in fleet["cells"]
        )
        lines.append(
            f"  {size} worker{'s' if int(size) > 1 else ' '}  {cells}  "
            f"-> saturates at {fleet['saturation_clients']} client"
            f"{'s' if fleet['saturation_clients'] > 1 else ''} "
            f"(peak {fleet['peak_aggregate_qps']:.0f}/s, "
            f"{fleet['scaling_vs_one_client']:.2f}x one client)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_fleet_beats_single_process(benchmark):
    """A 4-worker process fleet out-serves one in-process node."""
    results = benchmark.pedantic(
        run_throughput_benchmark, rounds=1, iterations=1
    )
    benchmark.extra_info["fleet_advantage_vs_single_process"] = results[
        "fleet_advantage_vs_single_process"
    ]
    for size, fleet in results["fleets"].items():
        benchmark.extra_info[f"steady_qps_{size}_workers"] = fleet[
            "steady_qps"
        ]


def test_reads_bounded_during_remote_refit(benchmark):
    """Gateway reads stay bounded while another worker process refits."""
    results = benchmark.pedantic(
        run_refit_isolation_benchmark, rounds=1, iterations=1
    )
    benchmark.extra_info["during_refit_p99_seconds"] = results[
        "during_refit"
    ]["p99_seconds"]
    benchmark.extra_info["refit_seconds"] = results["refit_seconds"]


def test_gateway_saturation_sweep(benchmark):
    """Multi-client processes map where the asyncio gateway saturates."""
    results = benchmark.pedantic(run_saturation_sweep, rounds=1, iterations=1)
    for size, fleet in results["fleets"].items():
        benchmark.extra_info[f"saturation_clients_{size}_workers"] = fleet[
            "saturation_clients"
        ]
        benchmark.extra_info[f"peak_qps_{size}_workers"] = fleet[
            "peak_aggregate_qps"
        ]


# ----------------------------------------------------------------------
# Standalone CLI (used by CI's smoke run)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small 2-worker fleet for CI smoke runs (skips the timing "
        "bars, keeps remote/in-process parity assertions)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the results dict as JSON to PATH",
    )
    args = parser.parse_args(argv)
    results = run_gateway_benchmark(quick=args.quick)
    print(render_report(results))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    print("gateway benchmark: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
