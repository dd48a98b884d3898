"""Fault benchmark: availability and recovery of a supervised fleet.

Measures the two claims the ``repro.net`` fault-tolerance layer makes:

1. **A SIGKILLed worker comes back serving exactly what it last
   checkpointed, and no acknowledged feedback is lost.**  Workers
   checkpoint their per-key state durably; the gateway journals every
   acknowledged observe.  After the kill the supervisor respawns the
   worker (restoring its latest checkpoints), repoints the gateway at
   the new address, and resyncs the journal gap.  Restored estimates
   must match the pre-kill estimates to 1e-12 and every table's
   feedback count must land exactly where the acknowledgements said it
   would — ``lost_writes`` stays 0.
2. **The fleet keeps answering through a kill loop.**  Sustained mixed
   read/write traffic runs while workers are SIGKILLed on a seeded
   chaos schedule.  Reads that cannot reach their owner degrade to the
   gateway's last-known snapshot (``degraded_estimates`` > 0), writes
   are buffered and replayed on recovery, and overall availability —
   operations answered / operations attempted — must stay ≥ 99%.
   The run also records per-kill recovery time (SIGKILL → supervisor
   ``respawned`` event) and the same zero-loss feedback accounting.

Runs two ways:

* ``pytest benchmarks/bench_faults.py --benchmark-only`` — through the
  pytest-benchmark harness like the other benches, or
* ``python benchmarks/bench_faults.py [--quick] [--json PATH]`` —
  standalone script (used by CI); ``--quick`` shrinks the workload to a
  2-worker fleet and a single kill but keeps every correctness bar
  (parity, zero lost feedback, availability, degraded serving).  The
  full run's results are committed as ``BENCH_faults.json``.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import shutil
import sys
import tempfile
import threading
import time

import numpy as np

from repro.core.config import QuickSelConfig
from repro.core.quicksel import QuickSel
from repro.net import (
    ChaosSchedule,
    FleetSupervisor,
    GatewayServer,
    WorkerProcess,
    connect,
)
from repro.serving import RefitPolicy
from repro.serving.registry import normalize_key
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

PARITY_TOLERANCE = 1e-12
#: Operations answered / operations attempted through the kill loop.
MIN_AVAILABILITY = 0.99
#: How long a killed worker may take to be respawned, restored and
#: resynced before the bench calls the feedback lost.
RECOVERY_TIMEOUT_SECONDS = 60.0


# ----------------------------------------------------------------------
# Fleet construction
# ----------------------------------------------------------------------
def _frozen_policy() -> RefitPolicy:
    """A policy that never refits.

    The parity bars compare model output before and after a kill;
    re-delivered feedback must not retrain the model mid-comparison.
    """
    return RefitPolicy(
        min_new_observations=1_000_000_000,
        drift_threshold=1.0,
        min_drift_observations=1_000_000_000,
    )


def build_workload(
    num_tables: int, rows: int, train_queries: int, probes_per_table: int
):
    """Trained trainers, a feedback stream, and a mixed probe burst."""
    dataset = gaussian_dataset(rows, dimension=2, correlation=0.5, seed=11)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=12)
    feedback = labelled_feedback(
        generator.generate(train_queries), dataset.rows
    )
    fresh = labelled_feedback(
        RandomRangeQueryGenerator(dataset.domain, seed=13).generate(256),
        dataset.rows,
    )
    tables = [f"tbl{index:02d}" for index in range(num_tables)]
    trainers = {}
    for index, table in enumerate(tables):
        trainer = QuickSel(
            dataset.domain, QuickSelConfig(random_seed=20 + index)
        )
        trainer.observe_many(feedback, refit=True)
        trainers[table] = trainer
    probes = RandomRangeQueryGenerator(dataset.domain, seed=14).generate(
        probes_per_table
    )
    pairs = [
        (table, probe) for probe in probes for table in tables
    ]
    return tables, trainers, fresh, probes, pairs


class _SupervisedFleet:
    """A checkpointing worker fleet under a gateway and a supervisor."""

    def __init__(
        self,
        num_workers: int,
        checkpoint_root: str,
        checkpoint_every: int,
        write_buffer_capacity: int = 512,
    ) -> None:
        self.checkpoint_root = checkpoint_root
        self.processes: dict[str, WorkerProcess] = {}
        self.events: list[tuple[float, dict]] = []
        self._events_lock = threading.Lock()

        def spawn(shard_id: str) -> WorkerProcess:
            process = WorkerProcess(
                shard_id=shard_id,
                checkpoint_dir=os.path.join(checkpoint_root, shard_id),
                checkpoint_every=checkpoint_every,
                scheduler_mode="inline",
                policy=_frozen_policy(),
            )
            self.processes[shard_id] = process
            return process

        self._spawn = spawn
        for index in range(num_workers):
            spawn(f"w{index}")
        self.server = GatewayServer(
            {
                name: process.address
                for name, process in self.processes.items()
            },
            request_timeout=60.0,
            max_retries=1,
            retry_backoff=0.02,
            health_interval=0.2,
            breaker_threshold=3,
            breaker_cooldown=0.2,
            write_buffer_capacity=write_buffer_capacity,
        )
        self.server.start()
        self.supervisor = FleetSupervisor(
            gateway=self.server,
            poll_interval=0.1,
            backoff_base=0.2,
            backoff_cap=2.0,
            max_restarts=10,
            stable_seconds=5.0,
            on_event=self._record_event,
        )
        for name, process in self.processes.items():
            self.supervisor.manage(
                process, lambda shard_id=name: self._spawn(shard_id)
            )
        self.supervisor.start()
        self.client = connect(*self.server.address, timeout=60.0)

    def _record_event(self, event: dict) -> None:
        with self._events_lock:
            self.events.append((time.monotonic(), event))

    def recorded_events(self) -> list[tuple[float, dict]]:
        with self._events_lock:
            return list(self.events)

    def owner_of(self, table: str) -> str:
        return self.server.gateway.router.route(normalize_key(table))

    def force_checkpoints(self) -> None:
        """Ask every live worker to checkpoint all its keys now."""
        for process in self.processes.values():
            direct = connect(*process.address, timeout=30.0)
            try:
                direct._call("checkpoint")
            finally:
                direct.close()

    def kill(self, name: str) -> float:
        """SIGKILL a worker; returns the kill's monotonic timestamp."""
        process = self.processes[name]
        stamp = time.monotonic()
        process.kill()
        return stamp

    def await_counts(
        self,
        expected: dict[str, int],
        timeout: float = RECOVERY_TIMEOUT_SECONDS,
    ) -> tuple[bool, dict[str, int], float]:
        """Poll until every table's feedback count matches ``expected``.

        Returns ``(converged, final_counts, seconds_waited)`` — the
        zero-lost-feedback check is ``converged`` plus exact equality.
        """
        start = time.monotonic()
        deadline = start + timeout
        counts: dict[str, int] = {}
        while time.monotonic() < deadline:
            try:
                counts = {
                    table: self.client.feedback_count(table)
                    for table in expected
                }
            except Exception:
                time.sleep(0.05)
                continue
            if counts == expected:
                return True, counts, time.monotonic() - start
            time.sleep(0.05)
        return False, counts, time.monotonic() - start

    def close(self) -> None:
        self.supervisor.close()
        try:
            self.client.close()
        except Exception:
            pass
        self.server.close()
        for process in self.processes.values():
            try:
                process.request_shutdown(timeout=10.0)
            except Exception:
                process.terminate()


def _recovery_times(
    kills: list[tuple[float, str]], events: list[tuple[float, dict]]
) -> list[float]:
    """Seconds from each SIGKILL to its worker's ``respawned`` event."""
    times: list[float] = []
    for kill_stamp, victim in kills:
        for stamp, event in events:
            if (
                stamp >= kill_stamp
                and event.get("event") == "respawned"
                and event.get("worker") == victim
            ):
                times.append(stamp - kill_stamp)
                break
    return times


# ----------------------------------------------------------------------
# Claim 1: checkpoint-restore parity and zero feedback loss
# ----------------------------------------------------------------------
def run_recovery_parity_benchmark(
    num_workers: int = 3,
    num_tables: int = 6,
    rows: int = 6_000,
    train_queries: int = 200,
    probes_per_table: int = 30,
    observes_before_checkpoint: int = 8,
    observes_after_checkpoint: int = 5,
    check_bars: bool = True,
) -> dict[str, object]:
    """SIGKILL one worker and require an exact, lossless comeback.

    The feedback after the forced checkpoint is deliberately *not* on
    disk when the kill lands — the gateway journal must re-deliver it
    during resync for the counts to come back exact.
    """
    tables, trainers, fresh, _, pairs = build_workload(
        num_tables, rows, train_queries, probes_per_table
    )
    root = tempfile.mkdtemp(prefix="bench-faults-parity-")
    fleet = _SupervisedFleet(num_workers, root, checkpoint_every=1_000_000)
    try:
        client = fleet.client
        expected_counts: dict[str, int] = {}
        for table in tables:
            client.register_model(table, copy.deepcopy(trainers[table]))
            expected_counts[table] = client.feedback_count(table)
        stream = itertools.cycle(fresh)
        for table in tables:
            for _ in range(observes_before_checkpoint):
                predicate, selectivity = next(stream)
                client.observe(table, predicate, selectivity)
                expected_counts[table] += 1
        fleet.force_checkpoints()
        for table in tables:
            for _ in range(observes_after_checkpoint):
                predicate, selectivity = next(stream)
                client.observe(table, predicate, selectivity)
                expected_counts[table] += 1
        expected = client.estimate_batch_mixed(pairs)

        owners = {table: fleet.owner_of(table) for table in tables}
        victim = max(
            fleet.processes,
            key=lambda name: sum(1 for owner in owners.values()
                                 if owner == name),
        )
        victim_tables = [t for t, owner in owners.items() if owner == victim]
        kill_stamp = fleet.kill(victim)
        converged, final_counts, recovery_seconds = fleet.await_counts(
            expected_counts
        )
        recovered = client.estimate_batch_mixed(pairs)
        max_error = float(np.abs(recovered - expected).max())
        stats = client.fleet_stats()
        gateway = stats["gateway"]
        respawns = _recovery_times(
            [(kill_stamp, victim)], fleet.recorded_events()
        )
        results: dict[str, object] = {
            "workers": num_workers,
            "tables": num_tables,
            "victim": victim,
            "victim_tables": len(victim_tables),
            "observes_per_table": (
                observes_before_checkpoint + observes_after_checkpoint
            ),
            "journal_only_observes_per_table": observes_after_checkpoint,
            "feedback_converged": converged,
            "recovery_seconds": recovery_seconds,
            "respawn_seconds": respawns[0] if respawns else None,
            "max_abs_error_after_recovery": max_error,
            "checkpoint_restores": int(gateway["checkpoint_restores"]),
            "lost_writes": int(gateway["lost_writes"]),
            "restarts": fleet.supervisor.status()[victim]["restarts"],
        }
        if check_bars:
            assert victim_tables, "the victim owned no tables — no fault"
            assert converged, (
                f"feedback counts never reconverged: {final_counts} != "
                f"{expected_counts} — acknowledged feedback was lost"
            )
            assert results["lost_writes"] == 0, (
                f"{results['lost_writes']} acknowledged writes were lost"
            )
            assert results["checkpoint_restores"] >= 1, (
                "the respawned worker restored nothing from its checkpoints"
            )
            assert max_error <= PARITY_TOLERANCE, (
                f"restored estimates diverged by {max_error} "
                f"(bar: <= {PARITY_TOLERANCE})"
            )
        return results
    finally:
        fleet.close()
        shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# Claim 2: availability through a kill loop
# ----------------------------------------------------------------------
def run_kill_loop_benchmark(
    num_workers: int = 3,
    num_tables: int = 4,
    rows: int = 5_000,
    train_queries: int = 150,
    probes_per_table: int = 24,
    duration_seconds: float = 12.0,
    max_kills: int = 3,
    mean_kill_interval: float = 3.0,
    checkpoint_every: int = 8,
    seed: int = 7,
    check_bars: bool = True,
) -> dict[str, object]:
    """Mixed traffic while a seeded chaos schedule SIGKILLs workers.

    Every read and write is attempted exactly once (the gateway's own
    retries, degraded reads, and write buffering are the machinery under
    test); an exception counts against availability.
    """
    tables, trainers, fresh, probes, _ = build_workload(
        num_tables, rows, train_queries, probes_per_table
    )
    root = tempfile.mkdtemp(prefix="bench-faults-chaos-")
    fleet = _SupervisedFleet(
        num_workers, root, checkpoint_every=checkpoint_every
    )
    try:
        client = fleet.client
        expected_counts: dict[str, int] = {}
        for table in tables:
            client.register_model(table, copy.deepcopy(trainers[table]))
            expected_counts[table] = client.feedback_count(table)
        # Warm the gateway's snapshot cache so degraded reads have
        # something better than the prior to answer from.
        for table in tables:
            client.estimate_batch(table, probes)

        schedule = ChaosSchedule(
            seed=seed, mean_interval=mean_kill_interval, jitter=0.5
        )
        victims = itertools.cycle(sorted(fleet.processes))
        stream = itertools.cycle(fresh)
        table_cycle = itertools.cycle(tables)
        probe_cycle = itertools.cycle(probes)

        start = time.monotonic()
        deadline = start + duration_seconds
        next_kill = start + schedule.next_delay()
        kills: list[tuple[float, str]] = []
        read_attempts = read_successes = 0
        write_attempts = write_acks = 0
        iteration = 0
        while time.monotonic() < deadline:
            now = time.monotonic()
            if now >= next_kill and len(kills) < max_kills:
                victim = next(victims)
                if fleet.processes[victim].alive:
                    kills.append((fleet.kill(victim), victim))
                next_kill = now + schedule.next_delay()
            table = next(table_cycle)
            read_attempts += 1
            try:
                client.estimate(table, next(probe_cycle))
                read_successes += 1
            except Exception:
                pass
            if iteration % 2 == 0:
                predicate, selectivity = next(stream)
                write_attempts += 1
                try:
                    client.observe(table, predicate, selectivity)
                    write_acks += 1
                    expected_counts[table] += 1
                except Exception:
                    pass
            iteration += 1
            time.sleep(0.005)

        converged, final_counts, _ = fleet.await_counts(expected_counts)
        stats = client.fleet_stats()
        gateway = stats["gateway"]
        attempts = read_attempts + write_attempts
        answered = read_successes + write_acks
        availability = answered / attempts if attempts else 0.0
        recoveries = _recovery_times(kills, fleet.recorded_events())
        results: dict[str, object] = {
            "workers": num_workers,
            "tables": num_tables,
            "duration_seconds": duration_seconds,
            "kills": len(kills),
            "killed_workers": [victim for _, victim in kills],
            "read_attempts": read_attempts,
            "read_successes": read_successes,
            "write_attempts": write_attempts,
            "write_acks": write_acks,
            "availability": availability,
            "feedback_converged": converged,
            "recovery_seconds": recoveries,
            "mean_recovery_seconds": (
                float(np.mean(recoveries)) if recoveries else None
            ),
            "degraded_estimates": int(gateway["degraded_estimates"]),
            "breaker_opens": int(gateway["breaker_opens"]),
            "buffered_writes": int(gateway["buffered_writes"]),
            "buffered_writes_replayed": int(
                gateway["buffered_writes_replayed"]
            ),
            "lost_writes": int(gateway["lost_writes"]),
            "checkpoint_restores": int(gateway["checkpoint_restores"]),
        }
        if check_bars:
            assert kills, "the chaos schedule never fired inside the window"
            assert availability >= MIN_AVAILABILITY, (
                f"availability {availability:.4f} under the kill loop "
                f"(bar: >= {MIN_AVAILABILITY})"
            )
            assert results["degraded_estimates"] > 0, (
                "no read was served degraded — the kills never pressured "
                "the read path, so the run proves nothing"
            )
            assert converged, (
                f"feedback counts never reconverged: {final_counts} != "
                f"{expected_counts} — acknowledged feedback was lost"
            )
            assert results["lost_writes"] == 0, (
                f"{results['lost_writes']} acknowledged writes were lost"
            )
            assert len(recoveries) == len(kills), (
                "a killed worker was never respawned by the supervisor"
            )
        return results
    finally:
        fleet.close()
        shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def run_faults_benchmark(quick: bool = False) -> dict[str, object]:
    if quick:
        # CI smoke: 2 workers, one kill, shorter traffic window — every
        # correctness bar (parity, zero loss, availability) still holds.
        parity = run_recovery_parity_benchmark(
            num_workers=2,
            num_tables=4,
            rows=4_000,
            train_queries=80,
            probes_per_table=15,
        )
        chaos = run_kill_loop_benchmark(
            num_workers=2,
            num_tables=3,
            rows=3_000,
            train_queries=60,
            probes_per_table=12,
            duration_seconds=6.0,
            max_kills=1,
            mean_kill_interval=1.5,
        )
    else:
        parity = run_recovery_parity_benchmark()
        chaos = run_kill_loop_benchmark()
    return {"recovery_parity": parity, "kill_loop": chaos}


def render_report(results: dict[str, object]) -> str:
    parity = results["recovery_parity"]
    chaos = results["kill_loop"]
    lines = [
        f"fault benchmark ({parity['workers']} workers, "
        f"{parity['tables']} tables, victim {parity['victim']} owning "
        f"{parity['victim_tables']})",
        f"  SIGKILL -> respawned in {parity['respawn_seconds']:.2f} s, "
        f"feedback exact after {parity['recovery_seconds']:.2f} s "
        f"({parity['journal_only_observes_per_table']} journal-only "
        f"observes/table re-delivered)",
        f"  restored max |err| {parity['max_abs_error_after_recovery']:.2e} "
        f"(bar: <= {PARITY_TOLERANCE:.0e}), "
        f"checkpoint restores {parity['checkpoint_restores']}, "
        f"lost writes {parity['lost_writes']}",
        f"kill loop ({chaos['workers']} workers, {chaos['kills']} kills "
        f"over {chaos['duration_seconds']:.0f} s: "
        f"{', '.join(chaos['killed_workers'])})",
        f"  availability {chaos['availability']:.4f} "
        f"(bar: >= {MIN_AVAILABILITY}) over "
        f"{chaos['read_attempts']} reads + {chaos['write_attempts']} writes",
        f"  degraded reads {chaos['degraded_estimates']}, "
        f"breaker opens {chaos['breaker_opens']}, "
        f"writes buffered {chaos['buffered_writes']} "
        f"(replayed {chaos['buffered_writes_replayed']}), "
        f"lost {chaos['lost_writes']}",
    ]
    if chaos["recovery_seconds"]:
        recoveries = ", ".join(
            f"{value:.2f}" for value in chaos["recovery_seconds"]
        )
        lines.append(
            f"  kill -> respawn seconds per kill: {recoveries} "
            f"(mean {chaos['mean_recovery_seconds']:.2f})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_sigkill_recovery_is_exact(benchmark):
    """A killed worker restores its checkpoint and loses no feedback."""
    results = benchmark.pedantic(
        run_recovery_parity_benchmark, rounds=1, iterations=1
    )
    benchmark.extra_info["recovery_seconds"] = results["recovery_seconds"]
    benchmark.extra_info["max_abs_error"] = results[
        "max_abs_error_after_recovery"
    ]


def test_fleet_availability_under_kill_loop(benchmark):
    """The fleet keeps answering while workers are SIGKILLed."""
    results = benchmark.pedantic(
        run_kill_loop_benchmark, rounds=1, iterations=1
    )
    benchmark.extra_info["availability"] = results["availability"]
    benchmark.extra_info["degraded_estimates"] = results[
        "degraded_estimates"
    ]
    benchmark.extra_info["lost_writes"] = results["lost_writes"]


# ----------------------------------------------------------------------
# Standalone CLI (used by CI's smoke run)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="2-worker fleet and a single kill for CI smoke runs (keeps "
        "every correctness bar)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the results dict as JSON to PATH",
    )
    args = parser.parse_args(argv)
    results = run_faults_benchmark(quick=args.quick)
    print(render_report(results))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    print("fault benchmark: all assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
