"""Shared fixtures for the test suite."""

from __future__ import annotations

import copy
import threading

import numpy as np
import pytest

from repro.cluster import ShardedSelectivityService
from repro.core.geometry import Hyperrectangle
from repro.core.predicate import box_predicate
from repro.serving import RefitScheduler, SelectivityService
from repro.workloads.synthetic import gaussian_dataset


@pytest.fixture
def unit_square() -> Hyperrectangle:
    """The 2-D unit square domain."""
    return Hyperrectangle.unit(2)


@pytest.fixture
def unit_cube_3d() -> Hyperrectangle:
    """The 3-D unit cube domain."""
    return Hyperrectangle.unit(3)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def gaussian_rows() -> np.ndarray:
    """A small correlated Gaussian dataset on the unit square."""
    return gaussian_dataset(5000, dimension=2, correlation=0.5, seed=7).rows


@pytest.fixture
def make_service():
    """Factory for a :class:`SelectivityService` with an inline scheduler.

    The construction helper previously copy-pasted across the serving,
    cluster, and backend test modules: tests want deterministic refits
    (inline unless they say otherwise), everything else per-test.
    Services created here are closed at teardown, so none outlives the
    test that built it.
    """
    services: list[SelectivityService] = []

    def make(**kwargs) -> SelectivityService:
        kwargs.setdefault("scheduler", RefitScheduler("inline"))
        service = SelectivityService(**kwargs)
        services.append(service)
        return service

    yield make
    for service in services:
        try:
            service.close()
        except Exception:
            pass  # a test may have closed (or broken) it already


@pytest.fixture
def make_cluster():
    """Factory for a :class:`ShardedSelectivityService` (inline refits)."""
    clusters: list[ShardedSelectivityService] = []

    def make(num_shards: int, **kwargs) -> ShardedSelectivityService:
        kwargs.setdefault("scheduler_mode", "inline")
        cluster = ShardedSelectivityService(num_shards=num_shards, **kwargs)
        clusters.append(cluster)
        return cluster

    yield make
    for cluster in clusters:
        try:
            if not cluster.closed:
                cluster.close()
        except Exception:
            pass


class _RecordAfterFirstRelease:
    """A stats lock that lets one cache-hit ``record_estimate`` land
    right after its first release, so a reader that takes the lock
    twice sees a request arrive between its two reads."""

    def __init__(self, stats) -> None:
        self._lock = threading.Lock()
        self._stats = stats
        self._fired = False

    def __enter__(self) -> None:
        self._lock.acquire()

    def __exit__(self, *exc_info) -> None:
        self._lock.release()
        if not self._fired:
            self._fired = True
            self._stats.record_estimate(0.001, cache_hit=True)


@pytest.fixture
def record_between_reads():
    """Install :class:`_RecordAfterFirstRelease` as a stats object's lock."""

    def install(stats) -> None:
        stats._lock = _RecordAfterFirstRelease(stats)

    return install


@pytest.fixture
def register_tables():
    """Register deep copies of a trained backend under many table names."""

    def register(service, base, tables):
        return [
            service.register_model(table, copy.deepcopy(base))
            for table in tables
        ]

    return register


@pytest.fixture
def random_box_queries(rng):
    """A helper producing random box predicates over the unit square."""

    def make(count: int, seed: int = 3):
        local = np.random.default_rng(seed)
        predicates = []
        for _ in range(count):
            low = local.uniform(0.0, 0.6, size=2)
            high = low + local.uniform(0.1, 0.4, size=2)
            high = np.minimum(high, 1.0)
            predicates.append(
                box_predicate([(0, low[0], high[0]), (1, low[1], high[1])])
            )
        return predicates

    return make
