"""Sharded serving: the service-owned worker pool, the ``in_process``
ladder rung, health/readiness reflection, and clean shutdown.

Everything here runs against a small real pool (fork is cheap); the
bar mirrors docs/serving.md: strict startup, a dead pool degrades to
bit-identical in-process answers, ``/readyz`` flips on pool health, and
EOF shutdown leaks neither processes nor shared memory.
"""

from __future__ import annotations

import json

import pytest

from repro.api import QueryRequest
from repro.core import SpeakQLArtifacts, SpeakQLService
from repro.core.pipeline import SpeakQLConfig
from repro.errors import ShardPoolError
from repro.serving import AsyncServingDaemon, ServingRuntime

from .daemon_harness import fetch, serve_stdin, serve_while

TRAINING = [
    "SELECT FirstName FROM Employees",
    "SELECT salary FROM Salaries",
]

REQUEST = QueryRequest(text="SELECT FirstName FROM Employees", seed=7)


@pytest.fixture(scope="module")
def artifacts(request):
    small_index = request.getfixturevalue("small_index")
    return SpeakQLArtifacts.build(
        structure_index=small_index, training_sql=TRAINING
    )


def make_sharded(request, artifacts, shards: int = 2) -> SpeakQLService:
    small_catalog = request.getfixturevalue("small_catalog")
    service = SpeakQLService(small_catalog, artifacts=artifacts)
    service.enable_sharding(shards)
    return service


class TestServiceLifecycle:
    def test_enable_sharding_attaches_and_close_detaches(
        self, request, artifacts
    ):
        service = make_sharded(request, artifacts)
        try:
            assert service.search_executor is not None
            assert service.search_executor.alive
            assert (
                service.pipeline._searcher.executor
                is service.search_executor
            )
        finally:
            service.close()
        assert service.search_executor is None
        assert service.pipeline._searcher.executor is None
        service.close()  # idempotent

    def test_sharded_batch_matches_unsharded(self, request, artifacts):
        small_catalog = request.getfixturevalue("small_catalog")
        plain = SpeakQLService(small_catalog, artifacts=artifacts)
        with make_sharded(request, artifacts) as sharded:
            want = plain.run_batch([REQUEST])
            got = sharded.run_batch([REQUEST])
        assert got[0].queries == want[0].queries
        assert got[0].structure == want[0].structure

    def test_constructor_shards_argument(self, request, artifacts):
        small_catalog = request.getfixturevalue("small_catalog")
        with SpeakQLService(
            small_catalog, artifacts=artifacts, shards=2
        ) as service:
            assert service.search_executor is not None
            assert service.search_executor.shards == 2

    def test_incompatible_kernel_is_rejected(self, request, artifacts):
        small_catalog = request.getfixturevalue("small_catalog")
        service = SpeakQLService(
            small_catalog,
            artifacts=artifacts,
            config=SpeakQLConfig(search_kernel="flat"),
        )
        with pytest.raises(ValueError, match="compiled kernel"):
            service.enable_sharding(2)

    def test_double_enable_is_rejected(self, request, artifacts):
        with make_sharded(request, artifacts) as service:
            with pytest.raises(ValueError, match="already"):
                service.enable_sharding(2)


class TestShardedLadder:
    def test_default_ladder_gains_in_process_rung(self, request, artifacts):
        with make_sharded(request, artifacts) as service:
            runtime = ServingRuntime(service)
            names = [rung.name for rung in runtime.ladder]
            assert names[:3] == ["requested", "in_process", "flat_kernel"]
            assert dict(runtime.ladder[1].overrides) == {"use_sharded": False}

    def test_unsharded_service_keeps_default_ladder(self, request, artifacts):
        small_catalog = request.getfixturevalue("small_catalog")
        service = SpeakQLService(small_catalog, artifacts=artifacts)
        names = [rung.name for rung in ServingRuntime(service).ladder]
        assert "in_process" not in names

    def test_dead_pool_degrades_to_identical_in_process_answer(
        self, request, artifacts
    ):
        small_catalog = request.getfixturevalue("small_catalog")
        plain = SpeakQLService(small_catalog, artifacts=artifacts)
        with make_sharded(request, artifacts) as service:
            runtime = ServingRuntime(service)
            served = runtime.submit(REQUEST)
            assert served.outcome == "served" and served.rung == 0
            service.search_executor.stop()
            # A structurally fresh request (the first one's search is in
            # the engine's LRU cache, which legitimately still serves).
            fresh = QueryRequest(
                text="select salary from salaries where x > x", seed=11
            )
            degraded = runtime.submit(fresh)
            assert degraded.outcome == "degraded"
            assert runtime.ladder[degraded.rung].name == "in_process"
            want = plain.run_batch([fresh])
            assert degraded.output.queries == want[0].queries


class TestHealthAndReadiness:
    def test_runtime_health_reflects_pool(self, request, artifacts):
        with make_sharded(request, artifacts) as service:
            runtime = ServingRuntime(service)
            health = runtime.health()
            assert health["shard_pool_ok"] is True
            assert health["shards"]["alive"] is True
            assert health["shards"]["shards"] == 2
            service.search_executor.stop()
            health = runtime.health()
            assert health["shard_pool_ok"] is False

    def test_unsharded_health_is_trivially_ok(self, request, artifacts):
        small_catalog = request.getfixturevalue("small_catalog")
        service = SpeakQLService(small_catalog, artifacts=artifacts)
        health = ServingRuntime(service).health()
        assert health["shard_pool_ok"] is True
        assert health["shards"] is None

    def test_readyz_flips_when_pool_dies(self, request, artifacts):
        with make_sharded(request, artifacts) as service:
            runtime = ServingRuntime(service)

            async def scenario(daemon):
                address = daemon.health_address
                before = await fetch(address, "/readyz")
                service.search_executor.stop()
                return before, await fetch(address, "/readyz"), (
                    await fetch(address, "/healthz")
                )

            code, (before, after, health) = serve_while(
                AsyncServingDaemon(runtime, health_port=0), scenario
            )
            assert code == 0
            status, _, body = before
            assert status == 200 and json.loads(body)["shard_pool_ok"] is True
            status, _, body = after
            assert status == 503 and json.loads(body)["shard_pool_ok"] is False
            # Liveness keeps answering 200 regardless.
            assert health[0] == 200


class TestDaemonShutdown:
    def test_eof_shutdown_stops_the_pool(self, request, artifacts):
        with make_sharded(request, artifacts) as service:
            runtime = ServingRuntime(service)
            executor = service.search_executor
            procs = [p for p in executor._procs if p is not None]
            code, [reply] = serve_stdin(
                AsyncServingDaemon(runtime),
                json.dumps({"id": 1, "text": "select first name"}) + "\n",
            )
            assert code == 0
            assert reply["id"] == 1 and reply["outcome"] in (
                "served",
                "degraded",
            )
            # EOF propagated: pool stopped, workers joined, service
            # detached.
            assert service.search_executor is None
            assert all(not p.is_alive() for p in procs)

    def test_search_after_pool_stop_raises_pool_error(
        self, request, artifacts
    ):
        with make_sharded(request, artifacts) as service:
            executor = service.search_executor
            executor.stop()
            with pytest.raises(ShardPoolError):
                executor.search(("SELECT", "x"), 1)
