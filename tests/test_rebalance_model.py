"""Model-based test of the live sharded service.

A hypothesis state machine drives one :class:`ShardedService` through
random interleavings of queries, range splits (worker-chosen median or
an explicit boundary), merges of adjacent shards, a SIGKILL plus restart
of one worker, and a full close → ``from_checkpoint`` restart.  The
model is trivial on purpose: whatever the topology, every protocol
family must answer with the same bytes as one single-store
:class:`QueryEngine` over the whole population.  The invariant checks
that after every step.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import BiasedPRF, user_universe
from repro.protocol import dumps_response
from repro.server import ShardedService

from .test_rebalance import REQUESTS, make_stack

STORE, PRF, ENGINE = make_stack(BiasedPRF, num_users=40, seed=11)
EXPECTED = {request: dumps_response(ENGINE.execute(request)) for request in REQUESTS}
USERS = user_universe(STORE.to_columns())
#: Splits only while the topology is this small, so no example spawns
#: more than a handful of workers.
MAX_SHARDS = 4


class ShardedServiceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.base_dir = tempfile.mkdtemp(prefix="repro-model-")
        self.service = ShardedService.from_store(
            STORE, PRF, 2, self.base_dir, cache=True
        ).start()

    def shard_ids(self) -> list:
        return [spec.shard_id for spec in self.service.shard_map.shards]

    @rule(request=st.sampled_from(REQUESTS))
    def query(self, request) -> None:
        got = dumps_response(self.service.coordinator.execute(request))
        assert got == EXPECTED[request], request.kind

    @precondition(lambda self: len(self.service.shard_map.shards) < MAX_SHARDS)
    @rule(data=st.data(), explicit=st.booleans())
    def split(self, data, explicit) -> None:
        spec = data.draw(st.sampled_from(self.service.shard_map.shards))
        inside = [u for u in USERS if spec.first_user < u <= spec.last_user]
        boundary = None
        if explicit and inside:
            boundary = data.draw(st.sampled_from(inside))
        before = self.shard_ids()
        if spec.num_users < 2:
            with pytest.raises(ValueError, match="cannot split"):
                self.service.rebalance_split(spec.shard_id, boundary)
            assert self.shard_ids() == before
            return
        out = self.service.rebalance_split(spec.shard_id, boundary)
        if boundary is not None:
            assert out["boundary"] == boundary
        index = before.index(spec.shard_id)
        before.insert(index + 1, out["recipient"])
        assert out["shards"] == before

    @precondition(lambda self: len(self.service.shard_map.shards) >= 2)
    @rule(data=st.data())
    def merge(self, data) -> None:
        ids = self.shard_ids()
        index = data.draw(st.integers(0, len(ids) - 2))
        out = self.service.rebalance_merge(ids[index], ids[index + 1])
        assert out["shards"] == ids[: index + 1] + ids[index + 2 :]

    @rule(data=st.data())
    def kill_and_restart(self, data) -> None:
        shard_id = data.draw(st.sampled_from(self.shard_ids()))
        self.service.kill_shard(shard_id)
        self.service.restart_shard(shard_id)

    @rule()
    def restart_from_checkpoint(self) -> None:
        before = self.service.shard_map.shards
        self.service.close()
        self.service = ShardedService.from_checkpoint(self.base_dir, PRF).start()
        assert self.service.shard_map.shards == before
        assert self.service.rebalance_status()["recovered"] is None

    @invariant()
    def every_family_answers_like_one_store(self) -> None:
        for request in REQUESTS:
            got = dumps_response(self.service.coordinator.execute(request))
            assert got == EXPECTED[request], request.kind
        status = self.service.rebalance_status()
        assert status["active"] is None
        assert all(entry["live"] for entry in status["shards"])
        # No handoff file outlives its rebalance: the directory holds
        # exactly the committed map's stores.
        stores = {
            name for name in os.listdir(self.base_dir) if name.endswith(".npz")
        }
        assert stores == {
            os.path.basename(spec.store_path)
            for spec in self.service.shard_map.shards
        }

    def teardown(self) -> None:
        self.service.close()
        shutil.rmtree(self.base_dir, ignore_errors=True)


TestShardedServiceModel = ShardedServiceMachine.TestCase
TestShardedServiceModel.settings = settings(
    max_examples=20,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
