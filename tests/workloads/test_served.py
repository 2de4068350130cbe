"""The served ancestor workload's helpers: replica catch-up."""

import time

import pytest

from repro.workloads.served import wait_for_replicas


class StubRouter:
    """A router ``stats`` reply: shard 0's replica caught up, shard 1's
    watermark stuck below its primary's version."""

    def __init__(self, stuck_watermark):
        self.stuck_watermark = stuck_watermark

    def stats(self):
        return {
            "stats": {
                "shards": {
                    "0": {"primary": {"pool": {"version": 5}}, "replicas": [{"watermark": 5}]},
                    "1": {
                        "primary": {"pool": {"version": 7}},
                        "replicas": [{"watermark": self.stuck_watermark}],
                    },
                }
            }
        }


@pytest.mark.parametrize("stuck", [3, None])
def test_a_replica_that_never_catches_up_raises_naming_its_shard(stuck):
    started = time.monotonic()
    with pytest.raises(TimeoutError, match=r"shard\(s\) 1 did not reach"):
        wait_for_replicas(StubRouter(stuck), timeout=0.2)
    assert time.monotonic() - started < 5.0


def test_caught_up_replicas_return_at_once():
    started = time.monotonic()
    wait_for_replicas(StubRouter(7), timeout=0.2)
    assert time.monotonic() - started < 0.1


def test_an_unread_primary_counts_as_lagging():
    router = StubRouter(7)
    stats = router.stats()
    stats["stats"]["shards"]["1"]["primary"] = None  # busy or down
    router.stats = lambda: stats
    with pytest.raises(TimeoutError, match=r"shard\(s\) 1 did not reach"):
        wait_for_replicas(router, timeout=0.2)
