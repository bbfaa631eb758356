"""The batch probe reads the world at checkpoints of its run; the reads
must leave the simulated outcome exactly as an unprobed run leaves it."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from dcrobot.experiments.runner import (  # noqa: E402
    build_world,
    summarize_world,
)
from dcrobot.topology.smi import SmiTracker  # noqa: E402
from perfbench import batch  # noqa: E402
from perfbench.worlds import CONFIGS  # noqa: E402


@pytest.mark.parametrize("workload", ["hall_chaos", "traffic", "twin"])
def test_probed_campaign_matches_an_unprobed_run(workload):
    config = CONFIGS[workload](1, tiny=True)
    reads = 20 * batch.PROBE_POINTS
    probed = batch.campaign(0, config, reads)
    assert not probed.problems
    assert len(probed.latencies) == reads

    world = build_world(config)
    SmiTracker(world.topology)
    fabric = world.fabric
    transceivers = sum(fabric.spare_transceivers.values())
    cables = fabric.spare_cables
    world.sim.run(until=config.horizon_seconds)
    world.spares_consumed_transceivers = (
        transceivers - sum(fabric.spare_transceivers.values()))
    world.spares_consumed_cables = cables - fabric.spare_cables
    assert batch.summary_digest(summarize_world(world)) == probed.digest
