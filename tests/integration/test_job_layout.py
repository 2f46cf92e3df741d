"""The once-per-job block layout: call counts and a bit-identity pin.

``run_genx`` builds the global block specs and the LPT partition once
per job and hands each compute rank its own bucket.  The pinned block
ids and virtual times are exact: sharing the layout must not move any
rank's blocks, block order, RNG stream or clock.
"""

import pytest

from repro.cluster import Machine
from repro.cluster import testbox as make_testbox
from repro.genx import GENxConfig, lab_scale_motor, run_genx, scalability_cylinder
from repro.genx import driver
from repro.genx.physics import base as physics_base


def weak_workload(steps=2):
    return scalability_cylinder(
        per_client_bytes=64 * 1024, blocks_per_client_fluid=2,
        blocks_per_client_solid=1, steps=steps, snapshot_interval=1,
    )


def motor_workload():
    return lab_scale_motor(
        scale=0.01, nblocks_fluid=12, nblocks_solid=6, steps=4,
        snapshot_interval=2,
    )


def make_machine():
    return Machine(make_testbox(nnodes=8, cpus_per_node=4), seed=7)


# world rank -> window -> block ids; world ranks 0 and 9 are the servers.
WEAK_BLOCKS = {
    1: {"Rocflo": [3, 30], "Rocfrac": [2], "Rocburn": [3, 30]},
    2: {"Rocflo": [4, 16], "Rocfrac": [15], "Rocburn": [4, 31]},
    3: {"Rocflo": [10, 20], "Rocfrac": [11], "Rocburn": [19, 28]},
    4: {"Rocflo": [19, 31], "Rocfrac": [3], "Rocburn": [10, 20]},
    5: {"Rocflo": [25, 28], "Rocfrac": [0], "Rocburn": [16, 25]},
    6: {"Rocflo": [1, 24], "Rocfrac": [10], "Rocburn": [1, 11]},
    7: {"Rocflo": [11, 23], "Rocfrac": [14], "Rocburn": [23, 24]},
    8: {"Rocflo": [5, 21], "Rocfrac": [6], "Rocburn": [9, 13]},
    10: {"Rocflo": [9, 13], "Rocfrac": [4], "Rocburn": [5, 21]},
    11: {"Rocflo": [2, 6], "Rocfrac": [7], "Rocburn": [2, 6]},
    12: {"Rocflo": [7, 22], "Rocfrac": [9], "Rocburn": [7, 22]},
    13: {"Rocflo": [8, 27], "Rocfrac": [12], "Rocburn": [27, 29]},
    14: {"Rocflo": [0, 14], "Rocfrac": [1], "Rocburn": [14, 18]},
    15: {"Rocflo": [17, 18], "Rocfrac": [8], "Rocburn": [12, 26]},
    16: {"Rocflo": [15, 29], "Rocfrac": [13], "Rocburn": [0, 15]},
    17: {"Rocflo": [12, 26], "Rocfrac": [5], "Rocburn": [8, 17]},
}

MOTOR_BLOCKS = {
    0: {"Rocflo": [3, 5, 7], "Rocfrac": [2], "Rocburn": [3, 8, 11]},
    1: {"Rocflo": [4, 8, 11], "Rocfrac": [3], "Rocburn": [4, 6, 7]},
    2: {"Rocflo": [0, 1, 6], "Rocfrac": [0, 5], "Rocburn": [0, 1, 5]},
    3: {"Rocflo": [2, 9, 10], "Rocfrac": [1, 4], "Rocburn": [2, 9, 10]},
}

# (wall_time, computation_time, visible_io_time), exact.
PINS = {
    "weak": (
        weak_workload, 18, "rocpanda", 2, WEAK_BLOCKS,
        (1.493647014491492, 0.13696921957470082, 0.06473659500848716),
    ),
    "motor": (
        motor_workload, 4, "rochdf", 0, MOTOR_BLOCKS,
        (0.8790696549856996, 0.6007469694769714, 0.29902214549909334),
    ),
}


@pytest.fixture
def setup_log(monkeypatch):
    """Record each rank's block ids per physics window at setup."""
    log = {}
    orig = physics_base.PhysicsModule.setup

    def setup(self, com, specs, rng):
        log.setdefault(com.ctx.rank, {})[self.window_name] = [
            s.block_id for s in specs
        ]
        return orig(self, com, specs, rng)

    monkeypatch.setattr(physics_base.PhysicsModule, "setup", setup)
    return log


@pytest.mark.parametrize("name", sorted(PINS))
def test_layout_and_times_bit_identical(name, setup_log):
    make_workload, nprocs, mode, nservers, blocks, times = PINS[name]
    result = run_genx(
        make_machine(), nprocs,
        GENxConfig(workload=make_workload(), io_mode=mode, nservers=nservers,
                   prefix=name),
    )
    assert setup_log == blocks
    assert (
        result.wall_time, result.computation_time, result.visible_io_time
    ) == times


@pytest.mark.parametrize("nclients", [8, 32])
def test_layout_built_once_per_job(nclients, monkeypatch):
    calls = {"blocks_for": 0, "partition_blocks": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    workload = weak_workload(steps=1)
    workload.blocks_for = counted("blocks_for", workload.blocks_for)
    monkeypatch.setattr(
        driver, "partition_blocks",
        counted("partition_blocks", driver.partition_blocks),
    )
    result = run_genx(
        make_machine(), nclients,
        GENxConfig(workload=workload, io_mode="rochdf", prefix=f"once{nclients}"),
    )
    assert len(result.clients) == nclients
    assert calls == {"blocks_for": 1, "partition_blocks": 3}
