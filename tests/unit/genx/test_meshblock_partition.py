"""Unit tests for mesh blocks and the partitioner."""

import numpy as np
import pytest

from repro.genx import (
    BlockSpec,
    assignment_stats,
    build_block,
    cylinder_blocks,
    migrate,
    partition_blocks,
)


class TestBlockSpec:
    def test_valid(self):
        s = BlockSpec(0, "structured", nnodes=100, nelems=90)
        assert s.ncells == 90

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            BlockSpec(0, "hexagonal", 10, 10)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            BlockSpec(0, "structured", 0, 10)


class TestBuildBlock:
    @pytest.mark.parametrize("kind", ["structured", "unstructured"])
    def test_sizes_match_spec(self, kind):
        spec = BlockSpec(3, kind, nnodes=120, nelems=80)
        block = build_block(spec, np.random.default_rng(0))
        assert block.nnodes == 120
        assert block.nelems == 80
        assert block.coords.shape == (120, 3)

    def test_connectivity_indices_in_range(self):
        spec = BlockSpec(0, "unstructured", nnodes=50, nelems=40)
        block = build_block(spec, np.random.default_rng(1))
        assert block.conn.min() >= 0
        assert block.conn.max() < 50

    def test_deterministic_given_rng(self):
        spec = BlockSpec(0, "unstructured", nnodes=30, nelems=20)
        b1 = build_block(spec, np.random.default_rng(5))
        b2 = build_block(spec, np.random.default_rng(5))
        np.testing.assert_array_equal(b1.coords, b2.coords)


class TestCylinderBlocks:
    def test_counts_and_ids(self):
        specs = cylinder_blocks(nblocks=20, total_cells=10_000)
        assert len(specs) == 20
        assert [s.block_id for s in specs] == list(range(20))

    def test_total_cells_approximately_preserved(self):
        specs = cylinder_blocks(nblocks=16, total_cells=50_000)
        total = sum(s.ncells for s in specs)
        assert abs(total - 50_000) / 50_000 < 0.05

    def test_sizes_are_irregular(self):
        specs = cylinder_blocks(nblocks=32, total_cells=100_000, irregularity=0.5)
        sizes = {s.ncells for s in specs}
        assert len(sizes) > 10  # genuinely different sizes

    def test_kind_mix(self):
        specs = cylinder_blocks(8, 1000, kind_mix=("unstructured",))
        assert all(s.kind == "unstructured" for s in specs)

    def test_id_base_offsets(self):
        specs = cylinder_blocks(4, 100, id_base=100)
        assert [s.block_id for s in specs] == [100, 101, 102, 103]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            cylinder_blocks(0, 100)
        with pytest.raises(ValueError):
            cylinder_blocks(10, 5)


class TestPartition:
    def test_every_block_assigned_once(self):
        specs = cylinder_blocks(33, 10_000)
        assignment = partition_blocks(specs, 4)
        seen = [s.block_id for bucket in assignment for s in bucket]
        assert sorted(seen) == list(range(33))

    def test_balance_quality(self):
        specs = cylinder_blocks(64, 100_000, irregularity=0.6)
        assignment = partition_blocks(specs, 8)
        stats = assignment_stats(assignment)
        assert stats["imbalance"] < 1.15

    def test_single_proc(self):
        specs = cylinder_blocks(5, 100)
        assignment = partition_blocks(specs, 1)
        assert len(assignment) == 1
        assert len(assignment[0]) == 5

    def test_deterministic(self):
        specs = cylinder_blocks(20, 5000)
        a1 = partition_blocks(specs, 3)
        a2 = partition_blocks(specs, 3)
        assert [[s.block_id for s in b] for b in a1] == [
            [s.block_id for s in b] for b in a2
        ]

    def test_more_procs_than_blocks_rejected(self):
        specs = cylinder_blocks(3, 100)
        with pytest.raises(ValueError):
            partition_blocks(specs, 4)

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            partition_blocks(cylinder_blocks(3, 100), 0)

    def test_buckets_sorted_by_block_id(self):
        specs = cylinder_blocks(12, 3000)
        for bucket in partition_blocks(specs, 3):
            ids = [s.block_id for s in bucket]
            assert ids == sorted(ids)

    def test_in_place_change_is_repartitioned(self):
        # A list edited in place must be partitioned by its new contents:
        # stale buckets put the 100000-cell block 0 next to block 5.
        specs = cylinder_blocks(8, 800, seed=1)
        partition_blocks(specs, 4)
        old = specs[0]
        specs[0] = BlockSpec(0, old.kind, nnodes=old.nnodes, nelems=100000,
                             theta0=old.theta0, z0=old.z0)
        assignment = partition_blocks(specs, 4)
        assert [s.block_id for s in assignment[0]] == [0]
        assert assignment_stats(assignment)["max_load"] == 100000


class TestMigrate:
    def test_moves_block(self):
        specs = cylinder_blocks(6, 600)
        assignment = partition_blocks(specs, 2)
        block_id = assignment[0][0].block_id
        src, dst = migrate(assignment, block_id, 1)
        assert src == 0 and dst == 1
        assert block_id in [s.block_id for s in assignment[1]]
        assert block_id not in [s.block_id for s in assignment[0]]

    def test_move_to_same_proc_is_noop(self):
        specs = cylinder_blocks(4, 400)
        assignment = partition_blocks(specs, 2)
        block_id = assignment[1][0].block_id
        before = [s.block_id for s in assignment[1]]
        migrate(assignment, block_id, 1)
        assert [s.block_id for s in assignment[1]] == before

    def test_unknown_block(self):
        assignment = partition_blocks(cylinder_blocks(4, 400), 2)
        with pytest.raises(KeyError):
            migrate(assignment, 999, 0)

    def test_bad_target(self):
        assignment = partition_blocks(cylinder_blocks(4, 400), 2)
        with pytest.raises(ValueError):
            migrate(assignment, 0, 7)
