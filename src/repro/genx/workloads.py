"""The paper's two experimental workloads (§7.1, §7.2).

* :func:`lab_scale_motor` — the Turing test: a lab-scale solid rocket
  motor (design/data after the Naval Air Warfare Center test case).
  The *same* pre-partitioned block set is distributed onto however many
  compute processors are used, so total computation and output are
  fixed (strong scaling); 200 timesteps, snapshot every 50 (five
  output phases including the initial one), about 64 MB per snapshot.

* :func:`scalability_cylinder` — the Frost test: an extendible
  cylinder of the rocket body; the amount of data is fixed *per
  processor* and total size scales with the job (weak scaling).

All sizes accept a ``scale`` so tests can shrink the workload while
benchmarks keep the paper-faithful defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..util.units import MB
from .meshblock import BlockSpec, cylinder_blocks

__all__ = ["WorkloadSpec", "lab_scale_motor", "scalability_cylinder"]

#: Approximate stored bytes per cell for each solver family (mesh +
#: fields, from the attribute sets in repro.genx.physics).
_FLUID_BYTES_PER_CELL = 107.0
_SOLID_BYTES_PER_CELL = 105.0


@dataclass
class WorkloadSpec:
    """A runnable experiment configuration."""

    name: str
    #: Maps number of clients -> {"fluid": [...], "solid": [...],
    #: "burn": [...]} block-spec lists.  The driver calls it once per
    #: job and shares the partitioned result across ranks.
    blocks_for: Callable[[int], Dict[str, List[BlockSpec]]]
    steps: int = 200
    snapshot_interval: int = 50
    dt: float = 1.0e-6
    fluid_kind: str = "rocflo"
    solid_kind: str = "rocfrac"
    burn_model: str = "apn"
    #: Multiplier on every module's per-cell compute cost.
    compute_scale: float = 1.0

    def nsnapshots(self) -> int:
        """Output phases per run (including the initial snapshot)."""
        return 1 + self.steps // self.snapshot_interval


def _burn_specs(fluid_specs: List[BlockSpec]) -> List[BlockSpec]:
    """One combustion patch per fluid block (interface subset)."""
    out = []
    for spec in fluid_specs:
        ne = max(4, spec.nelems // 20)
        out.append(
            BlockSpec(
                block_id=spec.block_id,
                kind="unstructured",
                nnodes=max(4, int(ne * 0.5)),
                nelems=ne,
                theta0=spec.theta0,
                z0=spec.z0,
            )
        )
    return out


def lab_scale_motor(
    scale: float = 1.0,
    snapshot_bytes: float = 64 * MB,
    nblocks_fluid: int = 320,
    nblocks_solid: int = 160,
    steps: int = 200,
    snapshot_interval: int = 50,
    seed: int = 2003,
) -> WorkloadSpec:
    """The lab-scale motor test (strong scaling, fixed block set)."""
    target = snapshot_bytes * scale
    fluid_cells = int(target * (2.0 / 3.0) / _FLUID_BYTES_PER_CELL)
    solid_cells = int(target * (1.0 / 3.0) / _SOLID_BYTES_PER_CELL)
    nbf = nblocks_fluid
    nbs = nblocks_solid
    fluid = cylinder_blocks(nbf, max(fluid_cells, nbf), seed=seed)
    solid = cylinder_blocks(
        nbs,
        max(solid_cells, nbs),
        kind_mix=("unstructured",),
        seed=seed + 1,
    )
    burn = _burn_specs(fluid)
    fixed = {"fluid": fluid, "solid": solid, "burn": burn}

    def blocks_for(nclients: int) -> Dict[str, List[BlockSpec]]:
        # Strong scaling: the block set is independent of nclients.
        return fixed

    return WorkloadSpec(
        name="lab_scale_motor",
        blocks_for=blocks_for,
        steps=steps,
        snapshot_interval=snapshot_interval,
        fluid_kind="rocflo",
        solid_kind="rocfrac",
    )


def scalability_cylinder(
    per_client_bytes: float = 4 * MB,
    blocks_per_client_fluid: int = 6,
    blocks_per_client_solid: int = 3,
    steps: int = 30,
    snapshot_interval: int = 10,
    nominal_step_seconds: Optional[float] = None,
    seed: int = 2003,
) -> WorkloadSpec:
    """The Frost "scalability" test (weak scaling, fixed data/processor).

    ``nominal_step_seconds`` pins each client's compute time per step
    (used by Fig 3(b), where computation time is the measurement).
    """

    fluid_cells_pc = int(per_client_bytes * (2.0 / 3.0) / _FLUID_BYTES_PER_CELL)
    solid_cells_pc = int(per_client_bytes * (1.0 / 3.0) / _SOLID_BYTES_PER_CELL)

    def blocks_for(nclients: int) -> Dict[str, List[BlockSpec]]:
        nbf = blocks_per_client_fluid * nclients
        nbs = blocks_per_client_solid * nclients
        fluid = cylinder_blocks(
            nbf, max(fluid_cells_pc * nclients, nbf), seed=seed
        )
        solid = cylinder_blocks(
            nbs,
            max(solid_cells_pc * nclients, nbs),
            kind_mix=("unstructured",),
            seed=seed + 1,
        )
        return {"fluid": fluid, "solid": solid, "burn": _burn_specs(fluid)}

    spec = WorkloadSpec(
        name="scalability_cylinder",
        blocks_for=blocks_for,
        steps=steps,
        snapshot_interval=snapshot_interval,
        fluid_kind="rocflo",
        solid_kind="rocfrac",
    )
    if nominal_step_seconds is not None:
        total_cells_pc = fluid_cells_pc + solid_cells_pc
        # Average cost-per-cell so one step costs the requested time.
        spec.compute_scale = nominal_step_seconds / (
            total_cells_pc * 8.6e-5 + 1e-12
        )
    return spec
