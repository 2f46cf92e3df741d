"""The benchmark's workloads: job lists, one timed repetition, checks.

A workload is a list of GENx jobs driven through
``repro.genx.driver.run_genx`` one after another in one process.  A
restart job reuses the durable disk of the write job it restarts from.
The benchmark seed drives every input: the mesh's block sizes and the
machine's external-load draw; see ``README.md`` for why each workload
exists.
"""

from __future__ import annotations

import functools
import re
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.presets import turing
from repro.fs.tiers import TierConfig
from repro.genx.driver import GENxConfig, run_genx
from repro.genx.rocman import Rocman
from repro.genx.workloads import lab_scale_motor, scalability_cylinder
from repro.obs.aggregate import overlap_ratio
from repro.shdf.codec import CodecError, decode_file, scan_file
from repro.shdf.format import JOURNAL_ATTR
from repro.util.units import MB

_perf = time.perf_counter

#: Rocpanda runs at the paper's 8:1 client:server ratio.
RATIO = 8


@dataclass(frozen=True)
class Job:
    name: str
    io_mode: str
    nclients: int
    nservers: int = 0
    #: Offset added to the benchmark seed for this job's machine (the
    #: Table 1 harness seeds restarts apart from their write runs).
    seed_offset: int = 0
    #: Name of the write job whose durable disk a restart reads.
    restart_of: Optional[str] = None
    #: A restart job that also writes its step-0 snapshot, so the
    #: restored state can be compared with the checkpoint on disk.
    snapshot_after_restart: bool = False
    storage_tier: str = "direct"
    tier_capacity: Optional[int] = None

    @property
    def nranks(self) -> int:
        return self.nclients + self.nservers

    @property
    def is_restart(self) -> bool:
        return self.restart_of is not None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    #: Arguments of the repro workload builder (seed added at build time).
    params: dict
    jobs: tuple

    def build(self, seed: int):
        params = dict(self.params, seed=seed)
        if self.kind == "lab_scale_motor":
            return lab_scale_motor(**params)
        return scalability_cylinder(**params)

    def phases(self) -> int:
        steps = self.params["steps"]
        return 1 + steps // self.params["snapshot_interval"]


def _table1(nclients: int, **params) -> Workload:
    ns = max(1, nclients // RATIO)
    jobs = (
        Job("rochdf", "rochdf", nclients),
        Job("restart_rochdf", "rochdf", nclients, seed_offset=1000,
            restart_of="rochdf"),
        Job("trochdf", "trochdf", nclients),
        Job("rocpanda", "rocpanda", nclients, ns),
        Job("restart_rocpanda", "rocpanda", nclients, ns, seed_offset=2000,
            restart_of="rocpanda"),
    )
    return Workload(f"table1_{nclients}p", "lab_scale_motor", params, jobs)


def _burst(nclients: int, restart_servers: int, capacity: int, **params) -> Workload:
    jobs = (
        Job("rocpanda", "rocpanda", nclients, nclients // RATIO,
            storage_tier="burst", tier_capacity=capacity),
        Job("restart_rocpanda", "rocpanda", nclients, restart_servers,
            seed_offset=2000, restart_of="rocpanda", snapshot_after_restart=True),
    )
    return Workload(f"burst_restart_{nclients}", "lab_scale_motor", params, jobs)


def _curve(name: str, kind: str, nclients: int, **params) -> Workload:
    return Workload(name, kind, params,
                    (Job("rocpanda", "rocpanda", nclients, nclients // RATIO),))


_WEAK = dict(per_client_bytes=0.25 * MB, blocks_per_client_fluid=2,
             blocks_per_client_solid=1)

#: The four benchmark workloads, sized so one repetition takes about
#: two host seconds on a 2-core machine and a run holds about ten.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        _table1(64, scale=0.15, steps=4, snapshot_interval=2, nblocks_fluid=128,
                nblocks_solid=64),
        _curve("weak_128", "scalability_cylinder", 128, steps=2,
               snapshot_interval=1, **_WEAK),
        _curve("strong_128", "lab_scale_motor", 128, scale=0.05, steps=4,
               snapshot_interval=2, nblocks_fluid=512, nblocks_solid=512),
        _burst(128, restart_servers=8, capacity=16 * MB, scale=0.15, steps=4,
               snapshot_interval=2, nblocks_fluid=256, nblocks_solid=128),
    )
}

#: Shrunk copies for the self-test: same job structure, seconds to run.
SHRUNK: Dict[str, Workload] = {
    "table1_64p": _table1(8, scale=0.01, steps=4, snapshot_interval=2,
                          nblocks_fluid=16, nblocks_solid=8),
    "weak_128": _curve("weak_128", "scalability_cylinder", 16, steps=2,
                       snapshot_interval=1, **_WEAK),
    "strong_128": _curve("strong_128", "lab_scale_motor", 16, scale=0.005,
                         steps=4, snapshot_interval=2, nblocks_fluid=32,
                         nblocks_solid=32),
    "burst_restart_128": _burst(16, restart_servers=1, capacity=MB, scale=0.02,
                                steps=4, snapshot_interval=2, nblocks_fluid=32,
                                nblocks_solid=16),
}

_SNAPSHOT_PATH = re.compile(r"^(?P<prefix>.+)_(?P<step>\d{6})_")


def ops_per_rep(workload: Workload) -> int:
    """Operations one repetition attempts: each snapshot phase of a write
    job, and each restart."""
    return sum(1 if job.is_restart else workload.phases() for job in workload.jobs)


class SetupClock:
    """First entry of each rank into ``Rocman.restore``/``Rocman.run``.

    One timestamp per rank, taken when the rank's Rocman generator is
    created (it is resumed at once by ``yield from``); cheap enough for
    untraced runs.
    """

    def __init__(self):
        self.first: Dict[int, float] = {}
        for attr in ("run", "restore"):
            orig = getattr(Rocman, attr)
            setattr(Rocman, attr, self._stamped(orig))

    def _stamped(self, orig):
        first = self.first

        @functools.wraps(orig)
        def entry(rocman, *args, **kwargs):
            first.setdefault(id(rocman), _perf())
            return orig(rocman, *args, **kwargs)

        return entry


@dataclass
class JobOutcome:
    job: Job
    machine: Optional[Machine] = None
    result: object = None
    setup_s: float = 0.0
    error: Optional[str] = None


def _config(workload, job: Job, spec) -> GENxConfig:
    kwargs = dict(workload=spec, io_mode=job.io_mode, nservers=job.nservers,
                  prefix=job.name, storage_tier=job.storage_tier)
    if job.tier_capacity is not None:
        kwargs["tier_config"] = TierConfig(capacity_bytes=job.tier_capacity)
    if job.is_restart:
        kwargs.update(restart_step=workload.params["steps"],
                      restart_prefix=job.restart_of, steps=0,
                      initial_snapshot=job.snapshot_after_restart)
    return GENxConfig(**kwargs)


def _nnodes(nranks: int) -> int:
    # Turing's 208 nodes hold 416 ranks; the scalebench convention.
    return max(208, (nranks + 1) // 2)


def run_jobs(workload: Workload, seed: int, clock: SetupClock, on_spec=None):
    """Build and run every job; returns (outcomes, host_wall_s, setup_s).

    Host wall runs from building the first input (the workload spec) to
    the return of the last job.  A failed job is recorded and the jobs
    after it still run, except restarts of a job that failed.
    """
    t0 = _perf()
    spec = workload.build(seed)
    if on_spec is not None:
        on_spec(spec)
    outcomes: Dict[str, JobOutcome] = {}
    t_in = t0
    for job in workload.jobs:
        out = outcomes[job.name] = JobOutcome(job)
        source = outcomes.get(job.restart_of) if job.is_restart else None
        if job.is_restart and (source is None or source.error is not None):
            out.error = f"skipped: {job.restart_of} failed"
            t_in = _perf()
            continue
        clock.first.clear()
        try:
            out.machine = Machine(
                turing(nnodes=_nnodes(job.nranks)),
                seed=seed + job.seed_offset,
                disk=source.machine.disk if source is not None else None,
            )
            out.result = run_genx(out.machine, job.nranks,
                                  _config(workload, job, spec))
        except Exception:  # a failing job is a failed operation, not a crash
            out.error = traceback.format_exc()
            print(out.error, file=sys.stderr)
        t_out = _perf()
        out.setup_s = (max(clock.first.values()) - t_in) if clock.first else 0.0
        t_in = t_out
    host_wall = _perf() - t0
    return list(outcomes.values()), host_wall, sum(o.setup_s for o in outcomes.values())


# -- correctness ---------------------------------------------------------------
def _durable_disks(outcomes):
    seen = {}
    for out in outcomes:
        if out.machine is not None:
            seen.setdefault(id(out.machine.disk), out.machine.disk)
    return list(seen.values())


def check(workload: Workload, outcomes) -> dict:
    """Every correctness check; returns counts and the failed operations.

    * every job returned;
    * every file on a durable disk scans to its end and carries its
      commit (a journaled writer's footer), so none is torn;
    * no retries, failovers or drain retries in these fault-free runs;
    * a restart that writes its step-0 snapshot restored exactly the
      checkpoint: every dataset equal by name.
    """
    failed = set()
    by_name = {o.job.name: o for o in outcomes}
    steps = workload.params["steps"]
    interval = workload.params["snapshot_interval"]

    def fail_job(job: Job, why: str):
        print(f"check failed: {job.name}: {why}", file=sys.stderr)
        if job.is_restart:
            failed.add((job.name, "restart"))
        else:
            failed.update((job.name, s) for s in range(0, steps + 1, interval))

    for out in outcomes:
        if out.error is not None:
            fail_job(out.job, "job raised or was skipped")

    committed = torn = 0
    for disk in _durable_disks(outcomes):
        for path in disk.listdir():
            try:
                attrs, _entries = scan_file(disk.open(path).read())
                ok = bool(attrs.get(JOURNAL_ATTR))
            except CodecError:
                ok = False
            if ok:
                committed += 1
                continue
            torn += 1
            match = _SNAPSHOT_PATH.match(path)
            owner = by_name.get(match.group("prefix")) if match else None
            print(f"check failed: torn or uncommitted file {path}", file=sys.stderr)
            if owner is None:
                failed.add(("unknown", path))
            elif owner.job.is_restart:
                failed.add((owner.job.name, "restart"))
            else:
                failed.add((owner.job.name, int(match.group("step"))))

    for out in outcomes:
        if out.result is None:
            continue
        retries = sum(c.io_stats.retries for c in out.result.clients)
        retries += sum(s.stats.write_retries + s.stats.read_retries
                       for s in out.result.servers)
        failovers = sum(c.io_stats.failovers for c in out.result.clients)
        tier = getattr(out.machine.fs, "stats", None)
        drain = (tier.drain_retries + tier.drain_failures) if tier is not None else 0
        if retries or failovers or drain:
            fail_job(out.job, f"retries={retries} failovers={failovers} "
                              f"drain_retries={drain}")
        if out.job.snapshot_after_restart:
            mismatch = _restore_mismatches(out.machine.disk, out.job.restart_of,
                                           steps, out.job.name)
            if mismatch:
                fail_job(out.job, f"{mismatch} restored datasets differ")
    attempted = ops_per_rep(workload)
    return {"attempted": attempted, "failed": min(len(failed), attempted),
            "files_committed": committed, "torn_files": torn}


def _datasets(disk, prefix: str):
    """Datasets of every file under ``prefix`` by name, and the number
    of those files that do not decode."""
    out = {}
    undecodable = 0
    for path in disk.listdir(prefix):
        try:
            datasets = decode_file(disk.open(path).read())
        except CodecError:
            undecodable += 1
            continue
        for ds in datasets:
            out[ds.name] = ds.data
    return out, undecodable


def _restore_mismatches(disk, checkpoint_prefix: str, step: int, restarted: str) -> int:
    """Datasets of the checkpoint at ``step`` missing from, or unequal
    to, the restarted job's step-0 snapshot (compared by name), plus
    the files of either snapshot that do not decode."""
    checkpoint, bad_ckpt = _datasets(disk, f"{checkpoint_prefix}_{step:06d}_")
    restored, bad_restored = _datasets(disk, f"{restarted}_{0:06d}_")
    if not checkpoint:
        return 1 + bad_ckpt + bad_restored
    bad = bad_ckpt + bad_restored
    for name, data in checkpoint.items():
        other = restored.get(name)
        if other is None or not np.array_equal(data, other, equal_nan=True):
            bad += 1
    return bad + len(set(restored) - set(checkpoint))


# -- metrics ---------------------------------------------------------------------
def _snapshot_bytes(out: JobOutcome) -> int:
    if out.job.io_mode == "rocpanda":
        return sum(s.stats.bytes_written for s in out.result.servers)
    return sum(c.io_stats.bytes_written for c in out.result.clients)


def virtual_metrics(outcomes) -> dict:
    """Virtual-clock end-to-end metrics (repeat exactly for a seed)."""
    done = [o for o in outcomes if o.result is not None]
    metrics = {"virtual_wall_s": sum(o.result.wall_time for o in done),
               "computation_s": sum(o.result.computation_time for o in done
                                    if not o.job.is_restart)}
    for out in done:
        if out.job.is_restart:
            metrics[f"restart_{out.job.io_mode}_s"] = out.result.restart_time
        else:
            metrics[f"visible_io_{out.job.io_mode}_s"] = out.result.visible_io_time
    return metrics


def host_metrics(outcomes, host_wall: float, setup: float) -> dict:
    run = host_wall - setup
    written = sum(_snapshot_bytes(o) for o in outcomes if o.result is not None)
    return {
        "host_wall_s": host_wall,
        "setup_s": setup,
        "run_s": run,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "snapshot_mb_per_host_s": written / MB / run if run > 0 else 0.0,
    }


def count_metrics(outcomes) -> dict:
    """Deterministic per-layer counts read from the public result objects."""
    done = [o for o in outcomes if o.result is not None]
    c: Counter = Counter()
    peak = Counter()
    records = []
    for out in done:
        res, machine = out.result, out.machine
        env = machine.env
        c["des.events"] += env.events_processed
        peak["des.max_queue_depth"] = max(peak["des.max_queue_depth"],
                                          env.max_queue_depth)
        comm = res.recorder.comm
        c["vmpi.messages"] += comm.messages_sent
        c["vmpi.bytes"] += comm.bytes_sent
        c["vmpi.rendezvous_messages"] += comm.rendezvous_messages
        fs_models = [machine.fs]
        if hasattr(machine.fs, "backing"):
            fs_models.append(machine.fs.backing)
        for model in fs_models:
            m = model.metrics
            c["fs.write_calls"] += m.write_ops
            c["fs.write_bytes"] += m.bytes_written
            c["fs.read_calls"] += m.read_ops
            c["fs.read_bytes"] += m.bytes_read
            c["fs.meta_calls"] += m.meta_ops
        tier = getattr(machine.fs, "stats", None)
        if tier is not None:
            for key in ("absorbed_bytes", "drained_bytes", "drain_flushes",
                        "evictions", "evicted_bytes", "spills", "drain_retries"):
                c[f"tier.{key}"] += getattr(tier, key)
            peak["tier.backlog_peak_bytes"] = max(peak["tier.backlog_peak_bytes"],
                                                  tier.backlog_peak_bytes)
        for server in res.servers:
            st = server.stats
            for key in ("blocks_received", "bytes_received", "overflow_flushes",
                        "orphan_blocks_stashed", "restart_regions_read",
                        "restart_blocks_sent"):
                c[f"rocpanda.{key}"] += getattr(st, key)
            peak["rocpanda.peak_buffered_bytes"] = max(
                peak["rocpanda.peak_buffered_bytes"], st.peak_buffered_bytes)
            c["rocpanda.background_write_virtual_s"] += st.background_write_time
            c["io.files_created"] += st.files_created
            c["io.retries"] += st.write_retries + st.read_retries
        for client in res.clients:
            io = client.io_stats
            c["io.bytes_written"] += io.bytes_written
            c["io.bytes_read"] += io.bytes_read
            c["io.files_created"] += io.files_created
            c["io.sync_virtual_s"] += io.sync_time
            c["io.retries"] += io.retries
            c["io.failovers"] += io.failovers
            c["physics.steps"] += client.rocman.steps
            c["rocman.snapshots"] += client.rocman.snapshots
        c["obs.io_records"] += len(res.recorder.io_records)
        if not out.job.is_restart:
            records.extend(res.recorder.io_records)
    metrics = dict(c)
    metrics.update(peak)
    metrics["obs.overlap_ratio"] = overlap_ratio(records)
    return metrics
