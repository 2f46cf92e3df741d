"""Per-layer host-time ledger for the traced benchmark run.

Spans are recorded from the benchmark's side: :func:`install` replaces
the public entry points of each simulator layer with thin wrappers
before any job is built, so nothing under ``src/`` changes.  A span
carries both clocks: the host clock (``time.perf_counter``) and the
virtual clock of the DES environment that is running.

* A plain call is one span.
* A generator call (every DES-blocking operation) is one span *per
  resume*, because its host cost is paid only while the DES has it
  resumed.  Its whole virtual duration (first resume to return) is
  added to the layer's virtual wait, counted only for calls not nested
  inside another call of the same layer.
* A layer's self time is the sum of its spans' durations minus the
  part covered by child spans.

Spans are kept in memory and written as Chrome trace-event JSON by
:meth:`Ledger.write_chrome_trace`, which Perfetto and chrome://tracing
open offline.  Only spans long enough to see are stored, up to a cap;
the rest are counted in the file's ``otherData`` and still count in
the ledger's totals.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter
_GeneratorType = types.GeneratorType

#: The Chrome trace keeps host spans of at least MIN_HOST_SPAN_S and
#: generator calls of at least MIN_VIRTUAL_CALL_S virtual time (so both
#: timelines cover the whole run, not its first moments), each up to a
#: cap.  The ledger totals include every span either way.
MIN_HOST_SPAN_S = 50e-6
MIN_VIRTUAL_CALL_S = 10e-3
MAX_HOST_SPANS = 150_000
MAX_VIRTUAL_CALLS = 100_000

_COLLECTIVES = frozenset({
    "barrier", "bcast", "gather", "scatter", "allgather", "reduce",
    "allreduce", "alltoall", "split", "dup",
})


class Ledger:
    """Span stack, per-layer totals and the bounded span store."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive host time per span name (outermost occurrences only).
        self.incl_s: Dict[str, float] = defaultdict(float)
        #: Virtual seconds per layer spent inside outermost generator calls.
        self.virtual_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Open frames: [layer, name, host_start, child_time, span_id, virtual_now].
        self._stack: List[list] = []
        self._envs: list = []
        #: Each DES environment is one job; its virtual clock starts at 0.
        self._jobs: Dict[int, int] = {}
        self._next_id = 1
        self.host_spans: list = []
        self.virtual_calls: list = []
        self.dropped_host_spans = 0
        self.dropped_virtual_calls = 0
        self._t0 = _perf()

    # -- clocks ---------------------------------------------------------------
    def _vnow(self) -> float:
        return self._envs[-1].now if self._envs else 0.0

    def _track(self) -> tuple:
        """(job index, DES process name) of the running code."""
        if not self._envs:
            return 0, "main"
        env = self._envs[-1]
        proc = env.active_process
        return (self._jobs[id(env)],
                proc.name if proc is not None and proc.name else "des")

    # -- frames ---------------------------------------------------------------
    def top_layer(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    def top_name(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    def open(self, layer: str, name: str) -> None:
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append([layer, name, _perf(), 0.0, sid, self._vnow()])

    def close(self) -> None:
        end = _perf()
        layer, name, start, child, sid, vstart = self._stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        stack = self._stack
        if stack:
            stack[-1][3] += dur
        if not any(frame[1] == name for frame in stack):
            self.incl_s[name] += dur
        if dur >= MIN_HOST_SPAN_S and len(self.host_spans) < MAX_HOST_SPANS:
            parent = stack[-1][4] if stack else 0
            self.host_spans.append(
                (name, sid, parent, start, end, vstart, self._vnow())
            )
        else:
            self.dropped_host_spans += 1

    def push_env(self, env) -> None:
        self._jobs.setdefault(id(env), len(self._jobs))
        self._envs.append(env)

    def pop_env(self) -> None:
        self._envs.pop()

    # -- wrappers -------------------------------------------------------------
    def trace_gen(self, gen, layer: str, name: str):
        """Generator: drive ``gen`` one resume per span, forwarding sends,
        throws and close exactly as ``yield from`` would."""
        nested = self.top_layer() == layer
        vstart = None
        track = None
        send_val = None
        exc = None
        try:
            while True:
                if vstart is None:
                    vstart = self._vnow()
                    track = self._track()
                self.open(layer, name)
                try:
                    if exc is None:
                        yielded = gen.send(send_val)
                    else:
                        pending, exc = exc, None
                        yielded = gen.throw(pending)
                except StopIteration as stop:
                    self.close()
                    return stop.value
                except BaseException:
                    self.close()
                    raise
                self.close()
                try:
                    send_val = yield yielded
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # forwarded into gen, as yield from does
                    exc = err
                    send_val = None
        finally:
            if vstart is not None:
                vend = self._vnow()
                if not nested:
                    self.virtual_s[layer] += vend - vstart
                if (vend - vstart >= MIN_VIRTUAL_CALL_S
                        and len(self.virtual_calls) < MAX_VIRTUAL_CALLS):
                    self.virtual_calls.append((name, track, vstart, vend))
                else:
                    self.dropped_virtual_calls += 1

    def wrap(self, fn: Callable, layer: str, name: str,
             on_call: Optional[Callable] = None) -> Callable:
        """Span-timing wrapper for ``fn``; generator results are traced
        per resume.  ``on_call(*args, **kwargs)`` runs before the call
        (used for counts that need the arguments)."""
        ledger = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                ledger.calls[name] += 1
                if on_call is not None:
                    on_call(*args, **kwargs)
                return ledger.trace_gen(fn(*args, **kwargs), layer, name)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            return ledger.call(fn, layer, name, args, kwargs)
        return wrapper

    def call(self, fn: Callable, layer: str, name: str, args, kwargs):
        """Call ``fn`` inside one span; a generator result is traced."""
        self.calls[name] += 1
        self.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close()
        if type(result) is _GeneratorType:
            return self.trace_gen(result, layer, name)
        return result

    # -- export ---------------------------------------------------------------
    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def write_chrome_trace(self, path: str, meta: dict) -> None:
        """Write every kept span as Chrome trace-event JSON.

        pid 1 is the host clock (one track: the simulator is one thread);
        pid 2 + k is job k's virtual clock, one track per DES process,
        holding each generator call from first resume to return.
        """
        t0 = self._t0
        events = [
            {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "host clock"}},
        ]
        events.extend(
            {"ph": "M", "pid": 2 + job, "name": "process_name",
             "args": {"name": f"virtual clock, job {job}"}}
            for job in range(len(self._jobs))
        )
        for name, sid, parent, start, end, vstart, vend in self.host_spans:
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": name,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent,
                         "v_start": vstart, "v_end": vend},
            })
        tids: Dict[tuple, int] = {}
        for name, (job, proc), vstart, vend in self.virtual_calls:
            tid = tids.get((job, proc))
            if tid is None:
                tid = tids[(job, proc)] = len(tids) + 1
                events.append({"ph": "M", "pid": 2 + job, "tid": tid,
                               "name": "thread_name", "args": {"name": proc}})
            events.append({
                "ph": "X", "pid": 2 + job, "tid": tid, "name": name,
                "ts": vstart * 1e6, "dur": (vend - vstart) * 1e6,
            })
        other = dict(meta)
        other["dropped_host_spans"] = self.dropped_host_spans
        other["dropped_virtual_calls"] = self.dropped_virtual_calls
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": other}, fh)


def _replace_everywhere(orig, replacement) -> None:
    """Rebind a module-level function in every loaded ``repro`` module
    that imported it by name."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, replacement)


def _patch_methods(ledger: Ledger, cls, layer: str, names, prefix: str,
                   hooks: Optional[Dict[str, Callable]] = None) -> None:
    hooks = hooks or {}
    for attr in names:
        fn = cls.__dict__[attr]
        setattr(cls, attr, ledger.wrap(fn, layer, f"{prefix}.{attr}", hooks.get(attr)))


def install(ledger: Ledger, counts: Counter) -> None:
    """Wrap every layer's public entry points (plus the process bodies
    that would otherwise run unclaimed under the DES loop).

    ``counts`` receives the counts only a wrapper can see: coalescer
    blocks in and filesystem calls out, codec bytes, collective calls.
    Must run before any simulator object is built.
    """
    from repro.des.core import Environment
    from repro.fs import coalesce, models, tiers, vfs
    from repro.genx import driver, rocface, rocman
    from repro.genx.physics import base as physics_base
    from repro.io import rochdf, trochdf
    from repro.io.rocpanda import client, server, topology
    from repro.obs import records
    from repro.roccom import registry
    from repro.shdf import codec, file as shdf_file
    from repro.vmpi import comm

    # des: the run loop; the environment supplies the virtual clock.
    env_run = Environment.run

    def run(self, *args, **kwargs):
        ledger.calls["Environment.run"] += 1
        ledger.push_env(self)
        ledger.open("des", "Environment.run")
        try:
            return env_run(self, *args, **kwargs)
        finally:
            ledger.close()
            ledger.pop_env()

    Environment.run = run

    # vmpi: point-to-point, probe, stream and collective methods.
    def outermost_collective(*_args, **_kwargs):
        if ledger.top_layer() != "vmpi":
            counts["vmpi.collective_calls"] += 1

    p2p = ["send", "recv", "isend", "irecv", "probe", "iprobe",
           "send_with_timeout", "recv_with_timeout", "stream"]
    _patch_methods(ledger, comm.Comm, "vmpi", p2p + sorted(_COLLECTIVES), "Comm",
                   dict.fromkeys(_COLLECTIVES, outermost_collective))
    _patch_methods(ledger, comm.SendStream, "vmpi", ["send"], "SendStream")
    _patch_methods(ledger, comm.Request, "vmpi", ["wait", "test"], "Request")

    # shdf: codec functions (rebound wherever imported) and file objects.
    def encoded(fn, name):
        wrapped = ledger.wrap(fn, "shdf", name)

        def counted(*args, **kwargs):
            outer = not ledger.top_name().startswith("codec.")
            out = wrapped(*args, **kwargs)
            if outer:
                data = out[0] if isinstance(out, tuple) else out
                counts["shdf.encode_calls"] += 1
                counts["shdf.encode_bytes"] += len(data)
            return out
        return functools.wraps(fn)(counted)

    def decoded(fn, name):
        def hook(buf, *_args, **_kwargs):
            if ledger.top_name().startswith("codec."):
                return
            counts["shdf.decode_calls"] += 1
            counts["shdf.decode_bytes"] += len(buf)
        return ledger.wrap(fn, "shdf", name, hook)

    for fname in ("encode_batch", "encode_dataset", "encode_file"):
        orig = getattr(codec, fname)
        _replace_everywhere(orig, encoded(orig, f"codec.{fname}"))
    for fname in ("scan_file", "decode_file"):
        orig = getattr(codec, fname)
        _replace_everywhere(orig, decoded(orig, f"codec.{fname}"))
    orig = codec.decode_batch

    def batch_hook(records, *_args, **_kwargs):
        if not ledger.top_name().startswith("codec."):
            counts["shdf.decode_calls"] += 1
    _replace_everywhere(orig, ledger.wrap(orig, "shdf", "codec.decode_batch", batch_hook))
    _patch_methods(ledger, shdf_file.SHDFWriter, "shdf",
                   ["open", "write_dataset", "write_encoded", "write_records", "close"],
                   "SHDFWriter")
    _patch_methods(ledger, shdf_file.SHDFReader, "shdf",
                   ["open", "open_scan", "read_dataset", "read_all", "read_extents",
                    "read_batch", "close"], "SHDFReader")

    # fs: virtual files and disks, the timing models and the coalescers.
    _patch_methods(ledger, vfs.VirtualFile, "fs",
                   ["append", "append_many", "write_at", "read", "read_checked",
                    "truncate"], "VirtualFile")
    _patch_methods(ledger, vfs.VirtualDisk, "fs", ["create", "open", "unlink"],
                   "VirtualDisk")
    _patch_methods(ledger, models.FileSystemModel, "fs",
                   ["meta_op", "meta_ops_bulk", "write", "read"], "FileSystemModel")

    def block_in(*_args, **_kwargs):
        counts["fs.coalesced_blocks"] += 1

    def write_flush(self):
        if self.pending:
            counts["fs.coalesced_fs_calls"] += 1

    def read_run(self):
        if self.pending:
            counts["fs.coalesced_fs_calls"] += len(self.plan())

    _patch_methods(ledger, coalesce.WriteCoalescer, "fs", ["add", "flush"],
                   "WriteCoalescer", {"add": block_in, "flush": write_flush})
    _patch_methods(ledger, coalesce.ReadCoalescer, "fs", ["add", "run"],
                   "ReadCoalescer", {"add": block_in, "run": read_run})

    # fs.tiers: front-tier file interception, namespace, timing and drain.
    _patch_methods(ledger, tiers._TierFile, "tier",
                   ["append", "append_many", "write_at", "truncate"], "TierFile")
    _patch_methods(ledger, tiers.TierDisk, "tier", ["create", "open", "unlink"],
                   "TierDisk")
    _patch_methods(ledger, tiers.BurstBufferTier, "tier",
                   ["_service_meta", "_service_write", "_service_read",
                    "_drain_loop", "drain_barrier"], "BurstBufferTier")

    # io: the Rocpanda client and server, Rochdf and T-Rochdf.  The
    # write/read/sync interface functions are timed where Roccom
    # resolves them (below); wrapping them on the class would hide
    # their signature from Rocman's snapshot_id check.
    _patch_methods(ledger, client.RocpandaModule, "rocpanda.client",
                   ["load", "unload", "finalize"], "RocpandaModule")
    _replace_everywhere(
        topology.rocpanda_init,
        ledger.wrap(topology.rocpanda_init, "rocpanda.client", "rocpanda_init"),
    )
    _patch_methods(ledger, server.PandaServer, "rocpanda.server", ["run"], "PandaServer")
    _patch_methods(ledger, rochdf.RochdfModule, "rochdf", ["load", "unload"],
                   "RochdfModule")
    _patch_methods(ledger, trochdf.TRochdfModule, "trochdf",
                   ["load", "unload", "_io_thread_main"], "TRochdfModule")

    # roccom: function dispatch and module lifecycle.  Roccom resolves
    # every dispatched function through _resolve; a function owned by an
    # I/O service module comes back wrapped, so its span carries that
    # module's layer.
    io_layers = (
        (trochdf.TRochdfModule, "trochdf"),
        (rochdf.RochdfModule, "rochdf"),
        (client.RocpandaModule, "rocpanda.client"),
    )
    resolve = registry.Roccom._resolve

    def resolve_traced(com, qualified):
        fn = resolve(com, qualified)
        owner = getattr(fn, "__self__", None)
        layer = next((lay for cls, lay in io_layers if isinstance(owner, cls)), None)
        if layer is None:
            return fn
        func = qualified.partition(".")[2]
        return ledger.wrap(fn, layer, f"{type(owner).__name__}.{func}")

    registry.Roccom._resolve = resolve_traced
    _patch_methods(ledger, registry.Roccom, "roccom",
                   ["call_function", "call_sync", "load_module", "unload_module"],
                   "Roccom")

    # genx: physics steps, Rocface, Rocman and the per-rank setup path.
    _patch_methods(ledger, physics_base.PhysicsModule, "physics", ["advance"],
                   "PhysicsModule")
    _patch_methods(ledger, physics_base.PhysicsModule, "setup", ["setup"],
                   "PhysicsModule")
    _patch_methods(ledger, rocface.Rocface, "rocface", ["transfer"], "Rocface")
    _patch_methods(ledger, rocman.Rocman, "rocman", ["run", "snapshot", "restore"],
                   "Rocman")
    driver.partition_blocks = ledger.wrap(driver.partition_blocks, "setup",
                                          "partition_blocks")

    # obs: the recorder's hooks.
    _patch_methods(ledger, records.Recorder, "obs",
                   ["record_io", "record_counter", "count_send", "count_recv",
                    "log_event"], "Recorder")


def wrap_blocks_for(ledger: Ledger, spec) -> None:
    """Time ``WorkloadSpec.blocks_for``: an instance attribute, so each
    built workload is wrapped on its own."""
    spec.blocks_for = ledger.wrap(spec.blocks_for, "setup", "blocks_for")
