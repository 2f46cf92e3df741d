"""One repetition of one workload.

``run.py`` calls ``run_rep`` in a child forked for each repetition, so
``peak_rss_mb`` is that repetition's own peak.  Run as a script (as
``selftest.py`` does, to vary ``PYTHONHASHSEED``), it runs one
repetition in a fresh process and prints its report as one JSON object
on its last stdout line.  With ``--trace 1`` it installs the span
ledger before building anything and writes the spans as Chrome
trace-event JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import ledger as ledger_mod  # noqa: E402
import workloads as wl  # noqa: E402

#: Ledger layer -> published self-time metric.
_SELF_METRICS = {
    "des": "des.self_s",
    "vmpi": "vmpi.self_s",
    "fs": "fs.self_s",
    "tier": "tier.self_s",
    "rocpanda.client": "rocpanda.client_self_s",
    "rocpanda.server": "rocpanda.server_self_s",
    "rochdf": "rochdf.self_s",
    "trochdf": "trochdf.self_s",
    "roccom": "roccom.self_s",
    "physics": "physics.self_s",
    "rocface": "rocface.self_s",
    "rocman": "rocman.self_s",
    "obs": "obs.self_s",
    "shdf": "shdf.self_s",
    "setup": "setup.self_s",
}


def layer_metrics(ledger, counts: Counter, des_events: int) -> dict:
    """Host self times, inclusive times and wrapper-only counts."""
    incl = ledger.incl_s
    calls = ledger.calls
    out = {metric: ledger.self_s.get(layer, 0.0)
           for layer, metric in _SELF_METRICS.items()}
    out.update({
        "setup.blocks_for_calls": calls["blocks_for"],
        "setup.blocks_for_s": incl["blocks_for"],
        "setup.partition_calls": calls["partition_blocks"],
        "setup.partition_s": incl["partition_blocks"],
        "setup.physics_setup_s": incl["PhysicsModule.setup"],
        "des.ns_per_event": out["des.self_s"] * 1e9 / des_events if des_events else 0.0,
        "vmpi.collective_calls": counts["vmpi.collective_calls"],
        "vmpi.wait_virtual_s": ledger.virtual_s["vmpi"],
        "shdf.encode_calls": counts["shdf.encode_calls"],
        "shdf.encode_bytes": counts["shdf.encode_bytes"],
        "shdf.encode_s": sum(incl[f"codec.{f}"] for f in
                             ("encode_batch", "encode_dataset", "encode_file")),
        "shdf.decode_calls": counts["shdf.decode_calls"],
        "shdf.decode_bytes": counts["shdf.decode_bytes"],
        "shdf.decode_s": sum(incl[f"codec.{f}"] for f in
                             ("scan_file", "decode_batch", "decode_file")),
        "fs.coalesce_ratio": (counts["fs.coalesced_blocks"] / counts["fs.coalesced_fs_calls"]
                              if counts["fs.coalesced_fs_calls"] else 0.0),
        "roccom.calls": sum(calls[f"Roccom.{f}"] for f in
                            ("call_function", "call_sync", "load_module", "unload_module")),
        "rocman.snapshot_s": incl["Rocman.snapshot"],
        "rocman.restore_s": incl["Rocman.restore"],
    })
    return out


def run_rep(workload, seed: int, traced: bool, trace_out: str = "") -> dict:
    ledger = counts = None
    if traced:
        ledger = ledger_mod.Ledger()
        counts = Counter()
        ledger_mod.install(ledger, counts)
    clock = wl.SetupClock()
    on_spec = (lambda spec: ledger_mod.wrap_blocks_for(ledger, spec)) if traced else None
    outcomes, host_wall, setup = wl.run_jobs(workload, seed, clock, on_spec)
    host = wl.host_metrics(outcomes, host_wall, setup)
    report = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "host": host,
        "virtual": wl.virtual_metrics(outcomes),
        "counts": wl.count_metrics(outcomes),
    }
    if traced:
        # Snapshot the ledger before the checks touch the disks.
        layers = layer_metrics(ledger, counts, report["counts"].get("des.events", 0))
        layers["traced_host_wall_s"] = host_wall
        layers["unattributed_s"] = host_wall - ledger.total_self_s()
        report["layers"] = layers
        if trace_out:
            os.makedirs(os.path.dirname(os.path.abspath(trace_out)), exist_ok=True)
            ledger.write_chrome_trace(trace_out, {
                "workload": workload.name, "seed": seed,
                "host_wall_s": host_wall, "self_s": dict(ledger.self_s),
            })
    report["check"] = wl.check(workload, outcomes)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default="")
    ap.add_argument("--shrunk", action="store_true",
                    help="run the self-test's shrunk copy of the workload")
    args = ap.parse_args(argv)
    table = wl.SHRUNK if args.shrunk else wl.WORKLOADS
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    report = run_rep(table[args.workload], args.seed, bool(args.trace), args.trace_out)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip freeing the repetition's heap (hundreds of MiB of simulated
    # disk): the report is out and nothing else runs in this process.
    os._exit(code)
