"""The GENx I/O simulator benchmark: one command, four workloads.

    python3 genxbench/run.py --workload table1_64p --seed 2003 --seconds 30 --trace 0
    python3 genxbench/run.py --workload all        # every workload, one table each

Each repetition runs in a single-threaded child forked from this
process after the simulator is imported (``worker.run_rep``), so host
memory and heap state do not carry over and no repetition pays for
interpreter start-up and imports.
``--trace 0`` repeats the workload for ``--seconds`` (at least
``MIN_REPS`` times), cycling through ``DRAWS`` input draws of the seed,
and reports the end-to-end metrics as medians.  ``--trace 1`` runs the
seed's first draw untraced for ``--seconds``, then once with the span
ledger, and reports the per-layer metrics plus the tracing overhead.
Each repetition's host metrics are scaled to a nominal host speed,
measured by timing the reference kernel in ``reference.py`` between
repetitions.
Metric names and units come from ``BENCHMARK.json``.  The last stdout
line is one JSON object; the exit code is 1 when an output check fails
or a repetition crashes.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import selectors
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from reference import NOMINAL_S, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Spec:
    """Workload and metric names, units and bounds from ``BENCHMARK.json``."""

    workloads: tuple
    #: Gated end-to-end metrics: every workload produces them, never 0.
    gated: tuple
    bounds: dict
    per_layer: tuple
    units: dict
    run_seconds: int

    @classmethod
    def load(cls) -> "Spec":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        e2e, layers = bench["end_to_end"], bench["per_layer"]
        return cls(
            workloads=tuple(w["name"] for w in bench["workloads"]),
            gated=tuple(m["name"] for m in e2e),
            bounds={m["name"]: m["bound"] for m in e2e},
            per_layer=tuple(m["name"] for m in layers),
            units={m["name"]: m["unit"] for m in e2e + layers},
            run_seconds=bench["run_seconds"],
        )


#: End-to-end metrics of one I/O mode each: printed on the workloads
#: that run that mode, and reported in the traced run's ledger.
PER_MODE = ("visible_io_rochdf_s", "visible_io_trochdf_s", "restart_rochdf_s",
            "restart_rocpanda_s")

#: Host metrics scaled to the nominal host speed, with the power of the
#: repetition's speed factor they take: a time shrinks on a slow host,
#: a rate grows.
SPEED_SCALED = {"host_wall_s": 1, "setup_s": 1, "run_s": 1,
                "snapshot_mb_per_host_s": -1}
#: Reference-kernel timings on each side of a repetition that set its
#: speed factor.
SPEED_WINDOW = 2

#: Default workload seed (4051 is held out for confirming later claims;
#: see README.md).
DEFAULT_SEED = 2003
#: Input draws per seed: repetition i runs draw i % DRAWS, whose inputs
#: come from seed DRAWS * seed + draw.  Virtual metrics are medians
#: over the draws, so they do not hang on one machine-load draw.
DRAWS = 5
#: Every draw runs, and at least one repeats (its virtual metrics and
#: counts must then be identical).
MIN_REPS = DRAWS + 1

#: Each run must end within this many seconds, first repetition included.
RUN_BUDGET_S = 170.0


def input_seed(seed: int, draw: int) -> int:
    return DRAWS * seed + draw


def _program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "genx", "driver.py"))


class RepFailed(Exception):
    """A repetition's worker crashed or ran out of time."""


#: Linux prctl option: signal to deliver when the parent process exits.
PR_SET_PDEATHSIG = 1


def _child(workload: str, seed: int, traced: bool, trace_out: str, fd: int,
           parent: int) -> None:
    """Body of a forked repetition: run it, write its report to ``fd``
    and leave without running the parent's exit handlers."""
    code = 1
    try:
        # Die with the parent, so a killed run leaves no repetition behind.
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return
        import worker
        import workloads as wl

        report = worker.run_rep(wl.WORKLOADS[workload], seed, traced, trace_out)
        with os.fdopen(fd, "w") as fh:
            json.dump(report, fh)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stderr.flush()
        os._exit(code)


def _rep(workload: str, seed: int, traced: bool, deadline: float, out_dir: str) -> dict:
    """Run one repetition in a forked child; returns its report."""
    trace_out = (os.path.join(out_dir, f"trace_{workload}_seed{seed}.json")
                 if traced else "")
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(workload, seed, traced, trace_out, wfd, parent)
    os.close(wfd)
    chunks = []
    with selectors.DefaultSelector() as sel, os.fdopen(rfd, "rb") as pipe:
        sel.register(pipe, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(timeout=left):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise RepFailed("repetition ran out of time")
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RepFailed(f"repetition exited {code}")
    return json.loads(b"".join(chunks))


def high_percentile(values):
    """(label, value) of the highest percentile with >= 10 samples above
    it, or None when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return f"p{math.floor(100 * (n - 10) / n)}", sorted(values)[n - 11]


def spread(values) -> float:
    """Interquartile range over median, as the gate computes it."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def _fmt(value) -> str:
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()
                                  and abs(value) >= 1000):
        return f"{int(value)}"
    return f"{value:.6g}"


def _determinism_errors(reports) -> list:
    """Virtual metrics and result-object counts must repeat exactly for
    repetitions of the same inputs."""
    errors = []
    first = {}
    for rep in reports:
        base = first.setdefault(rep["seed"], rep)
        for section in ("virtual", "counts"):
            if rep[section] != base[section]:
                diff = sorted(k for k in set(base[section]) | set(rep[section])
                              if base[section].get(k) != rep[section].get(k))
                errors.append(f"seed {rep['seed']}: {section} differ across "
                              f"repetitions: {diff}")
    return errors


def _samples(spec: Spec, reports, speeds) -> dict:
    """name -> (clock, values).  Host metrics: one value per untraced
    repetition, scaled by its entry in ``speeds`` (see
    ``SPEED_SCALED``).  Virtual metrics: one value per input draw."""
    untraced = [r for r in reports if not r["traced"]]
    per_draw = {}
    for rep in untraced:
        per_draw.setdefault(rep["seed"], rep)
    samples = {}
    for name in spec.gated + PER_MODE:
        power = SPEED_SCALED.get(name, 0)
        host = [r["host"][name] * speed ** power
                for r, speed in zip(untraced, speeds) if name in r["host"]]
        virtual = [r["virtual"][name] for r in per_draw.values() if name in r["virtual"]]
        if host:
            samples[name] = ("host", host)
        elif virtual:
            samples[name] = ("virtual", virtual)
    return samples


def run_workload(spec: Spec, workload: str, args, ops_per_rep: int) -> dict:
    """Measure one workload; returns the result object (not yet printed).

    A repetition that crashes or runs out of time fails every operation
    it attempted and ends the workload's measurement.
    """
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    reports = []
    refs = []
    crashed = 0

    def rep(seed: int, traced: bool) -> bool:
        nonlocal crashed
        try:
            reports.append(_rep(workload, seed, traced, deadline, args.out))
            return True
        except RepFailed as exc:
            print(f"check failed: {workload}: {exc}", file=sys.stderr)
            crashed += ops_per_rep
            return False

    durations = []
    while True:
        draw = 0 if args.trace else len(durations) % DRAWS
        t = time.monotonic()
        refs.append(reference_s())
        if not rep(input_seed(args.seed, draw), False):
            break
        host = reports[-1]["host"]
        print(f"rep seed={input_seed(args.seed, draw)} reference_s={refs[-1]:.4f} "
              f"host_wall_s={host['host_wall_s']:.4f} setup_s={host['setup_s']:.4f}",
              file=sys.stderr)
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        nxt = statistics.median(durations)
        if args.trace:
            # Leave room for the traced repetition (about twice as long).
            if elapsed + 3 * nxt > args.seconds or elapsed + 4 * nxt > RUN_BUDGET_S:
                break
        elif len(durations) >= MIN_REPS and elapsed + nxt > args.seconds:
            break
        elif elapsed + 1.5 * nxt > RUN_BUDGET_S:
            break
    # Untraced repetition k ran between reference times k and k + 1.  Its
    # speed factor is NOMINAL_S over the mean of the SPEED_WINDOW times
    # on each side of it: the host's speed drifts over tens of seconds,
    # and one kernel time is noisier than one repetition.
    refs.append(reference_s())
    speeds = [NOMINAL_S / statistics.mean(refs[max(0, k + 1 - SPEED_WINDOW):
                                               k + 1 + SPEED_WINDOW])
              for k in range(len(refs) - 1)]
    if args.trace and not crashed:
        rep(input_seed(args.seed, 0), True)

    errors = _determinism_errors(reports)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    attempted = sum(r["check"]["attempted"] for r in reports) + crashed
    failed = sum(r["check"]["failed"] for r in reports) + crashed
    correct = failed == 0 and not errors

    samples = _samples(spec, reports, speeds)
    traced = next((r for r in reports if r["traced"]), None)
    if args.trace:
        metrics = _layer_metrics(spec, traced, reports, attempted, failed) if traced else {}
    else:
        metrics = {name: {"value": statistics.median(samples[name][1]),
                          "unit": spec.units[name]}
                   for name in spec.gated if name in samples}
    _print_table(spec, workload, args, samples, attempted, failed,
                 metrics if args.trace else None)
    print(f"host speed: reference kernel median {statistics.median(refs):.4f} s "
          f"over {len(refs)} timings; host metrics scaled by "
          f"{min(speeds):.4f}..{max(speeds):.4f} (median "
          f"{statistics.median(speeds):.4f})")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _layer_metrics(spec: Spec, traced: dict, reports, attempted: int,
                   failed: int) -> dict:
    values = dict.fromkeys(spec.per_layer, 0.0)
    values.update(traced["counts"])
    values.update(traced["layers"])
    for name in PER_MODE:
        values[name] = traced["virtual"].get(name, 0.0)
    values["shdf.files_committed"] = traced["check"]["files_committed"]
    values["shdf.torn_files"] = traced["check"]["torn_files"]
    values["ops_failed_frac"] = failed / attempted
    untraced = [r["host"]["host_wall_s"] for r in reports if not r["traced"]]
    values["tracing_overhead_s"] = (traced["host"]["host_wall_s"]
                                    - statistics.median(untraced))
    return {name: {"value": values[name], "unit": spec.units[name]}
            for name in spec.per_layer}


def _print_table(spec: Spec, workload, args, samples, attempted, failed,
                 layer_metrics) -> None:
    print(f"== {workload}  seed={args.seed}  trace={args.trace}")
    print(f"{'metric':<26}{'unit':<7}{'clock':<9}{'n':>3}  {'median':>12}  "
          f"{'spread':>7}  {'noise':<11}high percentile")
    for name, (clock, vals) in samples.items():
        hp = high_percentile(vals)
        hp_txt = f"{hp[0]}={_fmt(hp[1])}" if hp else "n/a (needs >= 11 samples)"
        s = spread(vals)
        # A host metric whose median is uncertain (spread over the root
        # of the sample count) by more than a third of its bound cannot
        # be resolved to that bound by this run.
        bound = spec.bounds.get(name)
        noise = ("-" if clock != "host" or bound is None
                 else "steady" if s / math.sqrt(len(vals)) <= bound / 3
                 else "unresolved")
        print(f"{name:<26}{spec.units[name]:<7}{clock:<9}{len(vals):>3}  "
              f"{_fmt(statistics.median(vals)):>12}  {s:>7.4f}  {noise:<11}{hp_txt}")
    print(f"{'ops_failed_frac':<26}{'ratio':<7}{'-':<9}{attempted:>3}  "
          f"{_fmt(failed / attempted if attempted else 0.0):>12}")
    if layer_metrics:
        print("-- per-layer ledger (traced run)")
        for name, entry in layer_metrics.items():
            print(f"{name:<38}{entry['unit']:<7}{_fmt(entry['value']):>16}")


def main(argv=None) -> int:
    spec = Spec.load()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    help=f"one of {', '.join(spec.workloads)}, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec.run_seconds))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for the traced run's Chrome trace JSON")
    args = ap.parse_args(argv)

    if not _program_present():
        print("genxbench: the simulator sources (src/repro) are not in this "
              "checkout; nothing to measure", file=sys.stderr)
        return 2
    names = spec.workloads if args.workload == "all" else (args.workload,)
    if any(name not in spec.workloads for name in names):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(spec.workloads)} or 'all'", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import worker  # noqa: F401  (imported once, before the repetitions fork)
    import workloads as wl

    results = {name: run_workload(spec, name, args, wl.ops_per_rep(wl.WORKLOADS[name]))
               for name in names}
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl_name}.{m}": v for wl_name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
