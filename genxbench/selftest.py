"""Self-test of the benchmark on shrunk copies of its workloads.

    python3 genxbench/selftest.py

For each workload it runs the shrunk copy four times, each in a fresh
process: untraced and traced, each under two ``PYTHONHASHSEED`` values.
It asserts that every virtual-clock metric and every count read from
the result objects is identical across all four, that the count-type
ledger metrics are identical across the two traced runs, and that
every output check passes.  Exits 1 on the first difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import DEFAULT_SEED, HERE, ROOT, Spec

HASH_SEEDS = ("0", "1")
WORKER = os.path.join(HERE, "worker.py")


def _repeatable(spec: Spec, name: str) -> bool:
    """Ledger metrics that are counts, bytes, ratios or virtual times,
    not host times."""
    return spec.units[name] not in ("s", "ns") or name.endswith("_virtual_s")


def _run(workload: str, traced: bool, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, WORKER, "--workload", workload, "--shrunk",
           "--seed", str(DEFAULT_SEED), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"selftest: worker failed on {workload}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _diff(a: dict, b: dict) -> list:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def check_workload(spec: Spec, workload: str) -> list:
    runs = {(traced, h): _run(workload, traced, h)
            for traced in (False, True) for h in HASH_SEEDS}
    errors = []
    base_key = (False, HASH_SEEDS[0])
    base = runs[base_key]
    for key, rep in runs.items():
        if rep["check"]["failed"]:
            errors.append(f"{workload} {key}: {rep['check']['failed']} operations failed")
        if key == base_key:
            continue
        for section in ("virtual", "counts"):
            diff = _diff(base[section], rep[section])
            if diff:
                errors.append(f"{workload} {key} vs {base_key}: {section} differ: {diff}")
    traced = [runs[(True, h)]["layers"] for h in HASH_SEEDS]
    picked = [{k: v for k, v in layers.items() if _repeatable(spec, k)}
              for layers in traced]
    diff = _diff(*picked)
    if diff:
        errors.append(f"{workload}: ledger counts differ across hash seeds: {diff}")
    return errors


def main() -> int:
    spec = Spec.load()
    errors = []
    for workload in spec.workloads:
        found = check_workload(spec, workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        errors.extend(found)
    for err in errors:
        print(err, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
