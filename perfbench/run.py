"""eatxt benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch-large --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json; perfbench/README.md
explains them. The run
  1. writes the seeded inputs with corpus.py in a separate process,
  2. with --trace 0, starts the measured worker nine times to sample
     set-up time (process start to the end of the warm-up ops), the fifth
     start also running the timed ops; with --trace 1, starts one worker
     that runs the traced passes and the traced-only extras,
  3. prints information lines, then the result as the last line.
It exits non-zero, printing no result, when the checkout has no eatxt
sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("batch-large", "complete-large", "cli-small")
# Set-up-only starts before and after the timed one, so that the median
# set-up time spans the whole run rather than one moment of it.
SETUP_STARTS_EACH_SIDE = 4
# A worker must finish within its run length plus this margin.
WORKER_MARGIN_S = 140


class BenchError(Exception):
    pass


def _worker(mode: str, root: Path, workdir: Path, seconds: float) -> tuple[dict, float]:
    """Run worker.py; returns its result and the seconds from its start to
    the end of its warm-up."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--root", str(root),
             "--workdir", str(workdir), "--seconds", str(seconds)],
            capture_output=True, text=True, timeout=seconds + WORKER_MARGIN_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result, result["setup_end"] - start


def _declared(root: Path, trace: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args: argparse.Namespace, root: Path) -> dict:
    if not (root / "src" / "eatxt" / "cli.py").is_file():
        raise BenchError(f"no eatxt sources under {root / 'src'}; run from the root of a checkout")
    declared = _declared(root, args.trace)
    workdir = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        gen = subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(workdir)],
            capture_output=True, text=True, timeout=300,
        )
        if gen.returncode != 0:
            raise BenchError(f"input generation failed:\n{gen.stderr[-2000:]}")
        manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))

        attempted = failed = 0
        failures: list[str] = []
        setups = []
        if args.trace:
            result, _ = _worker("traced", root, workdir, args.seconds)
            workers = [result]
        else:
            workers = []
            for mode in ["setup"] * SETUP_STARTS_EACH_SIDE + ["timed"] + ["setup"] * SETUP_STARTS_EACH_SIDE:
                started, setup = _worker(mode, root, workdir, args.seconds if mode == "timed" else 0)
                workers.append(started)
                setups.append(setup)
                if mode == "timed":
                    result = started
            result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        for w in workers:
            attempted += w["attempted"]
            failed += w["failed"]
            failures += w["failures"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = workdir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    metrics = result["metrics"]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    wrong = sorted(n for n, unit in declared.items() if metrics[n][1] != unit)
    if wrong:
        raise BenchError(f"metrics measured in other units than BENCHMARK.json declares: {wrong}")
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {manifest['inputs_sha256']} "
          f"({manifest['input_files']} files)")
    print("info " + json.dumps(result.get("info", {}), sort_keys=True))
    if setups:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    for problem in failures:
        print(f"failed: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in declared.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="run one eatxt benchmark workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args, Path.cwd().resolve())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
