#!/usr/bin/env python3
"""Build and run the IncShrink benchmark, or compare two of its result files.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0 [--out result.json]

The benchmark is built from source first (`cargo build --release --offline`)
into `$CARGO_TARGET_DIR`, or `.bench_build` when that is unset. The last line of
standard output is the run's JSON result; the exit code is non-zero when the
build fails, a check fails, or the program panics.

Compare two result files written with `--out` (end-to-end and per-layer
deltas, with the direction BENCHMARK.json gives each metric):

    python3 perfbench/run.py compare before.json after.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    manifest = BENCH_DIR / "Cargo.toml"
    status = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if status.returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    # Cargo resolves a relative target directory against its working directory.
    return ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"


def directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json when present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return {}
    data = json.loads(spec.read_text())
    return {m["name"]: m["better"] for m in data.get("end_to_end", []) + data.get("per_layer", [])}


def compare(before_path, after_path):
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    better = directions()
    for side, data in (("before", before), ("after", after)):
        print(f"{side}: {data.get('workload', '?')} seed {data.get('seed', '?')} "
              f"trace {data.get('trace', '?')} correct {data.get('correct')}")
    a, b = before["metrics"], after["metrics"]
    print(f"{'metric':<28} {'unit':<6} {'before':>16} {'after':>16} {'delta':>9}  verdict")
    for name in list(a) + [n for n in b if n not in a]:
        if name not in a or name not in b:
            print(f"{name:<28} only in {'before' if name in a else 'after'}")
            continue
        x, y = a[name]["value"], b[name]["value"]
        delta = (y - x) / abs(x) if x else (0.0 if y == x else float("inf"))
        direction = better.get(name)
        if y == x or direction is None:
            verdict = "same" if y == x else ""
        elif (y > x) == (direction == "higher"):
            verdict = "better"
        else:
            verdict = "worse"
        print(f"{name:<28} {a[name]['unit']:<6} {x:>16.6g} {y:>16.6g} {delta:>+9.2%}  {verdict}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare BEFORE.json AFTER.json")
        compare(sys.argv[2], sys.argv[3])
        return
    binary = build()
    # The benchmark's own output goes straight to stdout; its exit code is ours.
    sys.exit(subprocess.run([str(binary), *sys.argv[1:]]).returncode)


if __name__ == "__main__":
    main()
