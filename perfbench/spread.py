"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workload deepfm-n4-warm --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for every
end-to-end metric its median, the distance between the first and third
quartile as a share of the median, and that spread as a share of the
metric's bound in BENCHMARK.json. A benchmark is steady when every spread
other than that of setup_s stays within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_spread  # noqa: E402


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    args = parser.parse_args(argv)

    values = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds)
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.5g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    print(f"{'metric':24} {'median':>12} {'spread':>8} {'bound':>6} {'share':>6}")
    for metric in manifest["end_to_end"]:
        xs = values[metric["name"]]
        spread = relative_spread(xs) if len(xs) > 1 else 0.0
        print(
            f"{metric['name']:24} {statistics.median(xs):12.5g} {spread:8.4f} "
            f"{metric['bound']:6.3f} {spread / metric['bound']:6.2f}"
        )


if __name__ == "__main__":
    main()
