"""Run-to-run spread of the end-to-end metrics across seeds.

Runs ``run.py`` once per seed on each named workload (one fresh process
each, one after another) and prints, per metric, the interquartile range
as a share of the median next to the metric's bound from BENCHMARK.json::

    python3 perfbench/spread.py --workload pretrain-pp2-1f1b --seeds 5
    python3 perfbench/spread.py --workload all --seeds 10 --first-seed 100
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.analysis import median, relative_spread

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        print(f"== {name} ({len(values.get('setup_s', []))} runs)")
        for m in spec["end_to_end"]:
            xs = values.get(m["name"], [])
            if len(xs) < 2:
                continue
            spread = relative_spread(xs)
            flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
            print(f"  {m['name']:24s} median {median(xs):14.6g}  "
                  f"spread {spread:7.4f}  bound {m['bound']:5.3f}{flag}")
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
