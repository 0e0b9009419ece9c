"""Repository benchmark: closed-loop training workloads on the mp backend.

Run from the repository root::

    python3 perfbench/run.py --workload finetune-tp2-q2 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result (environment,
per-step losses, and in a traced run every span) is written under
``.perfbench/results/``.  A run whose outputs fail a check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _units(spec: dict, trace: bool) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def _run_one(args, spec: dict) -> int:
    from perfbench import bench
    from perfbench.checks import CheckFailed
    from perfbench.workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    try:
        doc = bench.run(w, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    except (CheckFailed, bench.RunFailed) as exc:
        print(f"{w.name} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    units = _units(spec, bool(args.trace))
    missing = sorted(set(units) - set(doc["metrics"]))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(
        results, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for err in doc["errors"]:
        print(f"step failed: {err}", file=sys.stderr)
    print(f"# {w.name} seed={args.seed} steps={len(doc['losses'])}"
          f"/{doc['steps_planned']} wall={doc['run_wall_s']:.1f}s -> {path}")
    print("# environment " + json.dumps(doc["environment"]["thread_env"])
          + f" nproc={doc['environment']['nproc']}")
    for name, unit in units.items():
        print(f"{name:36s} {doc['metrics'][name]:>16.6g} {unit}")
    print(bench.result_line(doc, units))
    return 0


def _run_all(args, spec: dict) -> int:
    """Each workload in a fresh process, then one table of all of them."""
    names = [w["name"] for w in spec["workloads"]]
    results, status = {}, 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    units = _units(spec, bool(args.trace))
    print(f"{'metric':36s} {'unit':>6s} " + " ".join(f"{n:>20s}" for n in names))
    for metric, unit in units.items():
        cells = [f"{results[n]['metrics'][metric]['value']:>20.6g}"
                 if n in results else f"{'-':>20s}" for n in names]
        print(f"{metric:36s} {unit:>6s} " + " ".join(cells))
    print(json.dumps({n: {k: r[k] for k in ("correct", "attempted", "failed")}
                      for n, r in results.items()}))
    return status


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The mp backend joins its workers on close; any a failed path left
    behind is killed here.  Its shared-memory segments also start
    multiprocessing's resource tracker, which nobody waits for: left
    alone it outlives this process as an orphan.  Closing its pipe ends
    it, and ``_stop`` waits for it (guarded: a private helper).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args, spec)
    try:
        return _run_one(args, spec)
    finally:
        _stop_children()


if __name__ == "__main__":
    # The program under test is imported from this checkout's source tree.
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    sys.exit(main())
