"""Failure accounting, and the benchmark refusing to run without the program."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import bench
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_injected_worker_kill_counts_as_a_failed_step(tmp_path, monkeypatch):
    # Rank 1 dies at the start of step 2: steps 0 and 1 complete, step 2
    # is attempted and fails, and the run carries on to its checks.
    monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(
        {"faults": [{"kind": "kill", "rank": 1, "step": 2}]}))
    doc = bench.run(WORKLOADS["finetune-dp2-t2"], seed=0, seconds=0,
                    trace=False, out_dir=str(tmp_path), steps=5)
    assert (doc["attempted"], doc["failed"]) == (3, 1)
    assert doc["metrics"]["step_success_rate"] == pytest.approx(2 / 3)
    assert len(doc["losses"]) == 2
    assert doc["errors"] and "rank 1" in doc["errors"][0]
    assert doc["environment"]["repro_env"]["REPRO_FAULT_PLAN"]


def test_healthy_short_run_has_no_failures(tmp_path):
    doc = bench.run(WORKLOADS["finetune-dp2-t2"], seed=3, seconds=0,
                    trace=False, out_dir=str(tmp_path), steps=3)
    assert (doc["attempted"], doc["failed"]) == (3, 0)
    assert doc["metrics"]["step_success_rate"] == 1.0
    assert doc["check"]["oracle_loss"] == doc["losses"][0]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finetune-dp2-t2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _session_members(sid: int) -> list[str]:
    """``pid (comm) state`` of every process whose session id is ``sid``."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) == sid:
            found.append(stat[:stat.rindex(")") + 1] + " " + fields[0])
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
def test_run_leaves_no_process_behind():
    # Its own session, so everything the run started (workers, the
    # shared-memory resource tracker) shares the run's session id.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "finetune-dp2-t2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True)
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    assert _session_members(proc.pid) == []


def test_pretrain_over_fresh_gangs_is_one_training_run(tmp_path, monkeypatch):
    from perfbench import harness

    w = WORKLOADS["pretrain-pp2-1f1b"]
    monkeypatch.setattr(harness, "PRETRAIN_GANGS", 1)
    one = bench.run(w, seed=1, seconds=0, trace=False,
                    out_dir=str(tmp_path), steps=4)
    monkeypatch.setattr(harness, "PRETRAIN_GANGS", 2)
    two = bench.run(w, seed=1, seconds=0, trace=False,
                    out_dir=str(tmp_path), steps=4)
    assert two["losses"] == one["losses"]
    assert two["eval_loss"] == one["eval_loss"]
