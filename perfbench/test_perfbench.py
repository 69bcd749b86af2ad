"""The benchmark's own tests (not part of the package suite).

    python3 -m pytest perfbench -q

Runs each workload once untraced and once traced (about 40 s in all).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from jobs import WORKLOADS, job_list  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Client  # noqa: E402

import noisecalc.cli as cli  # noqa: E402
import noisecalc.paths as paths  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_byte_identical(workload, tmp_path):
    client = Client(job_list(workload, seed=7), tmp_path)
    client.run_pass("plain")
    originals = (cli.main, paths.SeedSpec.generator)
    tracer = Tracer()
    tracer.install()
    try:
        client.run_pass("traced", tracer)
    finally:
        tracer.uninstall()
    assert (cli.main, paths.SeedSpec.generator) == originals
    assert client.failed == 0, client.problems
    assert len(tracer.t0) > 0
    for job in client.jobs:
        plain = sorted((tmp_path / "plain" / job.name).iterdir())
        traced = sorted((tmp_path / "traced" / job.name).iterdir())
        assert [f.name for f in plain] == [f.name for f in traced]
        for a, b in zip(plain, traced):
            assert a.read_bytes() == b.read_bytes(), f"{job.name}/{a.name}"


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    lines = done.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
