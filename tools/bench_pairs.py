"""Alternating parent/change benchmark pairs, summarised into one BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --workload grid_forward \
        --seeds 1 2 3 --pairs 10 --seconds 30 --out BENCH_6.json

``--parent`` is a second source tree of the parent commit (for example
``git archive <rev> | tar -x -C ../parent``); the change is the tree this
script lives in.  Each pair runs ``python3 perfbench/run.py --workload W
--seed S --seconds N --trace 0`` once in each tree, the parent first in
even pairs and the change first in odd ones, so that a drift of the
machine's speed hits both sides alike.  Seeds cycle through ``--seeds``.
Before every run the tree's ``src/**/__pycache__`` directories are deleted,
and the run has ``PYTHONDONTWRITEBYTECODE=1``, so both sides compile their
sources as a fresh checkout does: a working checkout keeps the bytecode of
earlier imports, which an exported parent lacks.  Each pair row records
this as ``src_caches_cleared``.

After each pair the two trees' ``perfbench/_out/W/plain`` directories are
compared file by file, and the pair records the relative paths of the files
that differ (``outputs_differing``; ``outputs_identical`` when there are
none).  The script reads each run's final JSON line and
writes, per workload and end-to-end metric of ``BENCHMARK.json``: every
run's value, each side's median and quartiles, the change's relative
median shift, and in how many pairs the change was better.  With
``--out`` naming an existing file, its other workloads are kept.

It imports nothing from ``src/`` and changes nothing under ``perfbench/``.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent


def _clear_caches(tree: Path) -> None:
    """Delete the bytecode caches under ``tree/src``."""
    for cache in list((tree / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    last = json.loads(done.stdout.strip().splitlines()[-1])
    row = {name: m["value"] for name, m in last["metrics"].items()}
    row.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    return row


def _differing_outputs(a: Path, b: Path) -> list[str]:
    """The relative paths, sorted, of the files that differ between two
    directory trees: present in one only, or not the same byte for byte."""
    files = {f.relative_to(root).as_posix()
             for root in (a, b) for f in root.rglob("*") if f.is_file()}
    return sorted(f for f in files if not (
        (a / f).is_file() and (b / f).is_file() and filecmp.cmp(a / f, b / f, shallow=False)))


def _side(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def summarise(runs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        par = [r["parent"][name] for r in runs]
        chg = [r["change"][name] for r in runs]
        p, c = _side(par), _side(chg)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(par, chg))
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": p, "change": c,
            "median_shift": (c["median"] - p["median"]) / p["median"],
            "change_wins": wins, "pairs": len(runs),
            "parent_iqr": p["q3"] - p["q1"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent source tree")
    ap.add_argument("--parent-rev", default="parent", help="label recorded for the parent")
    ap.add_argument("--change-rev", default="change", help="label recorded for the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs a side)")
    parent = args.parent.resolve()
    spec = json.loads((CHANGE / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    runs = []
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        row = {"pair": i, "seed": seed, "first": order[0], "src_caches_cleared": True}
        for side in order:
            tree = parent if side == "parent" else CHANGE
            _clear_caches(tree)
            row[side] = _run(tree, args.workload, seed, args.seconds)
        plain = Path("perfbench", "_out", args.workload, "plain")
        row["outputs_differing"] = _differing_outputs(parent / plain, CHANGE / plain)
        row["outputs_identical"] = not row["outputs_differing"]
        runs.append(row)
        print(json.dumps(row), flush=True)

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("environment", {
        "python": platform.python_version(), "platform": platform.platform(),
        "cpus": len(os.sched_getaffinity(0))})
    doc.setdefault("workloads", {})[args.workload] = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
        "parent": args.parent_rev, "change": args.change_rev,
        "seconds": args.seconds, "seeds": args.seeds,
        "all_correct": all(r[s]["correct"] for r in runs for s in ("parent", "change")),
        "all_outputs_identical": all(r["outputs_identical"] for r in runs),
        "metrics": summarise(runs, spec),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
