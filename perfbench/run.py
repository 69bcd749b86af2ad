"""noisecalc benchmark: one workload, one fresh process, one closed-loop client.

    python3 perfbench/run.py --workload mc_wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout (nothing is installed).  The workload runs in a
fresh worker process (``worker.py``) that sends one CLI job at a time
through ``noisecalc.cli.main`` and checks every job's outputs.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see README.md).

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything else (the metric
table, the environment, the full worker result) is printed above it and
written to ``perfbench/_out/<workload>/result_trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh-process imports timed for setup_s, besides the worker's own.
SETUP_PROBES = 8
# Every run must end well inside the 180 s each run is allowed.
DEADLINE_S = 170.0
# The program runs serially: numpy's BLAS / OpenMP pools are capped at one
# thread, and NOISECALC_THREADS is left unset.
THREAD_CAPS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

_PROBE = ("import time; t = time.perf_counter(); import noisecalc.cli; "
          "print(time.perf_counter() - t)")

# Reported and recorded, but not in the final JSON line: they are zero on
# the workloads that do not run the command (see README.md).
COMMAND_SUMS = ("experiment_s", "simulate_s", "fpe_s", "integrate_s",
                "stationary_s", "convert_s")


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "NOISECALC_THREADS"}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args: list[str], env, timeout: float) -> str:
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, check=True, text=True)
    return done.stdout


def _environment(seed: int, worker: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
        "NOISECALC_THREADS": "unset",
        "thread_caps": THREAD_CAPS,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SRC / "noisecalc" / "cli.py").is_file():
        print(f"error: no noisecalc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    out = HERE / "_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = _child_env()

    # one untimed import first: byte-compilation is not a per-call cost
    _python(["-c", _PROBE], env, 60)
    probes = [float(_python(["-c", _PROBE], env, 60)) for _ in range(SETUP_PROBES)]

    remaining = DEADLINE_S - (time.monotonic() - start)
    raw = _python([str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)], env, remaining)
    worker = json.loads(raw.strip().splitlines()[-1])
    if not Path(worker["noisecalc_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported noisecalc from {worker['noisecalc_file']}, not {SRC}",
              file=sys.stderr)
        return 2

    setup_s = statistics.median(probes + [worker["import_s"]])
    # the final line's metrics: end_to_end with --trace 0, per_layer with
    # --trace 1 (meanings in README.md)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values, wanted = worker["metrics"], spec["per_layer"]
    else:
        values = {"wall_s": worker["wall_s"], "setup_s": setup_s,
                  "peak_rss_mb": worker["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failed_frac = worker["failed"] / worker["attempted"]
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": _environment(args.seed, worker),
              "setup_probes_s": probes, "failed_frac": failed_frac,
              "metrics": metrics, "worker": worker}
    (out / f"result_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    for key, val in record["environment"].items():
        print(f"# {key}: {val}")
    print(f"# passes: {worker['passes']}")
    for problem in worker["problems"]:
        print(f"# FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name in COMMAND_SUMS:
            if name in worker:
                print(f"{name} {worker[name]:.6g} s")
    print(f"failed_frac {failed_frac:.6g} ratio")
    if args.trace:
        traced = worker["metrics"]["trace.wall_s"]
        for name, s in sorted(worker["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"# self {name} {s:.4f} s ({100 * s / traced:.1f}% of traced wall)")

    print(json.dumps({"correct": worker["failed"] == 0, "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
