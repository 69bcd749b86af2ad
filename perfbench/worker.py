"""One workload in one fresh process: the closed-loop client.

Run by ``run.py``; prints one JSON object on its last stdout line.  The
client sends one CLI job at a time through ``noisecalc.cli.main`` and
repeats the workload's job list (a "pass") while passes fit in
``--seconds``.  Every job's output files are checked against the job's reference and
hashed; the hashes of one job must agree across passes, and with
``--trace 1`` also between the untraced and the traced passes.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from jobs import job_list

_T0 = time.perf_counter()
import noisecalc.cli  # noqa: E402  (timed: the set-up every CLI call pays)
IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402


def _digest(directory: Path) -> tuple[dict[str, str], int]:
    """sha256 of every output file of a job, and their total size."""
    hashes, size = {}, 0
    for f in sorted(directory.iterdir()):
        data = f.read_bytes()
        hashes[f.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return hashes, size


class Client:
    def __init__(self, jobs, out: Path):
        self.jobs = jobs
        self.out = out
        self.configs = out / "configs"
        self.configs.mkdir(parents=True, exist_ok=True)
        for job in jobs:
            (self.configs / f"{job.name}.json").write_text(
                json.dumps(job.config, sort_keys=True, indent=1), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict[str, str]] = {}   # first hashes per job

    def run_pass(self, label: str, tracer=None, first_job_id: int = 0):
        """Run every job once into ``out/label``; returns per-job seconds and
        the bytes written."""
        root = self.out / label
        seconds, written = [], 0
        for j, job in enumerate(self.jobs):
            job_dir = root / job.name
            if job_dir.exists():
                for f in job_dir.iterdir():
                    f.unlink()
            job_dir.mkdir(parents=True, exist_ok=True)
            argv = job.cli_argv(self.configs / f"{job.name}.json", job_dir)
            if tracer is not None:
                tracer.current_job = first_job_id + j
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                code = noisecalc.cli.main(argv)
                seconds.append(time.perf_counter() - start)
            self.attempted += 1
            problems = [f"exit code {code}"] if code != 0 else self._check(job, job_dir)
            hashes, size = _digest(job_dir)
            written += size
            ref = self.reference.setdefault(job.name, hashes)
            if hashes != ref:
                problems.append("output files differ from the first pass")
            if problems:
                self.failed += 1
                self.problems.extend(f"{label}/{job.name}: {p}" for p in problems)
        return seconds, written

    @staticmethod
    def _check(job, job_dir: Path) -> list[str]:
        try:
            return job.check(job_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"output unreadable: {exc!r}"]


def _another(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass fits in ``seconds`` (there is always one)."""
    spent = time.perf_counter() - start
    return done == 0 or spent + spent / done <= seconds


def measure(client: Client, seconds: float) -> dict:
    """Untraced passes while they fit in ``seconds``; end-to-end metrics.

    A job's time is its median over the passes.  Every pass's times are
    kept in the result, for other estimators.
    """
    per_pass = []
    start = time.perf_counter()
    while _another(start, len(per_pass), seconds):
        per_pass.append(client.run_pass("plain")[0])
    job_s = [statistics.median(col) for col in zip(*per_pass)]
    by_command: dict[str, float] = {}
    for job, s in zip(client.jobs, job_s):
        by_command[f"{job.command}_s"] = by_command.get(f"{job.command}_s", 0.0) + s
    return {"wall_s": sum(job_s), **by_command, "passes": len(per_pass),
            "job_s": {job.name: s for job, s in zip(client.jobs, job_s)},
            "job_order": [job.name for job in client.jobs],
            "per_pass_job_s": per_pass}


def measure_traced(client: Client, seconds: float, spans_path: Path) -> dict:
    """Alternating untraced and traced passes; per-layer metrics are the
    median over traced passes of each pass's value."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain, traced, written, pass_jobs = [], [], [], []
    n = len(client.jobs)
    start = time.perf_counter()
    while _another(start, len(traced), seconds):
        plain.append(sum(client.run_pass("plain")[0]))
        first = len(traced) * n
        tracer.install()
        try:
            secs, size = client.run_pass("traced", tracer, first)
        finally:
            tracer.uninstall()
        traced.append(sum(secs))
        written.append(size)
        pass_jobs.append(set(range(first, first + n)))
    tracer.save(spans_path)
    spans = tracer.arrays()
    rows, self_rows = zip(*(layer_metrics(spans, jobs) for jobs in pass_jobs))
    metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    wall_plain, wall_traced = statistics.median(plain), statistics.median(traced)
    metrics["cli.bytes_written"] = statistics.median(written)
    metrics["trace.wall_s"] = wall_traced
    metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    self_s = {k: statistics.median(r[k] for r in self_rows) for k in self_rows[0]}
    return {"metrics": metrics, "self_s": self_s, "passes": len(traced),
            "spans": int(spans["t0"].size)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    out = Path(args.out)
    client = Client(job_list(args.workload, args.seed), out)
    if args.trace:
        result = measure_traced(client, args.seconds, out / "spans.npz")
    else:
        result = measure(client, args.seconds)
    result.update(
        import_s=IMPORT_S,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=client.attempted,
        failed=client.failed,
        problems=client.problems[:20],
        numpy=np.__version__,
        noisecalc_file=noisecalc.cli.__file__,
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
