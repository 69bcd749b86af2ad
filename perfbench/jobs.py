"""Workload job lists and the reference check of every job's outputs.

A workload is a fixed list of CLI jobs.  ``job_list(workload, seed)``
derives each job's config (and the ``--seed`` it is run with) from the
workload seed alone, so one seed always gives the same inputs.  Sizes are
fixed per workload; the seed only moves master seeds, starting points and
amplitudes that leave the amount of work unchanged.

Each job carries a check that reads the files the job wrote and returns a
list of problems (empty when the output is right).  The checks test facts
that hold whatever the random stream: exact identities, closed forms, and
statistical statements at five standard errors.

This module imports only the standard library at import time; numpy is
imported inside the checks, after the benchmark has timed
``import noisecalc.cli``.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("mc_wide", "mc_long", "grid_forward")

# Statistical checks allow this many (combined) standard errors.
Z = 5.0


@dataclass(frozen=True)
class Job:
    name: str
    command: str            # CLI sub-command, e.g. "experiment"
    argv: tuple[str, ...]   # extra positional arguments, e.g. ("langevin1",)
    config: dict
    seed: int
    check: Callable[[Path], list[str]]

    def cli_argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.command, *self.argv, "--config", str(config_path),
                "--seed", str(self.seed), "--out", str(out_dir)]


def _read_rows(path: Path) -> list[list[float]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        if line and not line.startswith("#"):
            rows.append([float(v) for v in line.split(",")])
    return rows


def _columns(path: Path):
    import numpy as np
    return np.array(_read_rows(path)).T


# --- checks -----------------------------------------------------------------

# Sign of the first-step drift of each member started on the boundary, and
# the member that is frozen there (drift and diffusion both vanish).
_REST_SIGNS = {
    "langevin1": {"ito": 1, "stratonovich": 0, "hk": -1},
    "langevin2": {"ito": 1, "stratonovich": 1, "hk": 0},
    "relativistic": {"ito": 1, "stratonovich": 0, "hk": -1},
}


def _check_experiment(family: str) -> Callable[[Path], list[str]]:
    def check(out: Path) -> list[str]:
        report = json.loads((out / f"experiment_{family}.json").read_text(encoding="utf-8"))
        members = {m["interpretation"]: m for m in report["members"]}
        problems = []
        if report.get("model_family") != family or set(members) != set(_REST_SIGNS[family]):
            return [f"unexpected report layout: {sorted(members)}"]
        for interp, sign in _REST_SIGNS[family].items():
            rest = members[interp]["rest_start"]
            drift = rest["first_step_drift"]
            if (drift > 0) - (drift < 0) != sign:
                problems.append(f"{interp}: first-step drift {drift} has the wrong sign")
            if sign == 0 and rest["stuck_fraction"] != 1.0:
                problems.append(f"{interp}: frozen member has stuck_fraction "
                                f"{rest['stuck_fraction']}")
            frac = members[interp]["hitting"]["fraction"]
            if not 0.0 <= frac <= 1.0:
                problems.append(f"{interp}: hitting fraction {frac} outside [0, 1]")
        if _REST_SIGNS[family]["hk"] < 0:
            viol = members["hk"]["rest_start"]["violation_fraction"]
            if viol != 1.0:
                problems.append(f"hk: outward member has violation_fraction {viol}")
        return problems
    return check


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _check_kinetic_mean(k0: float, horizon: float) -> Callable[[Path], list[str]]:
    """Reflected single-particle kinetic energy (m = gamma = sigma = 1):
    ``E[K_T] = 1/4 + (K_0 - 1/4) exp(-2 T)``, the same for every tag."""
    exact = 0.25 + (k0 - 0.25) * math.exp(-2.0 * horizon)

    def check(out: Path) -> list[str]:
        s = _summary(out)
        n = s["n_paths"]
        se = math.sqrt(s["terminal_var"] / n)
        dev = abs(s["terminal_mean"] - exact)
        problems = []
        if dev > Z * se:
            problems.append(f"E[K_T]: mean {s['terminal_mean']:.5f} vs exact {exact:.5f} "
                            f"(|dev| {dev:.2e} > {Z} SE {se:.2e})")
        if s["events"]["violations"] != 0:
            problems.append(f"reflected run logged {s['events']['violations']} violations")
        return problems
    return check


def _check_summary_sane(out: Path) -> list[str]:
    s = _summary(out)
    if not (math.isfinite(s["terminal_mean"]) and math.isfinite(s["terminal_var"])):
        return ["non-finite terminal statistics"]
    return []


def _check_pair_agrees(other: str) -> Callable[[Path], list[str]]:
    """Terminal means of two schemes for one law agree within ``Z`` combined
    standard errors; ``other`` names the job that ran earlier in the pass."""
    def check(out: Path) -> list[str]:
        problems = _check_summary_sane(out)
        a, b = _summary(out.parent / other), _summary(out)
        se = math.sqrt(a["terminal_var"] / a["n_paths"] + b["terminal_var"] / b["n_paths"])
        dev = abs(a["terminal_mean"] - b["terminal_mean"])
        if dev > Z * se:
            problems.append(f"right vs Ito-form euler means differ by {dev:.3e} "
                            f"> {Z} x {se:.3e}")
        return problems
    return check


def _check_fpe(out: Path) -> list[str]:
    import numpy as np
    x, p = _columns(out / "density.csv")
    dx = x[1] - x[0]
    problems = []
    mass = float(p.sum() * dx)
    if abs(mass - 1.0) > 1e-9:
        problems.append(f"final mass {mass!r} != 1")
    if p.min() < 0:
        problems.append(f"negative density {p.min()}")
    _, h = _columns(out / "entropy.csv")
    rise = float(np.max(np.diff(h)))
    if rise > 1e-10:
        problems.append(f"relative entropy rises by {rise:.2e}")
    if not h[-1] < h[0]:
        problems.append("relative entropy did not decay")
    return problems


def _check_ou_stationary(theta: float, s: float) -> Callable[[Path], list[str]]:
    """OU ``dX = -theta X dt + s dW``: ``p(x) ~ exp(-theta x^2 / s^2)``."""
    def check(out: Path) -> list[str]:
        import numpy as np
        x, p = _columns(out / "density.csv")
        dx = x[1] - x[0]
        exact = np.exp(-theta * x**2 / s**2)
        exact /= exact.sum() * dx
        err = float(np.max(np.abs(p - exact)) / exact.max())
        return [] if err <= 1e-9 else [f"stationary density off closed form by {err:.2e}"]
    return check


def _check_integrate(t0: float, t1: float, base: int, levels: int) -> Callable[[Path], list[str]]:
    """For phi = x, right - left is the realized quadratic variation of the
    Brownian path, whose law has mean ``T`` and sd ``T sqrt(2/N)``;
    right - midpoint is half of it."""
    span = t1 - t0

    def check(out: Path) -> list[str]:
        tables = {}
        for rule in ("left", "midpoint", "right"):
            n, v = _columns(out / f"convergence_{rule}.csv")
            tables[rule] = v
            want = [base * 2**lvl for lvl in range(levels + 1)]
            if [int(k) for k in n] != want:
                return [f"{rule}: levels {list(n)} != {want}"]
        problems = []
        for lvl, (lft, mid, rgt) in enumerate(zip(tables["left"], tables["midpoint"],
                                                  tables["right"])):
            n = base * 2**lvl
            sd = span * math.sqrt(2.0 / n)
            qv = rgt - lft
            if abs(qv - span) > Z * sd:
                problems.append(f"level {lvl}: right-left {qv:.5f} vs QV mean {span}")
            if abs((rgt - mid) - 0.5 * qv) > Z * sd:
                problems.append(f"level {lvl}: right-midpoint {rgt - mid:.5f} vs QV/2")
        return problems
    return check


def _check_convert(lo: float, hi: float, n: int, a: float, b: float) -> Callable[[Path], list[str]]:
    """HK tag, ``g = a + b x^2``: ``f_ito - f_original = g g' = (a + b x^2) 2 b x``."""
    def check(out: Path) -> list[str]:
        import numpy as np
        x, f0, f1 = _columns(out / "converted_drift.csv")
        if x.size != n or x[0] != lo or x[-1] != hi:
            return [f"grid has {x.size} points on [{x[0]}, {x[-1]}]"]
        ggp = (a + b * x**2) * (2.0 * b * x)
        err = float(np.max(np.abs((f1 - f0) - ggp)))
        return [] if err <= 1e-10 else [f"f_ito - f_original off g g' by {err:.2e}"]
    return check


# --- workloads --------------------------------------------------------------


def _seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    return rng, (lambda: rng.randrange(2**32))


def _experiment(family: str, master: int, block: dict | None = None) -> Job:
    cfg = {"experiment": block} if block else {}
    return Job(f"experiment_{family}", "experiment", (family,), cfg, master,
               _check_experiment(family))


def _mc_wide(seed: int) -> list[Job]:
    _, draw = _seeds("mc_wide", seed)
    block = {"dt": 1e-3, "n_seeds": 5000, "horizon": 0.05,
             "hitting": {"n_paths": 5000, "dt": 1e-3, "horizon": 0.05}}
    return [_experiment(fam, draw(), block) for fam in ("langevin1", "langevin2", "relativistic")]


DOUBLE_WELL = {"f": "x - x^3", "g": "0.5 + 0.1*x^2"}


def _mc_long(seed: int) -> list[Job]:
    rng, draw = _seeds("mc_long", seed)
    x0 = round(rng.uniform(-0.5, 0.5), 6)
    well = {"model": {"custom": {**DOUBLE_WELL, "interpretation": "hk",
                                 "domain": [None, None], "x0": x0}},
            "run": {"n_paths": 256, "dt": 1e-3, "horizon": 15.0, "record": "terminal"}}
    well_seed = draw()
    right = Job("simulate_well_right", "simulate", (),
                {**well, "run": {**well["run"], "scheme": "right"}}, well_seed,
                _check_summary_sane)
    euler = Job("simulate_well_euler", "simulate", (),
                {**well, "run": {**well["run"], "scheme": "euler"}}, well_seed,
                _check_pair_agrees(right.name))
    # v0 is fixed: the number of reflection events this run logs, and so
    # its memory, depends on the starting energy
    v0 = 1.0
    reflected = Job(
        "simulate_kinetic_reflected", "simulate", (),
        {"model": {"family": "langevin1", "interpretation": "stratonovich",
                   "params": {"v0": v0}},
         "run": {"n_paths": 512, "dt": 1e-4, "horizon": 1.0, "scheme": "midpoint",
                 "boundary": {"reflect": [0.0, None]}, "record": "path",
                 "record_stride": 10}},
        draw(), _check_kinetic_mean(0.5 * v0**2, 1.0))
    return [_experiment("langevin1", draw()), _experiment("langevin2", draw()),
            right, euler, reflected]


def _grid_forward(seed: int) -> list[Job]:
    rng, _ = _seeds("grid_forward", seed)
    center = round(rng.uniform(-1.0, 1.0), 6)
    ou = {"custom": {"f": "-x", "g": "1", "interpretation": "ito",
                     "domain": [None, None], "x0": 0.0}}
    fpe_ou = Job("fpe_ou", "fpe", (), {
        "model": ou,
        "fpe": {"interval": [-3.0, 3.0], "n_cells": 256, "horizon": 5.0,
                "snapshot_every": 0.1,
                "initial": {"kind": "gaussian", "center": center, "width": 0.5}}},
        0, _check_fpe)
    well_center = round(rng.uniform(-1.0, 1.0), 6)
    fpe_well = Job("fpe_well", "fpe", (), {
        "model": {"custom": {**DOUBLE_WELL, "interpretation": "hk",
                             "domain": [None, None], "x0": 0.0}},
        "fpe": {"interval": [-2.0, 2.0], "n_cells": 256, "horizon": 5.0,
                "snapshot_every": 0.1,
                "initial": {"kind": "gaussian", "center": well_center, "width": 0.5}}},
        0, _check_fpe)
    s = round(rng.uniform(0.8, 1.2), 6)
    stationary = Job("stationary_ou", "stationary", (), {
        "model": {"custom": {"f": "-x", "g": repr(s), "interpretation": "ito",
                             "domain": [None, None], "x0": 0.0}},
        "stationary": {"interval": [-4.0, 4.0], "n_cells": 4096}},
        0, _check_ou_stationary(1.0, s))
    integrate = Job("integrate_x", "integrate", (), {
        "integrate": {"phi": "x", "rules": ["left", "midpoint", "right"],
                      "t0": 0.0, "t1": 1.0, "base_steps": 4096, "levels": 8}},
        rng.randrange(2**32), _check_integrate(0.0, 1.0, 4096, 8))
    convert = Job("convert_well", "convert", (), {
        "model": {"custom": {**DOUBLE_WELL, "interpretation": "hk",
                             "domain": [None, None], "x0": 0.0}},
        "convert": {"xs": [-3.0, 3.0, 100_001]}},
        0, _check_convert(-3.0, 3.0, 100_001, 0.5, 0.1))
    return [fpe_ou, fpe_well, stationary, integrate, convert]


def job_list(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass, in order; each writes to a directory named after
    it, and all of a pass's directories share one parent."""
    if workload == "mc_wide":
        return _mc_wide(seed)
    if workload == "mc_long":
        return _mc_long(seed)
    if workload == "grid_forward":
        return _grid_forward(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
