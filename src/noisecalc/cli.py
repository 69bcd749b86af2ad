"""Config-driven command line front end.

Commands: ``integrate``, ``convert``, ``simulate``, ``stationary``,
``fpe``, and ``experiment <family>``.  Configuration is a single JSON file
(strictly validated: unknown keys are rejected in every block, whichever
command runs).  Every command takes
``--seed`` and ``--out``; ``convert``, ``stationary`` and ``fpe`` draw no
random numbers and ignore the seed.  ``simulate`` also takes ``--paths``
and ``--dt`` (overriding ``run.n_paths`` and ``run.dt``), ``experiment``
takes ``--paths`` (overriding ``experiment.hitting.n_paths``).

Exit codes: 0 success, 2 invalid configuration, 3 numeric divergence.
:func:`main` is the one error boundary: every input error is a
``ValueError`` (a missing, unknown or mistyped key, read through
:func:`_block` and :func:`_num`, or a value the library rejects) and exits
2 with one ``config error:`` line on stderr; a diverged run raises
:class:`~noisecalc.solvers.NumericError`, in a command or in the library,
and exits 3 with one ``numeric error:`` line.  stdout prints one summary
line.  This module formats every output byte: each CSV is one
:func:`_write_csv` call and each JSON file one :func:`_write_json` call of
a dict built here from result fields, so the library returns numbers and
never text.  Output files are written atomically (temp file, then rename),
so a run is reproducible byte for byte from ``(config, seed)``.  Every
command runs serially.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import expr as xp
from .fokker_planck import (
    _MAX_CELLS,
    FpeProblem,
    GridDensity,
    evolve_fpe,  # noqa: F401  unused here; perfbench's tracer patches cli.evolve_fpe by name
    propagate_fpe,
    relative_entropy,
    stationary_density,
    stationary_log_density,
)
from .integrals import convergence_table
from .paths import SeedSpec, TimeGrid, generate_brownian
from .physics import (
    FAMILIES,
    InterpretationTriple,
    LangevinParams,
    RelativisticParams,
    boundary_hitting_study,
    family_models,
    rest_start_diagnostics,
)
from .sde import EvaluationRule, Interpretation, SdeModel, from_ito, to_ito
from .solvers import (Boundary, McConfig, NumericError, Reflect, STOP_ON_VIOLATION,
                      SolverScheme, _check_record, simulate_ensemble)

__all__ = ["main", "ConfigError", "NumericError"]


# Rows of a CSV formatted and written at a time by ``_write_csv``.
_CSV_BLOCK = 4096
# Most steps of the finest path ``integrate`` refines to (base_steps x
# 2^levels).  A path of this size holds 64 MiB (times and values); with
# the path it is refined from and its block-sized bridge temporaries a run at
# the cap allocates at most about 133 MiB at once.
_MAX_INTEGRATE_STEPS = 2**22
# Most cells of a ``stationary`` grid and most points of ``convert.xs``.
# Both commands hold a few arrays of that length, so their work and memory
# are linear in it; ``fpe`` takes at most ``fokker_planck._MAX_CELLS``.
_MAX_STATIONARY_CELLS = 2**20
_MAX_CONVERT_POINTS = 2**20


class ConfigError(ValueError):
    """Invalid configuration: exit code 2, like every ``ValueError``."""


# The keys of each config block, by its dotted path.
_KEYS = {
    "run": {"n_paths", "dt", "horizon", "seed", "boundary", "scheme", "record",
            "record_stride"},
    "run.seed": {"master", "stream"},
    "run.boundary": {"reflect"},
    "outputs": {"dir"},
    "integrate": {"phi", "rules", "t0", "t1", "base_steps", "levels"},
    "convert": {"xs"},
    "stationary": {"interval", "n_cells"},
    "fpe": {"interval", "n_cells", "horizon", "initial", "snapshot_every"},
    "fpe.initial": {"kind", "x0", "center", "width"},
    "experiment": {"dt", "n_seeds", "horizon", "hitting"},
    "experiment.hitting": {"band", "n_paths", "dt", "horizon"},
}


def _object(block, where: str, allowed: set[str]) -> dict:
    """``block``, which must be a JSON object with keys in ``allowed``."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    return block


def _block(cfg: dict, where: str) -> dict:
    """The config block at the dotted path ``where`` (``{}`` when absent),
    its keys and those of its parent checked against ``_KEYS``."""
    outer, _, key = where.rpartition(".")
    parent = _block(cfg, outer) if outer else cfg
    return _object(parent.get(key, {}), where, _KEYS[where])


def _num(value, name: str, kind=float):
    """``kind(value)`` of a finite number, which must be whole when ``kind``
    is ``int``; any other value raises a ConfigError naming its key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):  # bool is an int
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int no float can hold
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return kind(value)


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _interval(value, name: str) -> tuple[float, float]:
    """A ``[a, b]`` pair of numbers with ``a < b``."""
    if isinstance(value, list) and len(value) == 2:
        a, b = (_num(v, name) for v in value)
        if a < b:
            return a, b
    raise ConfigError(f"{name} must be [a, b] with a < b, got {value!r}")


def _check_in_domain(interval: tuple[float, float], name: str, model: SdeModel) -> None:
    """``interval`` must lie in the model's closed domain."""
    lo, hi = model.domain
    if not (lo <= interval[0] and interval[1] <= hi):
        raise ConfigError(f"{name} {list(interval)} leaves the model's domain [{lo}, {hi}]")


def _grid(block: dict, where: str, model: SdeModel,
          max_cells: int) -> tuple[tuple[float, float], int]:
    """The ``interval`` and ``n_cells`` of a finite-volume grid block; the
    interval must lie in the model's closed domain, and ``n_cells`` in
    ``[2, max_cells]``."""
    interval = _interval(block.get("interval", [-3.0, 3.0]), f"{where}.interval")
    _check_in_domain(interval, f"{where}.interval", model)
    n_cells = _num(block.get("n_cells", 256), f"{where}.n_cells", int)
    if not 2 <= n_cells <= max_cells:
        raise ConfigError(f"{where}.n_cells must be in [2, {max_cells}], got {n_cells}")
    return interval, n_cells


def _get(block: dict, key: str, default=None, required: bool = False):
    if required and key not in block:
        raise ConfigError(f"missing required key {key!r}")
    return block.get(key, default)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            cfg = json.load(fp)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _object(cfg, "config root", {"model", *(w for w in _KEYS if "." not in w)})
    # every block, whichever command runs; run.seed may also be a whole number
    # and run.boundary a policy name, read by the commands that take them
    for where in _KEYS:
        outer, _, key = where.rpartition(".")
        if outer != "run" or isinstance(_block(cfg, "run").get(key), dict):
            _block(cfg, where)
    return cfg


def _parse_expr(src: str, what: str) -> xp.Expr:
    try:
        return xp.parse(_text(src, what))
    except xp.ExprSyntaxError as exc:
        raise ConfigError(f"cannot parse {what}: {exc}") from None


def _seed_from(cfg: dict, override: int | None) -> SeedSpec:
    run = _block(cfg, "run")
    if isinstance(run.get("seed"), int):
        raw = {"master": run["seed"]}
    else:
        raw = _block(cfg, "run.seed")
    master = raw.get("master", 0) if override is None else override
    return SeedSpec(_num(master, "run.seed.master", int),
                    _num(raw.get("stream", 0), "run.seed.stream", int))


def _build_custom_model(block: dict, command: str) -> SdeModel:
    f_expr = _parse_expr(_get(block, "f", required=True), "model.custom.f")
    g_expr = _parse_expr(_get(block, "g", required=True), "model.custom.g")
    for key, e in (("f", f_expr), ("g", g_expr)):
        if command in ("stationary", "fpe") and xp.reads_t(e):  # not frozen at t = 0
            raise ConfigError(f"model.custom.{key} reads t, but {command} takes functions of x")
    interp = Interpretation.from_name(
        _text(_get(block, "interpretation", "ito"), "model.custom.interpretation"))
    dom = _get(block, "domain", [None, None])
    if not isinstance(dom, list) or len(dom) != 2:
        raise ConfigError("model.custom.domain must be a 2-element list")
    lo = -math.inf if dom[0] is None else _num(dom[0], "model.custom.domain")
    hi = math.inf if dom[1] is None else _num(dom[1], "model.custom.domain")
    x0 = _num(_get(block, "x0", required=True), "model.custom.x0")
    try:
        dg = xp.vector_fn(xp.derivative(g_expr))
    except xp.DerivativeUnsupportedError:
        dg = None
    return SdeModel(f=xp.vector_fn(f_expr), g=xp.vector_fn(g_expr), dgdx=dg,
                    interpretation=interp, x0=x0, domain=(lo, hi))


def _family_params(family: str, model: dict):
    """The family's parameters, built from the given keys only; ``u0: null``
    is no second velocity, which langevin2 takes to be ``v0``."""
    if family == "relativistic":
        cls, keys = RelativisticParams, {"M", "p0"}
    else:
        cls, keys = LangevinParams, {"m", "gamma", "sigma", "v0", "u0"}
    params = _object(model.get("params", {}), "model.params", keys)
    p = cls(**{key: _num(value, f"model.params.{key}") for key, value in params.items()
               if not (key == "u0" and value is None)})
    if family == "langevin2" and p.u0 is None:
        p = replace(p, u0=p.v0)
    return p


def _build_model(cfg: dict, command: str) -> SdeModel:
    block = cfg.get("model")
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'model' object")
    if "custom" in block:
        _object(block, "model", {"custom"})
        return _build_custom_model(_object(
            block["custom"], "model.custom", {"f", "g", "interpretation", "domain", "x0"}),
            command)
    _object(block, "model", {"family", "interpretation", "params"})
    family = _get(block, "family", required=True)
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    interp = Interpretation.from_name(
        _text(_get(block, "interpretation", "ito"), "model.interpretation"))
    trio = family_models(family, _family_params(family, block))
    return dict(zip(Interpretation, trio.members()))[interp]


def _boundary_from(cfg: dict) -> Boundary:
    boundary = _block(cfg, "run").get("boundary")
    if isinstance(boundary, dict):
        return _reflect_from(_block(cfg, "run.boundary"))
    if boundary in ("stop", STOP_ON_VIOLATION):
        return STOP_ON_VIOLATION
    if boundary not in (None, "none"):
        raise ConfigError(f"unknown boundary {boundary!r}")
    return None


def _mc_config(cfg: dict, args) -> McConfig:
    run = _block(cfg, "run")
    # the config's numbers are checked also when a flag replaces them
    n_paths = _num(run.get("n_paths", 100), "run.n_paths", int)
    dt = _num(run.get("dt", 1e-3), "run.dt")
    return McConfig(
        n_paths=n_paths if args.paths is None else args.paths,
        dt=dt if args.dt is None else _num(args.dt, "--dt"),
        horizon=_num(run.get("horizon", 1.0), "run.horizon"),
        seed=_seed_from(cfg, args.seed),
    )


def _reflect_from(block: dict) -> Reflect:
    try:
        lo, hi = block["reflect"]
        return Reflect(_num(lo, "run.boundary.reflect[0]"),
                       math.inf if hi is None else _num(hi, "run.boundary.reflect[1]"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("run.boundary.reflect must be [lo, hi] with lo < hi "
                          f"(hi null for no upper wall): {exc}") from None


def _scheme_from(cfg: dict) -> SolverScheme:
    name = _block(cfg, "run").get("scheme", "euler_maruyama_ito_form")
    aliases = {
        "euler_maruyama_ito_form": SolverScheme.EULER_MARUYAMA_ITO_FORM,
        "euler": SolverScheme.EULER_MARUYAMA_ITO_FORM,
        "left": SolverScheme.DIRECT_LEFT,
        "midpoint": SolverScheme.DIRECT_MIDPOINT_HEUN,
        "right": SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR,
    }
    if not isinstance(name, str) or name not in aliases:
        raise ConfigError(f"unknown scheme {name!r}")
    return aliases[name]


def _out_dir(cfg: dict, args) -> Path:
    outputs = _block(cfg, "outputs")
    out = Path(args.out or _text(outputs.get("dir", "."), "outputs.dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_atomic(path: Path, chunks) -> None:
    """Write the strings ``chunks`` yields to ``<path>.tmp``, each as soon as
    it comes, then rename the file to ``path``.  If a chunk raises, the
    ``.tmp`` file is removed and ``path`` is left as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            for chunk in chunks:
                f.write(chunk)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_json(path: Path, payload) -> None:
    _write_atomic(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def _write_csv(path: Path, header: str, columns, trailer: str) -> None:
    """``header``, one row per entry of the equal-length ``columns``, then
    ``trailer``.  A value is written as ``repr`` of its Python number: the
    shortest decimal that reads back to the same float, and an integer
    column stays integral.  Rows are formatted and written a block at a
    time, so no whole column, row list or file text is held at once."""
    _write_atomic(path, _csv_chunks(header, columns, trailer))


def _csv_chunks(header: str, columns, trailer: str):
    yield header + "\n"
    for i in range(0, len(columns[0]), _CSV_BLOCK):
        cells = [map(repr, np.asarray(c[i:i + _CSV_BLOCK]).tolist()) for c in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"
    yield trailer


def _hk_form(model: SdeModel) -> SdeModel:
    """The HK-form coefficients of the model's law (identity for HK tags)."""
    if model.interpretation is Interpretation.HAENGGI_KLIMONTOVICH:
        return model
    return from_ito(to_ito(model), Interpretation.HAENGGI_KLIMONTOVICH)


# --- commands ---------------------------------------------------------------


def _cmd_integrate(cfg: dict, args) -> str:
    if "model" in cfg:  # the integrand is integrate.phi
        raise ConfigError("integrate takes no model block")
    block = _block(cfg, "integrate")
    phi_expr = _parse_expr(block.get("phi", "x"), "integrate.phi")
    if xp.reads_t(phi_expr):  # not frozen at t = 0
        raise ConfigError("integrate.phi reads t, but integrate takes a function of x")
    phi = xp.vector_fn(phi_expr)
    names = block.get("rules", ["left", "midpoint", "right"])
    if not isinstance(names, list):
        raise ConfigError(f"integrate.rules must be a list of rule names, got {names!r}")
    rules = [EvaluationRule.from_name(_text(r, "integrate.rules")) for r in names]
    if not rules or len(set(rules)) < len(rules):
        raise ConfigError(f"integrate.rules must name one or more rules, each once, got {names!r}")
    t0 = _num(block.get("t0", 0.0), "integrate.t0")
    t1 = _num(block.get("t1", 1.0), "integrate.t1")
    base = _num(block.get("base_steps", 1024), "integrate.base_steps", int)
    levels = _num(block.get("levels", 6), "integrate.levels", int)
    if base < 2 or base % 2:
        raise ConfigError("integrate.base_steps must be even and >= 2")
    if levels < 0:
        raise ConfigError("integrate.levels must be >= 0")
    # the bit lengths bound the product before it is formed
    if (base.bit_length() + levels > _MAX_INTEGRATE_STEPS.bit_length()
            or base << levels > _MAX_INTEGRATE_STEPS):
        raise ConfigError(f"integrate.base_steps x 2^levels must be at most "
                          f"{_MAX_INTEGRATE_STEPS}, got {base} x 2^{levels}")
    seed = _seed_from(cfg, args.seed)
    out = _out_dir(cfg, args)

    path = generate_brownian(TimeGrid.uniform(t0, t1, base), seed)
    tables = convergence_table(lambda x: phi(x, 0.0), path, levels, seed, rules)
    for table in tables:
        _write_csv(out / f"convergence_{table.rule.value}.csv", "n_steps,value",
                   (table.n_steps, table.values),
                   f"# extrapolated,{float(table.extrapolated)!r}\n")
    if any(table.diverged for table in tables):
        raise NumericError("divergent sums in at least one convergence table")
    return f"integrate: wrote {len(rules)} table(s) to {out}"


def _cmd_convert(cfg: dict, args) -> str:
    model = _build_model(cfg, args.command)
    if "custom" not in cfg["model"]:
        raise ConfigError("convert requires a custom model")
    xs = _block(cfg, "convert").get("xs", [-2.0, 2.0, 101])
    if not (isinstance(xs, list) and len(xs) == 3):
        raise ConfigError(f"convert.xs must be [lo, hi, n], got {xs!r}")
    (lo, hi), n = _interval(xs[:2], "convert.xs[0:2]"), _num(xs[2], "convert.xs[2]", int)
    if not 1 <= n <= _MAX_CONVERT_POINTS:
        raise ConfigError("convert.xs must be [lo, hi, n] with lo < hi and "
                          f"1 <= n <= {_MAX_CONVERT_POINTS}, got n = {n}")
    _check_in_domain((lo, hi), "convert.xs[0:2]", model)
    xs = np.linspace(lo, hi, n)
    out = _out_dir(cfg, args)

    if model.dgdx is None:
        print("warning: symbolic derivative unavailable; using finite differences",
              file=sys.stderr)
    ito = to_ito(model)
    f_orig = np.asarray(model.f(xs, 0.0), dtype=float)
    with np.errstate(all="ignore"):  # a non-finite drift is reported below
        f_ito = np.asarray(ito.f(xs, 0.0), dtype=float)
    _write_csv(out / "converted_drift.csv", "x,f_original,f_ito", (xs, f_orig, f_ito), "")
    bad = np.flatnonzero(~np.isfinite(f_ito))
    if bad.size:
        raise NumericError(f"converted drift f_ito is not finite at x = {float(xs[bad[0]])!r}")
    return f"convert: wrote converted_drift.csv to {out}"


def _cmd_simulate(cfg: dict, args) -> str:
    model = _build_model(cfg, args.command)
    run = _block(cfg, "run")
    boundary = _boundary_from(cfg)
    mc = _mc_config(cfg, args)
    record = run.get("record", "path")
    stride = _num(run.get("record_stride", 1), "run.record_stride", int)
    _check_record(record, stride)
    if mc.n_paths > 1:  # histories and events only shape path.csv, written for one path
        record = "terminal"
    scheme = _scheme_from(cfg)
    out = _out_dir(cfg, args)
    result = simulate_ensemble(model, scheme, mc, boundary, record, stride)
    summary = result.summary
    if not (math.isfinite(summary.terminal_mean) or summary.n_completed == 0):
        raise NumericError("non-finite ensemble statistics")
    _write_json(out / "summary.json", {
        "n_paths": mc.n_paths, "dt": mc.dt, "horizon": mc.horizon,
        "scheme": scheme.value, "interpretation": model.interpretation.value,
        "terminal_mean": summary.terminal_mean,
        "terminal_var": summary.terminal_var,
        "events": {"violations": summary.violations, "reflections": summary.reflections},
    })
    edges, dens = summary.histogram
    _write_csv(out / "histogram.csv", "bin_left,bin_right,density",
               (edges[:-1], edges[1:], dens), "")
    wrote = 2
    if result.results is not None:
        path = result.results[0].path
        _write_csv(out / "path.csv", "t,value", (path.grid.points, path.values), "")
        wrote += 1
    return f"simulate: wrote {wrote} file(s) to {out}"


def _cmd_stationary(cfg: dict, args) -> str:
    model = _build_model(cfg, args.command)
    interval, n_cells = _grid(_block(cfg, "stationary"), "stationary", model,
                              _MAX_STATIONARY_CELLS)
    out = _out_dir(cfg, args)
    hk = _hk_form(model)
    dens = stationary_density(hk.f, hk.g, interval, n_cells)
    _write_csv(out / "density.csv", "x_center,density", (dens.centers, dens.values), "")
    return f"stationary: wrote density.csv to {out}"


def _cmd_fpe(cfg: dict, args) -> str:
    model = _build_model(cfg, args.command)
    block = _block(cfg, "fpe")
    (a, b), n_cells = _grid(block, "fpe", model, _MAX_CELLS)
    horizon = _num(block.get("horizon", 10.0), "fpe.horizon")
    snap = _num(block.get("snapshot_every", 0.1), "fpe.snapshot_every")
    init = _block(cfg, "fpe.initial")
    kind = init.get("kind", "point")
    x0 = _num(init.get("x0", model.x0), "fpe.initial.x0")
    c = _num(init.get("center", 0.0), "fpe.initial.center")
    w = _num(init.get("width", 0.5), "fpe.initial.width")
    if kind == "point":
        initial = GridDensity.point_mass(a, b, n_cells, x0)
    elif kind == "gaussian":
        if not 0 < w < math.inf:
            raise ConfigError(f"fpe.initial.width must be positive and finite, got {w}")
        initial = GridDensity.from_function(
            lambda x: np.exp(-0.5 * ((x - c) / w) ** 2), a, b, n_cells)
    elif kind == "uniform":
        initial = GridDensity.uniform(a, b, n_cells)
    else:
        raise ConfigError(f"unknown initial kind {kind!r}")

    hk = _hk_form(model)
    problem = FpeProblem(f=hk.f, g=hk.g, initial=initial)
    result = propagate_fpe(problem, horizon, snap)

    out = _out_dir(cfg, args)
    final = result.final
    _write_csv(out / "density.csv", "x_center,density", (final.centers, final.values), "")
    # against the log of the stationary law, which stays finite where the
    # law itself underflows in the tails of a stiff potential
    target = stationary_log_density(hk.f, hk.g, (a, b), n_cells)
    entropy = [relative_entropy(snap_d, target) for snap_d in result.snapshots]
    _write_csv(out / "entropy.csv", "t,H", (result.times, entropy), "")
    return f"fpe: wrote 2 file(s) to {out}"


def _cmd_experiment(cfg: dict, args) -> str:
    family = args.name
    if family not in FAMILIES:
        raise ConfigError(f"unknown experiment {family!r}; expected one of {FAMILIES}")
    if "model" in cfg:  # the family and its studies' parameters are fixed
        raise ConfigError("experiment takes no model block; the family is its argument")
    block = _block(cfg, "experiment")
    dt = _num(block.get("dt", 1e-3), "experiment.dt")
    n_seeds = _num(block.get("n_seeds", 1000), "experiment.n_seeds", int)
    horizon = _num(block.get("horizon", 1.0), "experiment.horizon")
    hit = _block(cfg, "experiment.hitting")
    band = _num(hit.get("band", 1e-4), "experiment.hitting.band")
    n_paths = _num(hit.get("n_paths", 1000), "experiment.hitting.n_paths", int)
    seed = _seed_from(cfg, args.seed)
    out = _out_dir(cfg, args)

    # the hitting study starts inside the domain; the rest start is its
    # lower edge (zero kinetic energy, or the rest energy), the hitting level
    if family == "relativistic":
        params = RelativisticParams(p0=1.0)
    else:
        v = math.sqrt(0.5) if family == "langevin2" else 1.0
        params = LangevinParams(v0=v, u0=v if family == "langevin2" else None)
    trio = family_models(family, params)
    level = trio.ito.domain[0]
    rest_trio = InterpretationTriple(*(replace(m, x0=m.domain[0]) for m in trio.members()))
    hit_cfg = McConfig(
        n_paths=n_paths if args.paths is None else args.paths,
        dt=_num(hit.get("dt", 1e-3), "experiment.hitting.dt"),
        horizon=_num(hit.get("horizon", 5.0), "experiment.hitting.horizon"),
        seed=seed,
    )
    rest_cfg = McConfig(n_paths=n_seeds, dt=dt, horizon=horizon, seed=seed)
    members = [{
        "interpretation": model.interpretation.value,
        "scheme": diag.scheme.value,
        "model_family": family,
        "rest_start": {"first_step_drift": diag.first_step_drift,
                       "violation_fraction": diag.violation_fraction,
                       "interior_fraction": diag.interior_fraction,
                       "stuck_fraction": diag.stuck_fraction},
        "hitting": {"fraction": hit_stats.fraction_hit,
                    "mean_time": hit_stats.mean_hit_time, "ci95": hit_stats.ci95},
    } for model, diag, hit_stats in zip(trio.members(),
                                        rest_start_diagnostics(rest_trio, rest_cfg),
                                        boundary_hitting_study(trio, level, band, hit_cfg))]
    _write_json(out / f"experiment_{family}.json",
                {"model_family": family, "members": members})
    return f"experiment: wrote experiment_{family}.json to {out}"


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisecalc",
        description="Stochastic-integral laboratory: left / midpoint / right "
                    "evaluation rules, drift conversions, forward equations, "
                    "and the boundary-behavior case studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("integrate", "convert", "simulate", "stationary", "fpe", "experiment"):
        p = sub.add_parser(name)
        if name == "experiment":
            p.add_argument("name", help=f"one of {', '.join(FAMILIES)}")
        p.add_argument("--config", required=name != "experiment", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        if name in ("simulate", "experiment"):
            p.add_argument("--paths", type=int, default=None)
        if name == "simulate":
            p.add_argument("--dt", type=float, default=None)
    return parser


_DISPATCH = {
    "integrate": _cmd_integrate,
    "convert": _cmd_convert,
    "simulate": _cmd_simulate,
    "stationary": _cmd_stationary,
    "fpe": _cmd_fpe,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        summary = _DISPATCH[args.command](cfg, args)
    except ValueError as exc:  # ConfigError, and every input check of the library
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
