"""Config-driven command line front end.

Commands: ``integrate``, ``convert``, ``simulate``, ``stationary``,
``fpe``, and ``experiment <family>``.  Configuration is a single JSON file
(strictly validated: unknown keys are rejected).  Every command takes
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
line.  Output files are written atomically (temp file, then rename), so a
run is reproducible byte for byte from ``(config, seed)``.  Every command
runs serially.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import expr as xp
from .fokker_planck import (
    FpeProblem,
    GridDensity,
    evolve_fpe,  # noqa: F401  unused here; perfbench's tracer patches cli.evolve_fpe by name
    propagate_fpe,
    relative_entropy,
    stationary_density,
)
from .integrals import convergence_table
from .paths import SeedSpec, TimeGrid, generate_brownian
from .physics import (
    FAMILIES,
    LangevinParams,
    RelativisticParams,
    boundary_hitting_study,
    family_models,
    rest_start_diagnostics,
)
from .sde import EvaluationRule, Interpretation, SdeModel, from_ito, to_ito
from .solvers import (McConfig, NumericError, Reflect, STOP_ON_VIOLATION, SolverScheme,
                      simulate_ensemble)

__all__ = ["main", "ConfigError", "NumericError"]


class ConfigError(ValueError):
    """Invalid configuration: exit code 2, like every ``ValueError``."""


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _block(parent: dict, key: str, allowed: set[str], where: str) -> dict:
    """The object ``parent[key]`` (``{}`` when absent), keys checked."""
    block = parent.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object, got {block!r}")
    _check_keys(block, allowed, where)
    return block


def _num(value, name: str, kind=float):
    """``kind(value)``; a value that is not a number names its key."""
    if not isinstance(value, (bool, str)):  # bool is an int, and float() parses strings
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


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


def _grid(block: dict, where: str, model: SdeModel) -> tuple[tuple[float, float], int]:
    """The ``interval`` and ``n_cells`` of a finite-volume grid block; the
    interval must lie in the model's closed domain."""
    interval = _interval(block.get("interval", [-3.0, 3.0]), f"{where}.interval")
    lo, hi = model.domain
    if not (lo <= interval[0] and interval[1] <= hi):
        raise ConfigError(f"{where}.interval {list(interval)} leaves the model's "
                          f"domain [{lo}, {hi}]")
    n_cells = _num(block.get("n_cells", 256), f"{where}.n_cells", int)
    if n_cells < 2:
        raise ConfigError(f"{where}.n_cells must be >= 2")
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
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, {"model", "run", "outputs", "integrate", "convert",
                      "stationary", "fpe", "experiment"}, "config root")
    return cfg


def _parse_expr(src: str, what: str) -> xp.Expr:
    try:
        return xp.parse(_text(src, what))
    except xp.ExprSyntaxError as exc:
        raise ConfigError(f"cannot parse {what}: {exc}") from None


_RUN_KEYS = {"n_paths", "dt", "horizon", "seed", "boundary", "scheme", "record",
             "record_stride"}


def _seed_from(cfg: dict, override: int | None) -> SeedSpec:
    run = _block(cfg, "run", _RUN_KEYS, "run")
    if isinstance(run.get("seed"), int):
        raw = {"master": run["seed"]}
    else:
        raw = _block(run, "seed", {"master", "stream"}, "run.seed")
    master = raw.get("master", 0) if override is None else override
    return SeedSpec(_num(master, "run.seed.master", int),
                    _num(raw.get("stream", 0), "run.seed.stream", int))


def _build_custom_model(block: dict) -> tuple[SdeModel, xp.Expr, xp.Expr]:
    f_expr = _parse_expr(_get(block, "f", required=True), "model.custom.f")
    g_expr = _parse_expr(_get(block, "g", required=True), "model.custom.g")
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
    model = SdeModel(
        f=xp.vector_fn(f_expr), g=xp.vector_fn(g_expr), dgdx=dg,
        interpretation=interp, x0=x0, domain=(lo, hi), label="custom",
    )
    return model, f_expr, g_expr


def _family_params(family: str, model: dict):
    if family == "relativistic":
        params = _block(model, "params", {"M", "p0"}, "model.params")
        return RelativisticParams(M=_num(params.get("M", 1.0), "model.params.M"),
                                  p0=_num(params.get("p0", 0.0), "model.params.p0"))
    params = _block(model, "params", {"m", "gamma", "sigma", "v0", "u0"}, "model.params")
    u0 = params.get("u0")
    p = LangevinParams(
        m=_num(params.get("m", 1.0), "model.params.m"),
        gamma=_num(params.get("gamma", 1.0), "model.params.gamma"),
        sigma=_num(params.get("sigma", 1.0), "model.params.sigma"),
        v0=_num(params.get("v0", 1.0), "model.params.v0"),
        u0=None if u0 is None else _num(u0, "model.params.u0"),
    )
    if family == "langevin2" and p.u0 is None:
        p = LangevinParams(m=p.m, gamma=p.gamma, sigma=p.sigma, v0=p.v0, u0=p.v0)
    return p


def _build_model(cfg: dict):
    block = cfg.get("model")
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'model' object")
    if "custom" in block:
        _check_keys(block, {"custom"}, "model")
        return _build_custom_model(_block(
            block, "custom", {"f", "g", "interpretation", "domain", "x0"}, "model.custom"))
    _check_keys(block, {"family", "interpretation", "params"}, "model")
    family = _get(block, "family", required=True)
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    interp = Interpretation.from_name(
        _text(_get(block, "interpretation", "ito"), "model.interpretation"))
    trio = family_models(family, _family_params(family, block))
    return trio.member(interp), None, None


def _mc_config(cfg: dict, args) -> McConfig:
    run = _block(cfg, "run", _RUN_KEYS, "run")
    boundary = run.get("boundary")
    if isinstance(boundary, dict):
        boundary = _reflect_from(boundary)
    elif boundary in ("stop", STOP_ON_VIOLATION):
        boundary = STOP_ON_VIOLATION
    elif boundary not in (None, "none"):
        raise ConfigError(f"unknown boundary {boundary!r}")
    elif boundary == "none":
        boundary = None
    return McConfig(
        n_paths=_num(run.get("n_paths", 100) if args.paths is None else args.paths,
                     "run.n_paths", int),
        dt=_num(run.get("dt", 1e-3) if args.dt is None else args.dt, "run.dt"),
        horizon=_num(run.get("horizon", 1.0), "run.horizon"),
        seed=_seed_from(cfg, args.seed),
        boundary=boundary,
        record=run.get("record", "path"),
        record_stride=_num(run.get("record_stride", 1), "run.record_stride", int),
    )


def _reflect_from(block: dict) -> Reflect:
    _check_keys(block, {"reflect"}, "run.boundary")
    try:
        lo, hi = block["reflect"]
        return Reflect(_num(lo, "run.boundary.reflect[0]"),
                       math.inf if hi is None else _num(hi, "run.boundary.reflect[1]"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("run.boundary.reflect must be [lo, hi] with lo < hi "
                          f"(hi null for no upper wall): {exc}") from None


def _scheme_from(cfg: dict) -> SolverScheme:
    name = _block(cfg, "run", _RUN_KEYS, "run").get("scheme", "euler_maruyama_ito_form")
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
    outputs = _block(cfg, "outputs", {"dir"}, "outputs")
    out = Path(args.out or _text(outputs.get("dir", "."), "outputs.dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _hk_form(model: SdeModel) -> SdeModel:
    """The HK-form coefficients of the model's law (identity for HK tags)."""
    if model.interpretation is Interpretation.HAENGGI_KLIMONTOVICH:
        return model
    return from_ito(to_ito(model), Interpretation.HAENGGI_KLIMONTOVICH)


# --- commands ---------------------------------------------------------------


def _cmd_integrate(cfg: dict, args) -> str:
    block = _block(cfg, "integrate", {"phi", "rules", "t0", "t1", "base_steps", "levels"},
                   "integrate")
    phi_expr = _parse_expr(block.get("phi", "x"), "integrate.phi")
    phi = xp.vector_fn(phi_expr)
    rules = block.get("rules", ["left", "midpoint", "right"])
    if not isinstance(rules, list):
        raise ConfigError(f"integrate.rules must be a list of rule names, got {rules!r}")
    rules = [EvaluationRule.from_name(_text(r, "integrate.rules")) for r in rules]
    t0 = _num(block.get("t0", 0.0), "integrate.t0")
    t1 = _num(block.get("t1", 1.0), "integrate.t1")
    base = _num(block.get("base_steps", 1024), "integrate.base_steps", int)
    levels = _num(block.get("levels", 6), "integrate.levels", int)
    if base < 2 or base % 2:
        raise ConfigError("integrate.base_steps must be even and >= 2")
    if levels < 0:
        raise ConfigError("integrate.levels must be >= 0")
    seed = _seed_from(cfg, args.seed)
    out = _out_dir(cfg, args)

    path = generate_brownian(TimeGrid.uniform(t0, t1, base), seed)
    diverged = False
    for rule in rules:
        table = convergence_table(lambda x: phi(x, 0.0), path, levels,
                                  seed.shifted(1), rule)
        buf = io.StringIO()
        table.write_csv(buf)
        _write_text(out / f"convergence_{rule.value}.csv", buf.getvalue())
        diverged = diverged or table.diverged
    if diverged:
        raise NumericError("divergent sums in at least one convergence table")
    return f"integrate: wrote {len(rules)} table(s) to {out}"


def _cmd_convert(cfg: dict, args) -> str:
    model, f_expr, g_expr = _build_model(cfg)
    if f_expr is None:
        raise ConfigError("convert requires a custom model")
    xs = _block(cfg, "convert", {"xs"}, "convert").get("xs", [-2.0, 2.0, 101])
    if not (isinstance(xs, list) and len(xs) == 3):
        raise ConfigError(f"convert.xs must be [lo, hi, n], got {xs!r}")
    (lo, hi), n = _interval(xs[:2], "convert.xs[0:2]"), _num(xs[2], "convert.xs[2]", int)
    if n < 1:
        raise ConfigError("convert.xs must be [lo, hi, n] with lo < hi and n >= 1")
    xs = np.linspace(lo, hi, n)
    out = _out_dir(cfg, args)

    if model.dgdx is None:
        print("warning: symbolic derivative unavailable; using finite differences",
              file=sys.stderr)
    ito = to_ito(model)
    f_orig = np.asarray(model.f(xs, 0.0), dtype=float)
    f_ito = np.asarray(ito.f(xs, 0.0), dtype=float)
    rows = ["x,f_original,f_ito\n"]
    for x, a, b in zip(xs, f_orig, f_ito):
        rows.append(f"{float(x)!r},{float(a)!r},{float(b)!r}\n")
    _write_text(out / "converted_drift.csv", "".join(rows))
    return f"convert: wrote converted_drift.csv to {out}"


def _cmd_simulate(cfg: dict, args) -> str:
    model, _, _ = _build_model(cfg)
    mc = _mc_config(cfg, args)
    if mc.n_paths > 1:  # histories and events only shape path.csv, written for one path
        mc = replace(mc, record="terminal")
    scheme = _scheme_from(cfg)
    out = _out_dir(cfg, args)
    result = simulate_ensemble(model, scheme, mc)
    summary = result.summary
    if not (math.isfinite(summary.terminal_mean) or summary.n_completed == 0):
        raise NumericError("non-finite ensemble statistics")
    _write_json(out / "summary.json", summary.to_json_dict())
    edges, dens = summary.histogram
    rows = ["bin_left,bin_right,density\n"]
    for i in range(dens.size):
        rows.append(f"{float(edges[i])!r},{float(edges[i + 1])!r},{float(dens[i])!r}\n")
    _write_text(out / "histogram.csv", "".join(rows))
    wrote = 2
    if result.results is not None:
        buf = io.StringIO()
        result.results[0].path.write_csv(buf)
        _write_text(out / "path.csv", buf.getvalue())
        wrote += 1
    return f"simulate: wrote {wrote} file(s) to {out}"


def _cmd_stationary(cfg: dict, args) -> str:
    model, _, _ = _build_model(cfg)
    interval, n_cells = _grid(_block(cfg, "stationary", {"interval", "n_cells"},
                                     "stationary"), "stationary", model)
    out = _out_dir(cfg, args)
    hk = _hk_form(model)
    dens = stationary_density(hk.f, hk.g, interval, n_cells)
    buf = io.StringIO()
    dens.write_csv(buf)
    _write_text(out / "density.csv", buf.getvalue())
    return f"stationary: wrote density.csv to {out}"


def _cmd_fpe(cfg: dict, args) -> str:
    model, _, _ = _build_model(cfg)
    block = _block(cfg, "fpe", {"interval", "n_cells", "horizon", "initial",
                                "snapshot_every"}, "fpe")
    (a, b), n_cells = _grid(block, "fpe", model)
    horizon = _num(block.get("horizon", 10.0), "fpe.horizon")
    snap = _num(block.get("snapshot_every", 0.1), "fpe.snapshot_every")
    init = _block(block, "initial", {"kind", "x0", "center", "width"}, "fpe.initial")
    kind = init.get("kind", "point")
    if kind == "point":
        initial = GridDensity.point_mass(a, b, n_cells,
                                         _num(init.get("x0", model.x0), "fpe.initial.x0"))
    elif kind == "gaussian":
        c = _num(init.get("center", 0.0), "fpe.initial.center")
        w = _num(init.get("width", 0.5), "fpe.initial.width")
        if not 0 < w < math.inf:
            raise ConfigError(f"fpe.initial.width must be positive and finite, got {w}")
        initial = GridDensity.from_function(
            lambda x: np.exp(-0.5 * ((x - c) / w) ** 2), a, b, n_cells)
    elif kind == "uniform":
        initial = GridDensity.uniform(a, b, n_cells)
    else:
        raise ConfigError(f"unknown initial kind {kind!r}")

    hk = _hk_form(model)
    problem = FpeProblem(f=hk.f, g=hk.g, interval=(a, b), initial=initial, dgdx=hk.dgdx)
    result = propagate_fpe(problem, horizon, snap)

    out = _out_dir(cfg, args)
    buf = io.StringIO()
    result.final.write_csv(buf)
    _write_text(out / "density.csv", buf.getvalue())
    target = stationary_density(hk.f, hk.g, (a, b), n_cells)
    rows = ["t,H\n"]
    for t, snap_d in zip(result.times, result.snapshots):
        rows.append(f"{float(t)!r},{float(relative_entropy(snap_d, target))!r}\n")
    _write_text(out / "entropy.csv", "".join(rows))
    return f"fpe: wrote 2 file(s) to {out}"


def _cmd_experiment(cfg: dict, args) -> str:
    family = args.name
    if family not in FAMILIES:
        raise ConfigError(f"unknown experiment {family!r}; expected one of {FAMILIES}")
    if "model" in cfg:  # the family and its studies' parameters are fixed
        raise ConfigError("experiment takes no model block; the family is its argument")
    block = _block(cfg, "experiment", {"dt", "n_seeds", "horizon", "hitting"}, "experiment")
    dt = _num(block.get("dt", 1e-3), "experiment.dt")
    n_seeds = _num(block.get("n_seeds", 1000), "experiment.n_seeds", int)
    horizon = _num(block.get("horizon", 1.0), "experiment.horizon")
    hit = _block(block, "hitting", {"band", "n_paths", "dt", "horizon"}, "experiment.hitting")
    band = _num(hit.get("band", 1e-4), "experiment.hitting.band")
    seed = _seed_from(cfg, args.seed)
    out = _out_dir(cfg, args)

    # rest start: boundary initial data (null velocities / null momentum)
    if family == "relativistic":
        rest_params = RelativisticParams(p0=0.0)
        run_params = RelativisticParams(p0=1.0)
        level = rest_params.M
    else:
        rest_params = LangevinParams(v0=0.0, u0=0.0 if family == "langevin2" else None)
        v = math.sqrt(0.5) if family == "langevin2" else 1.0
        run_params = LangevinParams(v0=v, u0=v if family == "langevin2" else None)
        level = 0.0

    rest_trio = family_models(family, rest_params)
    run_trio = family_models(family, run_params)
    hit_cfg = McConfig(
        n_paths=_num(hit.get("n_paths", 1000) if args.paths is None else args.paths,
                     "experiment.hitting.n_paths", int),
        dt=_num(hit.get("dt", 1e-3), "experiment.hitting.dt"),
        horizon=_num(hit.get("horizon", 5.0), "experiment.hitting.horizon"),
        seed=seed,
        record="terminal",
    )
    report = rest_start_diagnostics(rest_trio, dt, n_seeds, seed=seed, horizon=horizon)
    hitting = boundary_hitting_study(run_trio, level, band, hit_cfg)

    members = []
    for diag in report.members:
        entry = diag.to_json_dict()
        entry["model_family"] = family
        entry["hitting"] = hitting[diag.interpretation].to_json_dict()
        members.append(entry)
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
