import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisecalc
from noisecalc.cli import main


def _write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _read_table(path: Path) -> np.ndarray:
    rows = [ln for ln in path.read_text().splitlines()[1:] if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in rows])


def test_integrate_writes_three_tables_with_qv_gap(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "run": {"seed": {"master": 99, "stream": 0}},
        "integrate": {"phi": "x", "base_steps": 256, "levels": 3},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["integrate", "--config", cfg]) == 0
    out = tmp_path / "out"
    tables = {}
    for rule in ("left", "midpoint", "right"):
        f = out / f"convergence_{rule}.csv"
        assert f.exists()
        tables[rule] = _read_table(f)
    gap = tables["right"][-1, 1] - tables["left"][-1, 1]
    assert gap == pytest.approx(1.0, abs=0.15)  # realized QV of W on [0,1]
    assert capsys.readouterr().out.count("\n") == 1


def test_integrate_constant_integrand_rules_agree(tmp_path):
    cfg = _write_config(tmp_path, {
        "run": {"seed": {"master": 5}},
        "integrate": {"phi": "1", "base_steps": 128, "levels": 2},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["integrate", "--config", cfg]) == 0
    vals = [_read_table(tmp_path / "out" / f"convergence_{r}.csv")[:, 1]
            for r in ("left", "midpoint", "right")]
    assert np.allclose(vals[0], vals[1], rtol=1e-12)
    assert np.allclose(vals[0], vals[2], rtol=1e-12)


def test_integrate_malformed_expression_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "integrate": {"phi": "x +* 3"},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["integrate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "position" in err


def test_convert_kinetic_model_column_gap(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "-0.5 - 2*x", "g": "sqrt(2*x)",
                             "interpretation": "hk", "domain": [0, None],
                             "x0": 0.5}},
        "convert": {"xs": [0.1, 4.0, 40]},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["convert", "--config", cfg]) == 0
    table = _read_table(tmp_path / "out" / "converted_drift.csv")
    # g g' = sigma^2 / m = 1 for the kinetic diffusion
    assert np.allclose(table[:, 2] - table[:, 1], 1.0, atol=1e-9)


def test_convert_constant_diffusion_identical_columns(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "x - x^3", "g": "2", "interpretation": "hk",
                             "domain": [None, None], "x0": 0.0}},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["convert", "--config", cfg]) == 0
    table = _read_table(tmp_path / "out" / "converted_drift.csv")
    assert np.array_equal(table[:, 1], table[:, 2])


def test_convert_empty_sample_exits_2(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "x", "g": "1", "interpretation": "ito",
                             "domain": [None, None], "x0": 0.0}},
        "convert": {"xs": [2.0, 1.0, 10]},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["convert", "--config", cfg]) == 2


def test_simulate_summary_schema_and_reproducibility(tmp_path):
    payload = {
        "model": {"family": "langevin1", "interpretation": "ito",
                  "params": {"v0": 1.0}},
        "run": {"n_paths": 40, "dt": 1e-2, "horizon": 1.0,
                "seed": {"master": 7, "stream": 0},
                "boundary": {"reflect": [0.0, None]}, "record": "terminal"},
        "outputs": {"dir": str(tmp_path / "a")},
    }
    cfg = _write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert set(summary) >= {"n_paths", "dt", "horizon", "scheme",
                            "interpretation", "terminal_mean", "terminal_var",
                            "events"}
    assert set(summary["events"]) == {"violations", "reflections"}
    hist = (tmp_path / "a" / "histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,density"

    payload["outputs"]["dir"] = str(tmp_path / "b")
    cfg2 = _write_config(tmp_path, payload, "config2.json")
    assert main(["simulate", "--config", cfg2]) == 0
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()
    assert (tmp_path / "a" / "histogram.csv").read_bytes() == \
        (tmp_path / "b" / "histogram.csv").read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    payload = {
        "model": {"custom": {"f": "-x", "g": "1", "interpretation": "ito",
                             "domain": [None, None], "x0": 0.0}},
        "run": {"n_paths": 10, "dt": 1e-2, "horizon": 0.5,
                "seed": {"master": 1}, "record": "terminal"},
        "outputs": {"dir": str(tmp_path / "a")},
    }
    cfg = _write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg]) == 0
    base = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert main(["simulate", "--config", cfg, "--seed", "2",
                 "--out", str(tmp_path / "b")]) == 0
    other = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert base["terminal_mean"] != other["terminal_mean"]


def test_single_path_dump(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "-x", "g": "1", "interpretation": "ito",
                             "domain": [None, None], "x0": 0.0}},
        "run": {"n_paths": 1, "dt": 0.1, "horizon": 1.0, "seed": {"master": 3}},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 12


@pytest.mark.parametrize("n_paths, record", [(1, "path"), (5, "terminal")])
def test_simulate_records_histories_only_for_path_csv(tmp_path, monkeypatch, n_paths, record):
    import noisecalc.cli as cli

    seen = []
    run = cli.simulate_ensemble

    def spy(model, scheme, mc, boundary, record, record_stride):
        seen.append(record)
        return run(model, scheme, mc, boundary, record, record_stride)

    monkeypatch.setattr(cli, "simulate_ensemble", spy)
    payload = {
        "model": {"family": "langevin1", "params": {"v0": 1.0}},
        "run": {"n_paths": n_paths, "dt": 0.1, "horizon": 1.0, "seed": {"master": 3},
                "boundary": {"reflect": [0.0, None]}, "record": "path", "record_stride": 2},
    }
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = _write_config(tmp_path, payload, f"{name}.json")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        payload["run"]["record"] = "terminal"
    assert seen == [record, "terminal"]
    # the recording mode changes no byte of the ensemble outputs
    assert {k: v for k, v in outs[0].items() if k != "path.csv"} == outs[1]
    assert ("path.csv" in outs[0]) == (n_paths == 1)


def test_stationary_uniform(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "0", "g": "1", "interpretation": "hk",
                             "domain": [None, None], "x0": 0.5}},
        "stationary": {"interval": [0.0, 1.0], "n_cells": 32},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["stationary", "--config", cfg]) == 0
    table = _read_table(tmp_path / "out" / "density.csv")
    assert np.allclose(table[:, 1], 1.0, atol=1e-12)


def test_fpe_entropy_trace_monotone(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "-x", "g": "sqrt(2)", "interpretation": "ito",
                             "domain": [None, None], "x0": 1.0}},
        "fpe": {"interval": [-3.0, 3.0], "n_cells": 64, "horizon": 2.0,
                "initial": {"kind": "gaussian", "center": 1.0, "width": 0.5},
                "snapshot_every": 0.1},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["fpe", "--config", cfg]) == 0
    trace = _read_table(tmp_path / "out" / "entropy.csv")
    assert np.all(np.diff(trace[:, 1]) <= 1e-10)
    assert trace[-1, 1] < trace[0, 1]


def test_fpe_keeps_its_horizon(tmp_path):
    # 16 cells on [-3, 3]: the default dt 0.9 x 0.05625 = 0.050625 does not
    # divide 0.2, which used to end the march at 0.2025
    cfg = _write_config(tmp_path, {
        "model": _OU,
        "fpe": {"interval": [-3.0, 3.0], "n_cells": 16, "horizon": 0.2,
                "initial": {"kind": "gaussian", "center": 0.5, "width": 0.5},
                "snapshot_every": 0.01},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["fpe", "--config", cfg]) == 0
    t = _read_table(tmp_path / "out" / "entropy.csv")[:, 0]
    assert t[-1] == 0.2
    assert np.diff(t).max() <= 0.9 * 0.05625


def test_fpe_runs_a_stiff_potential(tmp_path):
    # g = 0.1: the potential spans ~890 on [-3, 3]; the explicit march at
    # the diffusive bound alone blew up here and exited 2
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "-x", "g": "0.1", "interpretation": "ito",
                             "domain": [None, None], "x0": 1.0}},
        "fpe": {"interval": [-3.0, 3.0], "n_cells": 64, "horizon": 1.0},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["fpe", "--config", cfg]) == 0
    density = _read_table(tmp_path / "out" / "density.csv")[:, 1]
    assert density.min() >= 0.0
    assert abs(density.sum() * 6.0 / 64 - 1.0) < 1e-9


def test_fpe_entropy_trace_is_finite_on_a_stiff_potential(tmp_path):
    # g = 0.1 on 256 cells: the stationary density underflows to 0 on 24
    # tail cells, and the entropy against it used to be inf on every row
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "-x", "g": "0.1", "interpretation": "ito",
                             "domain": [None, None], "x0": 1.0}},
        "fpe": {"interval": [-3.0, 3.0], "n_cells": 256, "horizon": 2.0,
                "initial": {"kind": "gaussian", "center": 1.0, "width": 0.5},
                "snapshot_every": 0.1},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["fpe", "--config", cfg]) == 0
    trace = _read_table(tmp_path / "out" / "entropy.csv")[:, 1]
    assert trace.size == 21 and np.isfinite(trace).all()
    assert np.all(np.diff(trace) <= 0.0)


def test_experiment_langevin1_report(tmp_path):
    cfg = _write_config(tmp_path, {
        "experiment": {"n_seeds": 100, "dt": 1e-3,
                       "hitting": {"n_paths": 100, "dt": 1e-3, "horizon": 3.0}},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "langevin1", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "experiment_langevin1.json").read_text())
    assert report["model_family"] == "langevin1"
    members = {m["interpretation"]: m for m in report["members"]}
    assert members["ito"]["rest_start"]["interior_fraction"] == 1.0
    assert members["hk"]["rest_start"]["violation_fraction"] >= 0.99
    assert members["stratonovich"]["rest_start"]["stuck_fraction"] == 1.0
    for m in members.values():
        assert {"fraction", "mean_time", "ci95"} <= set(m["hitting"])


def test_experiment_unknown_family_exits_2(tmp_path):
    assert main(["experiment", "pendulum"]) == 2


def test_unknown_config_keys_rejected(tmp_path):
    cfg = _write_config(tmp_path, {"modle": {}})
    assert main(["stationary", "--config", cfg]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["integrate", "--config", str(tmp_path / "nope.json")]) == 2


def test_domain_violations_are_data_in_experiment_mode(tmp_path):
    # the HK member violates by construction; the command still exits 0
    cfg = _write_config(tmp_path, {
        "experiment": {"n_seeds": 50, "hitting": {"n_paths": 20, "horizon": 1.0}},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["experiment", "relativistic", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "experiment_relativistic.json").read_text())
    hk = [m for m in report["members"] if m["interpretation"] == "hk"][0]
    assert hk["rest_start"]["violation_fraction"] >= 0.99


@pytest.mark.parametrize("boundary", [
    {"reflect": [0]},
    {},
    {"reflect": [1.0, 0.0]},
    {"reflect": ["floor", None]},
    {"reflect": [None, 1.0]},
    {"reflect": [True, None]},
    {"reflect": ["0", None]},
])
def test_malformed_reflect_config_exits_2(tmp_path, capsys, boundary):
    cfg = _write_config(tmp_path, {
        "model": {"family": "langevin1", "interpretation": "ito"},
        "run": {"n_paths": 4, "dt": 1e-2, "horizon": 0.1, "boundary": boundary,
                "record": "terminal"},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err


def test_simulate_horizon_off_the_step_grid_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": {"family": "langevin1", "interpretation": "ito"},
        "run": {"n_paths": 4, "dt": 0.3, "horizon": 1.0, "record": "terminal"},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 2
    assert "whole number" in capsys.readouterr().err


def test_experiment_explicit_zero_paths_exits_2(tmp_path, capsys):
    assert main(["experiment", "langevin1", "--paths", "0",
                 "--out", str(tmp_path / "out")]) == 2
    assert "n_paths" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("outputs", "format"), ("experiment", "params"),
                                          ("model", "params")])
def test_removed_config_keys_exit_2(tmp_path, section, key):
    payload = {"outputs": {"dir": str(tmp_path / "out")}}
    payload.setdefault(section, {})[key] = {}
    cfg = _write_config(tmp_path, payload)
    assert main(["experiment", "langevin1", "--config", cfg]) == 2


@pytest.mark.parametrize("argv", [
    ["fpe", "--config", "cfg.json", "--dt", "0.1"],
    ["stationary", "--config", "cfg.json", "--paths", "5"],
    ["experiment", "langevin1", "--dt", "0.1"],
    ["simulate", "--config", "cfg.json", "--format", "json"],
])
def test_options_a_command_does_not_take_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_OU = {"custom": {"f": "-x", "g": "1", "interpretation": "ito",
                  "domain": [None, None], "x0": 0.0}}


@pytest.mark.parametrize("argv, payload", [
    pytest.param(["stationary"], {"model": _OU, "stationary": {"interval": [0]}},
                 id="stationary-interval-one-number"),
    pytest.param(["stationary"], {"model": _OU, "stationary": {"n_cells": "a"}},
                 id="stationary-n_cells-string"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"interval": [0]}},
                 id="fpe-interval-one-number"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"horizon": None}},
                 id="fpe-horizon-null"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"n_cells": 1}},
                 id="fpe-one-cell"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {
        "initial": {"kind": "gaussian", "width": "w"}}},
                 id="fpe-gaussian-width-string"),
    pytest.param(["fpe"], {"model": {"custom": {**_OU["custom"], "x0": 5.0}},
                           "fpe": {"n_cells": 16, "horizon": 0.1}},
                 id="fpe-point-start-outside-interval"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"n_cells": 16, "horizon": 0.1,
                                                 "snapshot_every": -1}},
                 id="fpe-negative-snapshot-interval"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"n_cells": 16, "horizon": 0.1,
                                                 "snapshot_every": 0}},
                 id="fpe-zero-snapshot-interval"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"n_cells": 16, "horizon": 0.1,
                                                 "dt": 0.01}},
                 id="fpe-dt-is-an-unknown-key"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"n_cells": 16, "horizon": 1.0,
                                                 "snapshot_every": 1e-6}},
                 id="fpe-too-many-snapshots"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {
        "n_cells": 16, "horizon": 0.1,
        "initial": {"kind": "gaussian", "center": 0.1875, "width": 0}}},
                 id="fpe-gaussian-zero-width-on-a-cell-center"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {
        "n_cells": 16, "horizon": 0.1, "initial": {"kind": "gaussian", "width": -0.5}}},
                 id="fpe-gaussian-negative-width"),
    pytest.param(["experiment", "langevin1"], {"experiment": {"dt": "abc"}},
                 id="experiment-dt-string"),
    pytest.param(["experiment", "langevin1"], {"experiment": {"hitting": [1]}},
                 id="experiment-hitting-list"),
    pytest.param(["integrate"], {"integrate": {"rules": ["up"]}},
                 id="integrate-unknown-rule"),
    pytest.param(["integrate"], {"integrate": {"t0": 1, "t1": 0}},
                 id="integrate-reversed-interval"),
    pytest.param(["integrate"], {"integrate": {"rules": [], "base_steps": 8, "levels": 1}},
                 id="integrate-no-rules"),
    pytest.param(["integrate"], {"integrate": {"rules": ["left", "LEFT"], "base_steps": 8,
                                               "levels": 1}},
                 id="integrate-repeated-rule"),
    pytest.param(["integrate", "--seed", "-1"], {"integrate": {"base_steps": 8, "levels": 1}},
                 id="integrate-negative-seed"),
    pytest.param(["integrate"], {"run": {"bogus": 1}},
                 id="integrate-unknown-run-key"),
    pytest.param(["convert"], {"model": _OU, "convert": {"xs": [1, 2]}},
                 id="convert-xs-two-numbers"),
    pytest.param(["convert"], {"model": {"custom": {**_OU["custom"], "x0": "a"}}},
                 id="convert-x0-string"),
    pytest.param(["convert"], {"model": {"custom": 5}},
                 id="convert-custom-number"),
    pytest.param(["simulate"], {"model": _OU, "run": 5},
                 id="simulate-run-number"),
    pytest.param(["simulate"], {"model": _OU, "run": {"n_paths": [1]}},
                 id="simulate-n_paths-list"),
    pytest.param(["simulate"], {"model": {"family": "langevin1", "interpretation": "foo"}},
                 id="simulate-unknown-interpretation"),
    pytest.param(["simulate"], {"model": {"family": "relativistic", "params": {"M": 0}}},
                 id="simulate-relativistic-zero-mass"),
    pytest.param(["stationary"], {"model": _OU, "stationary": {"n_cells": 10.5}},
                 id="stationary-fractional-n_cells"),
    pytest.param(["convert"], {"model": _OU, "convert": {"xs": [-2.0, 2.0, 2.5]}},
                 id="convert-fractional-count"),
    pytest.param(["simulate"], {"model": {"family": "langevin1",
                                          "params": {"v0": math.inf}}},
                 id="simulate-infinite-v0"),
    pytest.param(["stationary"], {"model": _OU, "stationary": {"interval": [-math.inf, 1.0]}},
                 id="stationary-infinite-interval"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {
        "n_cells": 16, "horizon": 0.1, "initial": {"kind": "gaussian", "center": math.nan}}},
                 id="fpe-gaussian-nan-center"),
    pytest.param(["convert"], {"model": {"custom": {
        "f": "-x", "g": "sqrt(x)", "interpretation": "stratonovich", "domain": [0.0, None],
        "x0": 1.0}}, "convert": {"xs": [-2.0, 2.0, 5]}},
                 id="convert-xs-outside-the-domain"),
    pytest.param(["integrate"], {"model": {"family": "langevin1", "params": {"m": 5}},
                                 "integrate": {"base_steps": 8, "levels": 1}},
                 id="integrate-with-a-model-block"),
    pytest.param(["stationary"], {"model": _OU, "stationary": {"n_cells": 16},
                                  "run": {"bogus": 1}},
                 id="stationary-unknown-run-key"),
    pytest.param(["stationary"], {"model": _OU, "stationary": {"n_cells": 16}, "run": 5},
                 id="stationary-run-number"),
    pytest.param(["convert"], {"model": _OU, "convert": {"xs": [-1.0, 1.0, 3]},
                               "fpe": {"bogus": 1}},
                 id="convert-unknown-fpe-key"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {
        "n_cells": 16, "horizon": 0.1, "initial": {"kind": "uniform", "width": "a"}}},
                 id="fpe-uniform-width-string"),
    pytest.param(["simulate", "--paths", "3"], {"model": _OU, "run": {
        "n_paths": "a", "dt": 0.01, "horizon": 0.1}},
                 id="simulate-n_paths-string-under-paths-flag"),
    pytest.param(["simulate", "--dt", "0.01"], {"model": _OU, "run": {
        "n_paths": 3, "dt": "a", "horizon": 0.1}},
                 id="simulate-dt-string-under-dt-flag"),
    pytest.param(["experiment", "langevin1", "--paths", "5"], {"experiment": {
        "dt": 0.01, "n_seeds": 5, "horizon": 0.1,
        "hitting": {"n_paths": "a", "dt": 0.01, "horizon": 0.1}}},
                 id="experiment-hitting-n_paths-string-under-paths-flag"),
    pytest.param(["simulate"], {"model": {"custom": {**_OU["custom"], "x0": 5.0}}, "run": {
        "n_paths": 3, "dt": 0.01, "horizon": 0.1, "boundary": {"reflect": [0.0, 1.0]}}},
                 id="simulate-start-outside-the-reflection-interval"),
    pytest.param(["integrate", "--seed", "30064771077"], {"integrate": {
        "base_steps": 8, "levels": 1}},
                 id="integrate-seed-of-more-than-32-bits"),
    pytest.param(["simulate"], {"model": _OU, "run": {
        "n_paths": 3, "dt": 0.01, "horizon": 0.1, "seed": {"master": 30064771077}}},
                 id="simulate-master-of-more-than-32-bits"),
    pytest.param(["integrate"], {"integrate": {"phi": "t", "base_steps": 8, "levels": 1}},
                 id="integrate-phi-reads-t"),
    pytest.param(["stationary"], {"model": {"custom": {**_OU["custom"], "f": "-x + 5*t"}},
                                  "stationary": {"n_cells": 16}},
                 id="stationary-f-reads-t"),
    pytest.param(["fpe"], {"model": {"custom": {**_OU["custom"], "g": "1 + 0.1*sin(t)"}},
                           "fpe": {"n_cells": 16, "horizon": 0.1, "snapshot_every": 0.1}},
                 id="fpe-g-reads-t"),
    pytest.param(["simulate"], {"model": {"family": "langevin1", "params": {"v0": 1, "u0": 5}},
                                "run": {"n_paths": 1, "dt": 0.01, "horizon": 0.1}},
                 id="langevin1-u0"),
    pytest.param(["simulate"], {"model": _OU, "run": {
        "n_paths": 5, "dt": 0.01, "horizon": 0.1, "record": "bogus"}},
                 id="simulate-unknown-record-mode-of-five-paths"),
    pytest.param(["simulate"], {"model": _OU, "run": {
        "n_paths": 5, "dt": 0.01, "horizon": 0.1, "record_stride": 0}},
                 id="simulate-zero-record-stride-of-five-paths"),
    pytest.param(["simulate"], {"model": {"custom": {**_OU["custom"],
                                                     "f": "+".join(["x"] * 1200)}}},
                 id="simulate-f-sum-of-1200-terms"),
    pytest.param(["simulate"], {"model": {"custom": {**_OU["custom"],
                                                     "f": "(" * 250 + "x" + ")" * 250}}},
                 id="simulate-f-in-250-parentheses"),
    pytest.param(["stationary"], {"model": {"custom": {**_OU["custom"],
                                                       "f": "-".join(["x"] * 400)}}},
                 id="stationary-f-difference-of-400-terms"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"n_cells": 4097, "horizon": 0.1}},
                 id="fpe-one-cell-above-the-cap"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"n_cells": 256, "horizon": 1.0,
                                                 "snapshot_every": 2.0**-16}},
                 id="fpe-256-cells-x-65537-snapshots"),
    pytest.param(["integrate"], {"integrate": {"base_steps": 8, "levels": 20}},
                 id="integrate-2^23-steps"),
    pytest.param(["simulate"], {"model": _OU, "run": {"n_paths": 3, "dt": 1e-3,
                                                      "horizon": 1e9}},
                 id="simulate-10^12-steps"),
    pytest.param(["simulate"], {"model": _OU, "run": {"n_paths": 1e11, "dt": 0.01,
                                                      "horizon": 0.1}},
                 id="simulate-10^11-paths"),
    pytest.param(["integrate"], {"integrate": {"base_steps": 8, "levels": 1000000}},
                 id="integrate-a-million-levels"),
    # counts past the caps exit 2 before any array of their length is built
    pytest.param(["fpe"], {"model": _OU, "fpe": {"n_cells": 2**40, "horizon": 0.1}},
                 id="fpe-2^40-cells"),
    pytest.param(["stationary"], {"model": _OU, "stationary": {"n_cells": 2**40}},
                 id="stationary-2^40-cells"),
    pytest.param(["stationary"], {"model": _OU, "stationary": {"n_cells": 2**20 + 1}},
                 id="stationary-one-cell-above-the-cap"),
    pytest.param(["convert"], {"model": _OU, "convert": {"xs": [-1.0, 1.0, 2**40]}},
                 id="convert-2^40-points"),
    pytest.param(["convert"], {"model": _OU, "convert": {"xs": [-1.0, 1.0, 2**20 + 1]}},
                 id="convert-one-point-above-the-cap"),
    pytest.param(["simulate"], {}, id="simulate-no-model"),
    pytest.param(["simulate"], {"model": {"family": "langevin3"}},
                 id="simulate-unknown-family"),
    pytest.param(["simulate"], {"model": _OU, "run": {"boundary": "absorb"}},
                 id="simulate-unknown-boundary-name"),
    pytest.param(["simulate"], {"model": _OU, "run": {
        "n_paths": 3, "dt": 0.01, "horizon": 0.1, "scheme": "implicit"}},
                 id="simulate-unknown-scheme"),
    pytest.param(["simulate"], {"model": {"custom": {**_OU["custom"],
                                                     "domain": [None, None, None]}}},
                 id="simulate-three-item-domain"),
    pytest.param(["simulate"], {"model": {"custom": {**_OU["custom"], "interpretation": 3}}},
                 id="simulate-interpretation-number"),
    pytest.param(["simulate"], {"model": {"custom": {
        key: value for key, value in _OU["custom"].items() if key != "x0"}}},
                 id="simulate-no-x0"),
    pytest.param(["integrate"], {"integrate": {"rules": "left"}},
                 id="integrate-rules-string"),
    pytest.param(["integrate"], {"integrate": {"base_steps": 9, "levels": 1}},
                 id="integrate-odd-base-steps"),
    pytest.param(["integrate"], {"integrate": {"base_steps": 8, "levels": -1}},
                 id="integrate-negative-levels"),
    pytest.param(["convert"], {"model": {"family": "langevin1"}},
                 id="convert-family-model"),
    pytest.param(["fpe"], {"model": _OU, "fpe": {"n_cells": 16, "horizon": 0.1,
                                                 "initial": {"kind": "delta"}}},
                 id="fpe-unknown-initial-kind"),
])
def test_malformed_config_exits_2_with_one_message(tmp_path, capsys, argv, payload):
    cfg = _write_config(tmp_path, {**payload, "outputs": {"dir": str(tmp_path / "out")}})
    assert main([*argv, "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err


def test_a_config_that_is_not_json_exits_2_with_one_message(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"model": ', encoding="utf-8")
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and "not valid JSON" in err


def _outputs(tmp_path, argv, payload, name):
    """The bytes of each file one run writes to ``tmp_path / name``."""
    cfg = _write_config(tmp_path, payload, f"{name}.json")
    out = tmp_path / name
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_a_whole_number_run_seed_is_the_master(tmp_path):
    def run(seed, name):
        return _outputs(tmp_path, ["simulate"], {"model": _OU, "run": {
            "n_paths": 5, "dt": 0.01, "horizon": 0.1, "seed": seed}}, name)

    assert run(7, "number") == run({"master": 7}, "object") != run(8, "other")


def test_langevin2_without_u0_takes_v0(tmp_path):
    def run(params, name):
        return _outputs(tmp_path, ["simulate"], {
            "model": {"family": "langevin2", "params": params},
            "run": {"n_paths": 5, "dt": 0.01, "horizon": 0.1}}, name)

    assert run({"v0": 0.6}, "no-u0") == run({"v0": 0.6, "u0": 0.6}, "u0") != \
        run({"v0": 0.6, "u0": 0.2}, "other")


def test_fpe_from_a_uniform_density_keeps_its_mass(tmp_path):
    cfg = _write_config(tmp_path, {
        "model": _OU, "fpe": {"interval": [-3.0, 3.0], "n_cells": 16, "horizon": 0.2,
                              "snapshot_every": 0.1, "initial": {"kind": "uniform"}},
        "outputs": {"dir": str(tmp_path / "out")}})
    assert main(["fpe", "--config", cfg]) == 0
    density = _read_table(tmp_path / "out" / "density.csv")[:, 1]
    assert abs(density.sum() * 6.0 / 16 - 1.0) < 1e-9


def test_convert_without_a_symbolic_derivative_warns_once(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "model": {"custom": {**_OU["custom"], "g": "abs(x) + 1",
                             "interpretation": "stratonovich"}},
        "convert": {"xs": [-1.0, 1.0, 5]}, "outputs": {"dir": str(tmp_path / "out")}})
    assert main(["convert", "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert err == "warning: symbolic derivative unavailable; using finite differences\n"
    assert (tmp_path / "out" / "converted_drift.csv").exists()


def test_convert_a_non_finite_drift_exits_3_with_one_message(tmp_path, capsys):
    # the symbolic g' of sqrt(2x) is infinite at 0, where g is 0
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "-2*x", "g": "sqrt(2*x)", "interpretation": "stratonovich",
                             "domain": [0, None], "x0": 1.0}},
        "convert": {"xs": [0, 1, 3]}, "outputs": {"dir": str(tmp_path / "out")}})
    assert main(["convert", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err == "numeric error: converted drift f_ito is not finite at x = 0.0\n"
    # as for a divergent integrate table, the table is written first
    assert np.isnan(_read_table(tmp_path / "out" / "converted_drift.csv")[0, 2])


@pytest.mark.parametrize("interpretation, offset", [("stratonovich", 0.5), ("hk", 1.0)])
@pytest.mark.parametrize("x", [5e-7, 1e-8])
def test_convert_by_finite_differences_at_a_square_root_edge(tmp_path, interpretation,
                                                             offset, x):
    # without a symbolic g', g g' = (g^2)'/2 = 1 is differenced from g^2 = 2x
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "-2*x", "g": "sqrt(2*abs(x))",
                             "interpretation": interpretation, "domain": [0, None],
                             "x0": 1.0}},
        "convert": {"xs": [0, x, 2]}, "outputs": {"dir": str(tmp_path / "out")}})
    assert main(["convert", "--config", cfg]) == 0
    table = _read_table(tmp_path / "out" / "converted_drift.csv")
    assert table[:, 2] == pytest.approx(offset - 2 * table[:, 0], abs=1e-9)


def test_a_fold_too_far_for_a_position_exits_3_with_one_message(tmp_path, capsys):
    # g dW is about 1e299: the fold into [0, 1] leaves no position
    cfg = _write_config(tmp_path, {
        "model": {"custom": {**_OU["custom"], "f": "0", "g": "1e300", "x0": 0.5}},
        "run": {"n_paths": 3, "dt": 0.01, "horizon": 0.02, "boundary": {"reflect": [0, 1]}},
        "outputs": {"dir": str(tmp_path / "out")}})
    assert main(["simulate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric error:")


@pytest.mark.parametrize("argv, payload, names", [
    (["fpe"], {"model": _OU, "fpe": {"initial": {"kind": "gaussian", "center": math.nan}}},
     "fpe.initial.center must be a finite number"),
    (["stationary"], {"model": _OU, "stationary": {"n_cells": 10.5}},
     "stationary.n_cells must be a whole number"),
    (["convert"], {"model": {"custom": {**_OU["custom"], "domain": [0.0, None], "x0": 1.0}},
                   "convert": {"xs": [-2.0, 2.0, 5]}},
     "convert.xs[0:2] [-2.0, 2.0] leaves the model's domain [0.0, inf]"),
], ids=["nan", "fraction", "convert-domain"])
def test_config_number_errors_name_their_key(tmp_path, capsys, argv, payload, names):
    cfg = _write_config(tmp_path, {**payload, "outputs": {"dir": str(tmp_path / "out")}})
    assert main([*argv, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and names in err


_SQRT_G = {"custom": {"f": "-x", "g": "sqrt(x)", "interpretation": "ito",
                      "domain": [None, None], "x0": 0.5}}


@pytest.mark.parametrize("command", ["stationary", "fpe"])
@pytest.mark.parametrize("model, names", [
    ({"family": "langevin1"}, "leaves the model's domain [0.0, inf]"),  # g = sqrt(2K) of K < 0
    (_SQRT_G, "g(-1.0) = nan"),  # the domain allows [-1, 2], but g is NaN there
], ids=["family-domain", "custom-nan-g"])
def test_grid_outside_the_model_or_g_exits_2_with_one_message(tmp_path, capsys, command,
                                                              model, names):
    cfg = _write_config(tmp_path, {
        "model": model, command: {"interval": [-1.0, 2.0], "n_cells": 32},
        "outputs": {"dir": str(tmp_path / "out")}})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and names in err


@pytest.mark.parametrize("g, tag, scheme, n_paths", [
    ("0.5 + abs(x)", "hk", "euler", 100),  # no symbolic dg/dx: g is differenced at NaN states
    ("1", "ito", "left", 100),  # the terminals are +inf
    ("0.5 + abs(x)", "hk", "euler", 1),  # one path is recorded: its values diverge
], ids=["nan-states", "inf-terminals", "one-path"])
def test_diverging_paths_exit_3_with_one_message(tmp_path, capsys, g, tag, scheme, n_paths):
    cfg = _write_config(tmp_path, {
        "model": {"custom": {"f": "x^3", "g": g, "interpretation": tag,
                             "domain": [None, None], "x0": 2.0}},
        "run": {"dt": 0.01, "horizon": 2.0, "scheme": scheme, "n_paths": n_paths},
        "outputs": {"dir": str(tmp_path / "out")},
    })
    assert main(["simulate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric error:")


def test_integrate_of_a_pole_exits_3_with_one_message(tmp_path, capsys):
    # phi = x/0 is +-inf, so every sum is NaN: no numpy warning reaches stderr
    cfg = _write_config(tmp_path, {"integrate": {"phi": "x/0", "base_steps": 8, "levels": 1},
                                   "outputs": {"dir": str(tmp_path / "out")}})
    assert main(["integrate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numeric error:")


_NUMPY_MA_PROBE = """
import json, sys
from noisecalc.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
print("numpy.ma" in sys.modules)
"""


def test_monte_carlo_commands_do_not_import_numpy_ma(tmp_path):
    probe = [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"]
    if subprocess.run(probe, capture_output=True, text=True, check=True).stdout.strip() == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    sim = _write_config(tmp_path, {"model": _OU, "run": {
        "n_paths": 200, "dt": 0.01, "horizon": 0.2, "boundary": "stop"}}, "simulate.json")
    exp = _write_config(tmp_path, {"experiment": {
        "n_seeds": 200, "dt": 1e-2, "horizon": 0.1,
        "hitting": {"n_paths": 100, "dt": 1e-2, "horizon": 0.2}}}, "experiment.json")
    runs = [["simulate", "--config", sim, "--out", str(tmp_path / "sim")],
            ["experiment", "langevin1", "--config", exp, "--out", str(tmp_path / "exp")]]
    src = str(Path(noisecalc.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv, payload", [
    (["integrate"], {"run": {"seed": {"master": 4}},
                     "integrate": {"phi": "x^2", "base_steps": 16, "levels": 2}}),
    (["convert"], {"model": _OU, "convert": {"xs": [-1.0, 1.0, 7]}}),
    (["stationary"], {"model": _OU, "stationary": {"interval": [-2.0, 2.0], "n_cells": 16}}),
    (["fpe"], {"model": _OU, "fpe": {"n_cells": 16, "horizon": 0.2,
                                     "snapshot_every": 0.1}}),
    (["experiment", "langevin1"], {"experiment": {
        "n_seeds": 20, "dt": 1e-2, "horizon": 0.1,
        "hitting": {"n_paths": 10, "dt": 1e-2, "horizon": 0.2}}}),
], ids=["integrate", "convert", "stationary", "fpe", "experiment"])
def test_every_command_is_byte_reproducible(tmp_path, argv, payload):
    cfg = _write_config(tmp_path, payload)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([*argv, "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] and runs[0] == runs[1]
