"""The benchmark tracer installs on today's module attributes and puts
them back: a rename in ``src/`` that breaks ``perfbench --trace 1`` fails here."""
import importlib.util
import json
from pathlib import Path

import noisecalc.cli as cli
import noisecalc.physics as physics

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_install_then_uninstall_restores_the_patched_attributes():
    watched = [(cli, "main"), (cli, "evolve_fpe"), (physics, "_run_engine"),
               (physics, "hitting_time")]
    before = [getattr(owner, attr) for owner, attr in watched]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not old
                   for (owner, attr), old in zip(watched, before))
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is old for (owner, attr), old in zip(watched, before))


_WELL = {"custom": {"f": "x - x^3", "g": "0.5 + 0.1*x^2", "interpretation": "hk",
                    "domain": [None, None], "x0": 0.1}}
_OU = {"custom": {"f": "-x", "g": "1", "interpretation": "ito", "domain": [None, None],
                  "x0": 0.0}}
# one small job per command; together they reach every span the tracer names
_JOBS = [
    (["simulate"], {"model": _WELL, "run": {"n_paths": 8, "dt": 0.01, "horizon": 0.1,
                                            "scheme": "euler"}}),
    (["experiment", "langevin1"], {"experiment": {
        "dt": 0.01, "n_seeds": 8, "horizon": 0.1,
        "hitting": {"n_paths": 8, "dt": 0.01, "horizon": 0.1}}}),
    (["fpe"], {"model": _OU, "fpe": {"n_cells": 16, "horizon": 0.2, "snapshot_every": 0.1}}),
    (["integrate"], {"integrate": {"base_steps": 8, "levels": 1}}),
    (["convert"], {"model": _WELL, "convert": {"xs": [-1.0, 1.0, 5]}}),
    (["stationary"], {"model": _OU, "stationary": {"n_cells": 16}}),
]


def test_every_traced_layer_records_a_span(tmp_path):
    """``fokker_planck.evolve`` aside (the CLI no longer calls ``evolve_fpe``),
    each span name has a source, so no per-layer metric reads an empty layer."""
    t = tracer.Tracer()
    t.install()
    try:
        t.current_job = 0
        for i, (argv, payload) in enumerate(_JOBS):
            cfg = tmp_path / f"config{i}.json"
            cfg.write_text(json.dumps(payload), encoding="utf-8")
            assert cli.main([*argv, "--config", str(cfg), "--seed", "1",
                             "--out", str(tmp_path / f"out{i}")]) == 0, argv
    finally:
        t.uninstall()
    recorded = {tracer.NAMES[code] for code in t.name}
    assert set(tracer.NAMES) - recorded <= {"fokker_planck.evolve"}


def test_integrate_refines_one_ladder_for_every_rule(tmp_path):
    """One table call per job, and one bridge refinement per level however
    many rules are summed; a ladder that bypasses ``integrals.refine_bridge``
    would record no ``paths.bridge`` span."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"integrate": {
        "base_steps": 8, "levels": 2, "rules": ["left", "midpoint", "right"]}}),
        encoding="utf-8")
    t = tracer.Tracer()
    t.install()
    try:
        t.current_job = 0
        assert cli.main(["integrate", "--config", str(cfg), "--seed", "1",
                         "--out", str(tmp_path / "out")]) == 0
    finally:
        t.uninstall()
    names = [tracer.NAMES[code] for code in t.name]
    assert names.count("paths.bridge") == 2
    assert names.count("integrals.table") == 1


def test_engine_spans_count_the_scheduled_path_steps(tmp_path):
    """An engine span's amount is ``n_paths x n_steps``, read from
    ``_run_engine``'s third and fourth positional arguments: 8 x 10 for the
    simulate job, and 3 members x (8 x 10 rest-start + 8 x 10 hitting) for
    the experiment job."""
    t = tracer.Tracer()
    t.install()
    try:
        for i, (argv, payload) in enumerate(_JOBS[:2]):
            t.current_job = i
            cfg = tmp_path / f"config{i}.json"
            cfg.write_text(json.dumps(payload), encoding="utf-8")
            assert cli.main([*argv, "--config", str(cfg), "--seed", "1",
                             "--out", str(tmp_path / f"out{i}")]) == 0, argv
    finally:
        t.uninstall()
    spans = t.arrays()
    steps = [tracer.layer_metrics(spans, {i})[0]["solvers.path_steps"] for i in range(2)]
    assert steps == [80, 480]
