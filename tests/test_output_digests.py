"""Every CLI output, byte for byte: one small job per command, each output
file compared with its SHA-256 recorded from an earlier build of the
writers.  Bytes are promised only within one numpy build (README,
"Reproducibility"), so under another numpy version the test skips."""
import hashlib
import json

import numpy as np
import pytest

from noisecalc.cli import main

_NUMPY = "2.4.6"  # the numpy version the digests were recorded under

_WELL = {"custom": {"f": "x - x^3", "g": "0.5 + 0.1*x^2", "interpretation": "hk",
                    "domain": [None, None], "x0": 0.1}}
_OU = {"custom": {"f": "-x", "g": "1", "interpretation": "ito", "domain": [None, None],
                  "x0": 0.0}}
_EXPERIMENT = {"experiment": {
    "dt": 0.01, "n_seeds": 8, "horizon": 0.1,
    "hitting": {"band": 0.05, "n_paths": 8, "dt": 0.01, "horizon": 2.0}}}

# id -> (argv, config, exit code)
_JOBS = {
    "simulate": (["simulate"], {"model": _WELL, "run": {
        "n_paths": 8, "dt": 0.01, "horizon": 0.1, "scheme": "euler"}}, 0),
    "simulate-one-path": (["simulate"], {"model": _WELL, "run": {
        "n_paths": 1, "dt": 0.01, "horizon": 0.1, "scheme": "right"}}, 0),
    "simulate-reflected": (["simulate"], {"model": {"custom": {**_OU["custom"], "x0": 0.5}},
                                          "run": {"n_paths": 8, "dt": 0.01, "horizon": 0.5,
                                                  "boundary": {"reflect": [0.0, 1.0]}}}, 0),
    "experiment": (["experiment", "langevin1"], _EXPERIMENT, 0),
    "experiment-langevin2": (["experiment", "langevin2"], _EXPERIMENT, 0),
    "experiment-relativistic": (["experiment", "relativistic"], _EXPERIMENT, 0),
    "fpe": (["fpe"], {"model": _OU, "fpe": {
        "n_cells": 16, "horizon": 0.2, "snapshot_every": 0.1}}, 0),
    "fpe-gaussian": (["fpe"], {"model": _WELL, "fpe": {
        "interval": [-2.0, 2.0], "n_cells": 32, "horizon": 0.2, "snapshot_every": 0.05,
        "initial": {"kind": "gaussian", "center": 0.5, "width": 0.3}}}, 0),
    "integrate": (["integrate"], {"integrate": {"base_steps": 8, "levels": 1}}, 0),
    "integrate-divergent": (["integrate"], {"integrate": {
        "phi": "1/x", "base_steps": 8, "levels": 1}}, 3),
    "convert": (["convert"], {"model": _WELL, "convert": {"xs": [-1.0, 1.0, 5]}}, 0),
    "stationary": (["stationary"], {"model": _OU, "stationary": {"n_cells": 16}}, 0),
}

_DIGESTS = {
    "simulate": {
        "histogram.csv":
            "f617835fe4203a8213b500157da0e225d0f77f0d01f4ea70a283225b12baae67",
        "summary.json":
            "da0e4c7c6f2321ca842978e9d0d8df6f9491ee9c60d215f2e763aae43e4048a7",
    },
    "simulate-one-path": {
        "histogram.csv":
            "42a3717899bd76228bf44536a2779d45de091b586b9bf0d66fef88572bb27692",
        "path.csv":
            "2dc678e96204719949ef2b28854cec1f15fa1a1ff9087a231d4f9d784c1bae7a",
        "summary.json":
            "928cd6cd6ad177463107ab5ca745c58150324070bbad1553617647cc14a04df8",
    },
    "simulate-reflected": {
        "histogram.csv":
            "1406c4f72ba9722e729fd7ed46293b024d1732db4a1b2bf4151d93a18113da99",
        "summary.json":
            "14824dbcbc7c3ab7aa4a4978afa4288487db13a48ddc0738e196ad365cb7b8ad",
    },
    "experiment": {
        "experiment_langevin1.json":
            "91ca43c6012eca5359a60183acf1fbdfd6a702189be3e1213ca4e82a9b80f1a6",
    },
    "experiment-langevin2": {
        "experiment_langevin2.json":
            "45c8293634f5de221c5845197902584e05c87063c60b9726a661d1cd01b7eaaa",
    },
    "experiment-relativistic": {
        "experiment_relativistic.json":
            "784aabef8c8f72f90172db24c1fd7c9dd04efd9a704ff993b6bf19b856b4b34a",
    },
    "fpe": {
        "density.csv":
            "ca4bd53284a56051d3401436350f09cb2f42dc5f226818e514be8f09c7ae0fb9",
        "entropy.csv":
            "4f82dcdb80bd63826c8f38d1c5ee60ebdb25fc3333ddae9ce20f5a89a02f0847",
    },
    "fpe-gaussian": {
        "density.csv":
            "8c0c2506a697845331db908a1377698294335ace858d3ad3024ddb1af50398f1",
        "entropy.csv":
            "0931f0d7a7916ee570a612c1f38dbe44bc937cc5707a456b5d5da96fbb8feba2",
    },
    "integrate": {
        "convergence_left.csv":
            "8fb8eadd393ae16f919e45be9ec15ced754bdf27872b127f430dc993789dad63",
        "convergence_midpoint.csv":
            "e610fb10b924491336f1426b68f7d0db750a0a7e9944c9d2b0a36ca8e7f4c8ac",
        "convergence_right.csv":
            "d4a908a912c5eb061ecb3cf949db974055a9c49aa1330fc40050d5e9e3f1ca70",
    },
    "integrate-divergent": {
        "convergence_left.csv":
            "7c85ae29690ddba57a2496cd346e003ae161811b0dc9473c3252d137ecb74f97",
        "convergence_midpoint.csv":
            "fc2b54a0e70c75de404af3f05b76418afc0ff706b6826539d97051859114034d",
        "convergence_right.csv":
            "b172abc297b13e009a40753eecc0a335c865d382ae248722a9baa1ccda596f80",
    },
    "convert": {
        "converted_drift.csv":
            "97b33a3b8a5257cf5ec302f7dbbab47dde4544b8e6fd324ac2bdffec1ce9e3d9",
    },
    "stationary": {
        "density.csv":
            "8aacc50561be31622866476ee1af457abce788447b7a6c836aa36d1307d7a52b",
    },
}


def _digests(out) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.skipif(np.__version__ != _NUMPY,
                    reason=f"digests recorded under numpy {_NUMPY}, not {np.__version__}")
@pytest.mark.parametrize("job", list(_JOBS))
def test_outputs_match_their_recorded_digests(tmp_path, job):
    argv, payload, code = _JOBS[job]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == code
    assert _digests(out) == _DIGESTS[job]
