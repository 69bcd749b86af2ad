"""The keyed block-stream contract of ensemble noise.

Path ``i`` of a run seeded ``(master, stream, key)`` is path number
``stream + i``; its draw at step ``s`` depends on nothing else.  With
drift 0, ``g = 1`` and ``x0 = 0`` the engine's recorded states are the
running sums of ``sqrt(dt) * noise``, so a path's states show its draws.
"""
import json
import math

import numpy as np
import pytest

import noisecalc.cli
import noisecalc.physics
from noisecalc.cli import main
from conftest import path_noise
from noisecalc.paths import (BLOCK, PathNoise, SeedSpec, TimeGrid, generate_brownian,
                             generate_brownian_vector)
from noisecalc.physics import LangevinParams, kinetic_models, langevin_velocity_pair
from noisecalc.sde import Interpretation, SdeModel
from noisecalc.solvers import (McConfig, Reflect, SolverScheme, _oracle_velocities,
                               _ou_coefficients, _run_engine, exact_ou_path, hitting_time,
                               kinetic_oracle_hitting, simulate_ensemble, simulate_path)

N_STEPS, DT = 1300, 2.0**-10  # more than two of the engine's 512-step chunks


def _walk(x0=0.0):
    return SdeModel(f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                    g=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
                    interpretation=Interpretation.ITO, x0=x0)


def _states(seed, n_paths, **hit):
    times = np.arange(N_STEPS + 1) * DT
    return _run_engine(_walk(), SolverScheme.DIRECT_LEFT, times, n_paths, seed, None,
                       record="path", **hit)


@pytest.fixture
def opened(monkeypatch):
    """Every ``(stream, key)`` passed to ``SeedSpec.generator``, in order."""
    calls = []
    real = SeedSpec.generator

    def spy(seed):
        calls.append((seed.stream, getattr(seed, "key", ())))
        return real(seed)

    monkeypatch.setattr(SeedSpec, "generator", spy)
    return calls


def test_empty_key_is_the_plain_seed_sequence():
    for seed in (SeedSpec(7), SeedSpec(7, 3), SeedSpec(7).child().shifted(3)):
        want = np.random.default_rng(np.random.SeedSequence([7, seed.stream]))
        assert np.array_equal(seed.generator().standard_normal(50), want.standard_normal(50))


def test_keys_survive_shifts_and_separate_streams():
    seed = SeedSpec(7, 2).child(5).shifted(3).child(9)
    assert (seed.stream, seed.key) == (5, (5, 9))
    a = SeedSpec(7, 5).generator().standard_normal(20)
    assert not np.array_equal(seed.generator().standard_normal(20), a)
    with pytest.raises(ValueError):
        SeedSpec(7, 0, (-1,))


@pytest.mark.parametrize("n_paths", [1, 7, 1000])
def test_path_noise_independent_of_ensemble_size(n_paths):
    seed = SeedSpec(71, 0, (4,))
    ref = math.sqrt(DT) * path_noise(seed, 1000, N_STEPS)
    # x + 0 * dt + 1 * dW adds dW exactly; one draw of N_STEPS rows equals
    # the engine's three chunked draws
    got = _states(seed, n_paths).recorded[1:]
    assert np.array_equal(got, np.cumsum(ref, axis=0)[:, :n_paths])


def test_stream_offsets_straddling_a_block_boundary():
    seed = SeedSpec(72)
    whole = _states(seed, 100).recorded
    part = _states(seed.shifted(60), 10).recorded
    assert 60 < BLOCK < 70
    assert np.array_equal(part, whole[:, 60:70])


def test_frozen_paths_keep_their_prefix():
    # 70 paths from stream 60: 4 in one block, 64 in the next, 2 in a third
    seed = SeedSpec(73, 60)
    plain = _states(seed, 70)
    frozen = _states(seed, 70, hit_level=-0.1, hit_band=1e-12)
    stops = frozen.final_step
    assert 0 < stops.min() and stops.max() == N_STEPS  # some hit, some never do
    for i, last in enumerate(stops):
        assert np.array_equal(frozen.recorded[:last + 1, i], plain.recorded[:last + 1, i])
    assert np.array_equal(frozen.recorded[-1], plain.recorded[stops, np.arange(70)])


@pytest.mark.parametrize("i", [0, 63, 64, 130])
def test_solo_run_equals_ensemble_path(i):
    model = _walk(0.2)
    cfg = McConfig(n_paths=140, dt=DT, horizon=N_STEPS * DT, seed=SeedSpec(74))
    ens = simulate_ensemble(model, SolverScheme.DIRECT_LEFT, cfg)
    grid = TimeGrid(cfg.times())
    solo = simulate_path(model, SolverScheme.DIRECT_LEFT, grid, SeedSpec(74, i))
    assert np.array_equal(ens.results[i].path.values, solo.path.values)


def test_ensemble_opens_one_generator_per_block(opened):
    n = 5000
    cfg = McConfig(n_paths=n, dt=1e-3, horizon=2e-3, seed=SeedSpec(75, 30))
    simulate_ensemble(_walk(), SolverScheme.DIRECT_LEFT, cfg, record="terminal")
    assert len(opened) <= math.ceil(n / BLOCK) + 1


@pytest.mark.parametrize("stream", [0, 37, 64, 100])
def test_live_blocks_are_the_runs_of_ascending_ids(stream):
    n_paths = 300
    noise = PathNoise(SeedSpec(76, stream), n_paths)
    blocks = (stream + np.arange(n_paths)) // BLOCK - stream // BLOCK
    edge = int(np.flatnonzero(np.diff(blocks))[0])  # the last id of the first block
    rng = np.random.default_rng(76)
    cases = [np.arange(n_paths), np.array([0]), np.array([n_paths - 1]),
             np.flatnonzero(blocks == 1),                     # one full block
             np.array([edge, edge + 1]), np.array([0, edge, edge + 1, n_paths - 1])]
    cases += [np.flatnonzero(rng.random(n_paths) < p) for p in (0.01, 0.1, 0.5) * 20]
    for ids in cases:
        want, want_where = np.unique(blocks[ids], return_inverse=True)
        got, where = noise._live_blocks(ids)
        assert np.array_equal(got, want) and np.array_equal(where, want_where)
        assert noise.columns(ids) == want.size * BLOCK


def _opened_per_call(tmp_path, monkeypatch, opened, module, names):
    """Run ``experiment langevin1`` at the benchmark's mc_wide sizes and
    return, per call of one of ``module``'s functions ``names``, in order,
    the set of ``(stream, key)`` it opened."""
    calls = []

    def tagged(name):
        real = getattr(module, name)

        def run(*args, **kwargs):
            start = len(opened)
            out = real(*args, **kwargs)
            calls.append(set(opened[start:]))
            return out
        monkeypatch.setattr(module, name, run)

    for name in names:
        tagged(name)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "experiment": {"n_seeds": 5000, "dt": 1e-3, "horizon": 2e-3,
                       "hitting": {"n_paths": 5000, "dt": 1e-3, "horizon": 2e-3}},
        "outputs": {"dir": str(tmp_path / "out")}}))
    assert main(["experiment", "langevin1", "--config", str(cfg), "--seed", "3"]) == 0
    return calls


def test_experiment_studies_draw_from_disjoint_streams(tmp_path, monkeypatch, opened):
    # at n_seeds = 5000 the rest-start HK member and the hitting study's Ito
    # member used to share paths
    rest, hitting = _opened_per_call(tmp_path, monkeypatch, opened, noisecalc.cli,
                                     ["rest_start_diagnostics", "boundary_hitting_study"])
    assert rest and hitting
    assert not rest & hitting


def _oracle_normals(v, dt):
    """The standard normals behind exact OU velocities ``v`` (m = gamma =
    sigma = 1) on a uniform grid of step ``dt``, along the first axis."""
    decay, scale = _ou_coefficients(1.0, 1.0, 1.0, dt)
    return (v[1:] - decay * v[:-1]) / scale


def test_delta_1_oracle_does_not_reuse_the_brownian_driver():
    grid, seed = TimeGrid.uniform(0.0, 1.0, 200), SeedSpec(76, 5)
    oracle = _oracle_normals(exact_ou_path(1.0, 1.0, 1.0, 0.5, grid, seed).values, 1 / 200)
    driver = generate_brownian(grid, seed).increments() / math.sqrt(1 / 200)
    assert not np.allclose(oracle, driver)


def test_delta_2_oracle_does_not_reuse_the_velocity_pair_drivers():
    grid, seed = TimeGrid.uniform(0.0, 1.0, 200), SeedSpec(77, 5)
    v = _oracle_velocities(2, 1.0, 1.0, 1.0, [0.5, 0.5], grid.spacings, 1, seed)[0]
    oracle = _oracle_normals(v, 1 / 200)
    drivers = langevin_velocity_pair(LangevinParams(v0=0.5, u0=0.5), grid, seed)[2:]
    for c, w in enumerate(drivers):
        assert not np.allclose(oracle[:, c], w.increments() / math.sqrt(1 / 200))


def test_experiment_member_runs_draw_from_disjoint_streams(tmp_path, monkeypatch, opened):
    # rest-start members used to meet in the blocks that straddle their
    # path ranges (78 and 156)
    runs = _opened_per_call(tmp_path, monkeypatch, opened, noisecalc.physics,
                            ["_run_engine", "hitting_time"])  # rest-start, hitting members
    assert len(runs) == 6
    # the rest-start Stratonovich member starts at rest and draws nothing
    assert [bool(r) for r in runs] == [True, False, True, True, True, True]
    for i, a in enumerate(runs):
        for b in runs[i + 1:]:
            assert not a & b


def test_seed_words_of_32_bits_or_more_are_rejected():
    # SeedSequence splits a word >= 2**32 into two, so each of these would
    # draw SeedSpec(5, 7)'s numbers, or another seed's
    for args in [(5 + 7 * 2**32,), (5, 7 * 2**32 + 1), (5, 7, (2**32 + 1,))]:
        with pytest.raises(ValueError, match=r"2\*\*32"):
            SeedSpec(*args)
    assert SeedSpec(2**32 - 1, 2**32 - 1, (2**32 - 1,)).master == 2**32 - 1


@pytest.mark.parametrize("m", [2, 3])
def test_brownian_drivers_of_different_path_numbers_share_no_generator(opened, m):
    # a vector path used to put component c at path number stream * m + c
    grid = TimeGrid.uniform(0.0, 1.0, 16)
    for s in range(8):
        for t in range(8):
            if s == t:
                continue
            start = len(opened)
            generate_brownian_vector(grid, m, SeedSpec(78, s))
            vector = set(opened[start:])
            start = len(opened)
            generate_brownian(grid, SeedSpec(78, t))
            assert vector == {(s, ())} and not vector & set(opened[start:])


def test_vector_components_are_one_draw():
    grid, seed = TimeGrid(np.cumsum(np.linspace(0.01, 0.3, 41)) - 0.01), SeedSpec(79, 4, (2,))
    z = seed.generator().standard_normal((grid.n_steps, 3))
    want = np.cumsum(np.sqrt(grid.spacings)[:, None] * z, axis=0)
    got = generate_brownian_vector(grid, 3, seed).values
    assert np.array_equal(got[0], np.zeros(3)) and np.array_equal(got[1:], want)
    # m = 1 is the scalar path, on this non-uniform grid too
    assert np.array_equal(generate_brownian_vector(grid, 1, seed).values[:, 0],
                          generate_brownian(grid, seed).values)


def _rest_start(seed):
    model = kinetic_models(LangevinParams(v0=0.0)).stratonovich
    cfg = McConfig(n_paths=100, dt=1e-3, horizon=0.1, seed=seed)
    return simulate_ensemble(model, SolverScheme.DIRECT_MIDPOINT_HEUN, cfg, Reflect(0.0),
                             record="terminal")


def _hit_at_start(seed):
    cfg = McConfig(n_paths=100, dt=1e-3, horizon=0.1, seed=seed)
    return hitting_time(_walk(0.05), SolverScheme.DIRECT_LEFT, 0.0, 0.1, cfg)


def _oracle_hit_at_start(seed):
    cfg = McConfig(n_paths=100, dt=1e-3, horizon=0.1, seed=seed)
    return kinetic_oracle_hitting(2, 1.0, 1.0, 1.0, [0.1, 0.1], 0.5, 0.1, cfg)


@pytest.mark.parametrize("run", [_rest_start, _hit_at_start, _oracle_hit_at_start])
def test_a_run_that_draws_nothing_opens_nothing(opened, run):
    run(SeedSpec(80, 30))
    assert opened == []
