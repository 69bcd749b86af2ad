"""The noise chunk rule of the engine and the exact oracles.

A chunk draws at most ``_NOISE_BUDGET`` normals, over at least
``_MIN_CHUNK`` and at most ``_MAX_CHUNK`` steps.  Draws do not depend on
the chunking, so narrowing the chunks moves no bit of any result; the
engine's side of this is checked against its reference loop in
``test_engine_reference.py``.
"""
import tracemalloc

import numpy as np
import pytest

from noisecalc import solvers
from noisecalc.paths import ORACLE, PathNoise, SeedSpec, TimeGrid
from noisecalc.physics import LangevinParams, kinetic_models
from noisecalc.sde import Interpretation, SdeModel
from noisecalc.solvers import (McConfig, Reflect, SolverScheme, _chunk_steps, _energy,
                               _oracle_velocities, _ou_coefficients, simulate_ensemble,
                               simulate_path)


def test_chunk_steps_follow_the_budget_between_floor_and_ceiling():
    assert _chunk_steps(0, 10_000) == 512      # a given matrix draws nothing
    assert _chunk_steps(256, 10_000) == 512    # 4 blocks: 2**17 / 256
    assert _chunk_steps(1024, 10_000) == 128   # 16 blocks
    assert _chunk_steps(90_048, 10_000) == 64  # too wide: the floor
    assert _chunk_steps(1024, 50) == 50        # the steps left


def _oracle_reference(delta, m, gamma, sigma, v0s, h, n_paths, seed, level=None):
    """Every path's normals in one call per component, stepped in one loop."""
    decay, scale = _ou_coefficients(m, gamma, sigma, h)
    z = np.array([[seed.shifted(i).child(ORACLE, c).generator().standard_normal(decay.size)
                   for c in range(delta)] for i in range(n_paths)])
    v = np.empty((n_paths, decay.size + 1, delta))
    v[:, 0] = v0s
    for k in range(decay.size):
        v[:, k + 1] = v[:, k] * decay[k] + scale[k] * z[:, :, k]
    if level is None:
        return v
    below = _energy(m, v) <= level
    return np.where(below.any(axis=1), below.argmax(axis=1), -1)


@pytest.mark.parametrize("budget, floor", [(None, None), (37 * 20, 1), (0, 37)],
                         ids=["default", "budget-binds", "floor-binds"])
@pytest.mark.parametrize("delta, v0s, level", [
    (1, [1.0], None), (2, [0.6, -0.4], None), (1, [1.0], 0.002), (2, [0.6, -0.4], 0.05)],
    ids=["delta1", "delta2", "delta1-level", "delta2-level"])
def test_oracle_velocities_do_not_depend_on_the_chunking(monkeypatch, budget, floor,
                                                          delta, v0s, level):
    if budget is not None:
        monkeypatch.setattr(solvers, "_NOISE_BUDGET", budget * delta)
        monkeypatch.setattr(solvers, "_MIN_CHUNK", floor)
    args = (delta, 1.0, 1.0, 1.0, v0s, np.full(300, 0.01), 20, SeedSpec(81, 3))
    got = _oracle_velocities(*args, level=level)
    want = _oracle_reference(*args, level=level)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if level is not None:  # hits come in several chunks, and not every path hits
        assert np.unique(got[got > 0] // 37).size > 1 and (got == -1).any()


def _walk():
    return SdeModel(f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                    g=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
                    interpretation=Interpretation.ITO, x0=0.0)


def test_every_draw_of_a_wide_run_holds_at_most_the_budget(monkeypatch):
    sizes = []
    real = PathNoise.draw

    def spy(self, ids, width):
        tiles, at = real(self, ids, width)
        sizes.append(tiles.size)
        return tiles, at

    monkeypatch.setattr(PathNoise, "draw", spy)
    cfg = McConfig(n_paths=1000, dt=1e-3, horizon=1.0, seed=SeedSpec(5))
    simulate_ensemble(_walk(), SolverScheme.DIRECT_LEFT, cfg, record="terminal")
    assert len(sizes) > 1 and max(sizes) <= solvers._NOISE_BUDGET
    assert sum(sizes) == 16 * 64 * 1000  # 16 blocks, each drawn every step once


def test_a_wide_reflected_run_allocates_at_most_32_mib():
    model = kinetic_models(LangevinParams(v0=1.0)).stratonovich
    cfg = McConfig(n_paths=20_000, dt=1e-3, horizon=0.6, seed=SeedSpec(7))
    assert cfg.n_steps == 600
    tracemalloc.start()
    try:
        simulate_ensemble(model, SolverScheme.DIRECT_MIDPOINT_HEUN, cfg, Reflect(0.0),
                          record="terminal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_a_recorded_path_allocates_at_most_1_25_mib():
    # each recorded step costs its 8 B row and no per-step index beside it
    model = kinetic_models(LangevinParams(v0=1.0)).stratonovich

    def run(grid):
        simulate_path(model, SolverScheme.DIRECT_MIDPOINT_HEUN, grid, SeedSpec(7), Reflect(0.0))

    run(TimeGrid.uniform(0.0, 0.1, 100))  # first-call costs are not per step
    grid = TimeGrid.uniform(0.0, 20.0, 20_000)
    tracemalloc.start()
    try:
        run(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2**20, f"peak {peak / 2**20:.2f} MiB"
