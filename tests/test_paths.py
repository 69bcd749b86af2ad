import json
import tracemalloc

import numpy as np
import pytest

from noisecalc import expr as xp
from noisecalc import paths
from noisecalc.cli import main
from noisecalc.paths import (
    SamplePath,
    SeedSpec,
    TimeGrid,
    VectorPath,
    generate_brownian,
    generate_brownian_vector,
    refine_bridge,
)
from noisecalc.sde import Interpretation, SdeModel
from noisecalc.solvers import McConfig, SolverScheme, simulate_path


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid([0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        TimeGrid([-0.1, 0.5])
    g = TimeGrid.uniform(0.0, 1.0, 4)
    assert g.n_steps == 4
    assert g.diameter == pytest.approx(0.25)


def _spawn_key_seeds():
    """At least 200 seeds: the empty key and keys of 1-5 words, each with
    the edge words 0 and 2**32 - 1 among random ones."""
    rng = np.random.default_rng(2701)
    edge = [0, 2**32 - 1]
    seeds = [SeedSpec(m, s) for m in edge for s in edge]
    seeds += [SeedSpec(m, s, tuple(edge[i % 2] for i in range(n)))
              for m in edge for s in edge for n in range(1, 6)]
    for n in range(6):
        for _ in range(30):
            m, s, *key = (int(w) for w in rng.integers(0, 2**32, size=2 + n))
            seeds.append(SeedSpec(m, s, tuple(key)))
    return seeds


def test_generator_is_the_spawn_key_stream():
    seeds = _spawn_key_seeds()
    assert len(seeds) >= 200 and {len(s.key) for s in seeds} == set(range(6))
    for seed in seeds:
        want = np.random.default_rng(
            np.random.SeedSequence([seed.master, seed.stream], spawn_key=seed.key))
        assert seed.generator().bit_generator.state == want.bit_generator.state, seed


def test_nonuniform_grid_diameter():
    g = TimeGrid([0.0, 0.1, 0.5, 0.6])
    assert g.diameter == pytest.approx(0.4)
    assert len(g) == 4


def test_path_length_and_finiteness_checked():
    g = TimeGrid.uniform(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        SamplePath(g, [0.0, 1.0])
    with pytest.raises(ValueError):
        SamplePath(g, [0.0, np.inf, 1.0])


def test_brownian_starts_at_zero_any_seed():
    g = TimeGrid.uniform(0.0, 2.0, 37)
    for s in (0, 1, 99):
        assert generate_brownian(g, SeedSpec(123, s)).values[0] == 0.0


def test_brownian_determinism():
    g = TimeGrid.uniform(0.0, 1.0, 64)
    a = generate_brownian(g, SeedSpec(7, 3))
    b = generate_brownian(g, SeedSpec(7, 3))
    assert np.array_equal(a.values, b.values)
    c = generate_brownian(g, SeedSpec(7, 4))
    assert not np.array_equal(a.values, c.values)


def test_brownian_terminal_variance():
    # W_1 variance over 1e4 substreams on a 2^16-step grid
    g = TimeGrid.uniform(0.0, 1.0, 2**16)
    w1 = np.array([generate_brownian(g, SeedSpec(20240801, s)).final_value
                   for s in range(10_000)])
    assert 0.97 <= w1.var(ddof=1) <= 1.03


def test_increment_variance_matches_step():
    # fixed step h: empirical increment variance within 3 sigma of h
    h = 0.25
    g = TimeGrid.uniform(0.0, 5.0, 20)
    incs = np.concatenate([
        generate_brownian(g, SeedSpec(55, s)).increments() for s in range(500)
    ])
    n = incs.size
    se = h * np.sqrt(2.0 / (n - 1))
    assert abs(incs.var(ddof=1) - h) < 3 * se


def test_bridge_pins_original_values():
    g = TimeGrid.uniform(0.0, 1.0, 16)
    w = generate_brownian(g, SeedSpec(1))
    r = refine_bridge(w, 4, SeedSpec(1, 1))
    assert np.array_equal(r.values[::4], w.values)
    assert np.array_equal(r.grid.points[::4], g.points)


def test_bridge_midpoint_conditional_mean():
    # pinned endpoints (0,0) and (1,2): midpoint mean is the chord value 1.0
    g = TimeGrid([0.0, 1.0])
    base = SamplePath(g, [0.0, 2.0])
    mids = np.array([
        refine_bridge(base, 2, SeedSpec(10, s)).values[1] for s in range(4000)
    ])
    assert mids.mean() == pytest.approx(1.0, abs=4 * 0.5 / np.sqrt(4000))
    # conditional variance dt*(1-dt)/1 = 0.25
    assert mids.var(ddof=1) == pytest.approx(0.25, rel=0.15)


def test_bridge_rejects_factor_below_two():
    g = TimeGrid.uniform(0.0, 1.0, 4)
    w = generate_brownian(g, SeedSpec(3))
    with pytest.raises(ValueError):
        refine_bridge(w, 1, SeedSpec(3, 1))


def test_bridge_refined_quadratic_variation():
    # refine 8x: realized QV within 5% of 1 for >= 95% of 200 seeds
    g = TimeGrid.uniform(0.0, 1.0, 512)
    hits = 0
    for s in range(200):
        w = generate_brownian(g, SeedSpec(1066, s))
        r = refine_bridge(w, 8, SeedSpec(1066, 10_000 + s))
        qv = float(np.sum(np.diff(r.values) ** 2))
        hits += abs(qv - 1.0) < 0.05
    assert hits >= 190


def test_bridge_consistency_in_moments():
    # direct fine-grid generation vs coarse + bridge: same mean/variance
    # at the shared times, within Monte Carlo bands
    n_seeds = 3000
    fine = TimeGrid.uniform(0.0, 1.0, 8)
    coarse = TimeGrid.uniform(0.0, 1.0, 4)
    direct = np.stack([generate_brownian(fine, SeedSpec(77, s)).values
                       for s in range(n_seeds)])
    bridged = np.stack([
        refine_bridge(generate_brownian(coarse, SeedSpec(991, s)), 2,
                      SeedSpec(991, n_seeds + s)).values
        for s in range(n_seeds)
    ])
    t = fine.points[1:]
    se = t * np.sqrt(2.0 / n_seeds)
    assert np.all(np.abs(direct[:, 1:].var(axis=0) - bridged[:, 1:].var(axis=0)) < 4 * se)
    mean_se = np.sqrt(t / n_seeds)
    assert np.all(np.abs(direct[:, 1:].mean(axis=0)) < 4 * mean_se)
    assert np.all(np.abs(bridged[:, 1:].mean(axis=0)) < 4 * mean_se)


def test_vector_components_independent():
    g = TimeGrid([0.0, 1.0])
    finals = np.array([
        generate_brownian_vector(g, 2, SeedSpec(31, s)).values[-1]
        for s in range(10_000)
    ])
    cov = np.cov(finals.T)[0, 1]
    assert abs(cov) < 0.05
    assert np.array_equal(
        generate_brownian_vector(g, 2, SeedSpec(31, 0)).values[0], [0.0, 0.0])


def test_vector_m1_matches_scalar_substream():
    g = TimeGrid.uniform(0.0, 1.0, 32)
    vec = generate_brownian_vector(g, 1, SeedSpec(5, 9))
    scalar = generate_brownian(g, SeedSpec(5, 9))
    assert np.array_equal(vec.values[:, 0], scalar.values)


def test_vector_rejects_bad_dimension():
    g = TimeGrid.uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        generate_brownian_vector(g, 0, SeedSpec(1))


def test_csv_round_trip_precision(tmp_path):
    """``simulate``'s ``path.csv`` of one path reads back exactly to the
    grid and values of the matching ``simulate_path``."""
    f, g = "-x", "1 + 0.1*x^2"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "model": {"custom": {"f": f, "g": g, "interpretation": "ito",
                             "domain": [None, None], "x0": 0.3}},
        "run": {"n_paths": 1, "dt": 0.01, "horizon": 0.5, "scheme": "euler"}}),
        encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--seed", "17",
                 "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "path.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,value"
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])

    model = SdeModel(f=xp.vector_fn(xp.parse(f)), g=xp.vector_fn(xp.parse(g)),
                     dgdx=xp.vector_fn(xp.derivative(xp.parse(g))),
                     interpretation=Interpretation.ITO, x0=0.3)
    grid = TimeGrid(McConfig(n_paths=1, dt=0.01, horizon=0.5, seed=SeedSpec(17)).times())
    want = simulate_path(model, SolverScheme.EULER_MARUYAMA_ITO_FORM, grid, SeedSpec(17)).path
    assert np.array_equal(parsed[:, 0], want.grid.points)
    assert np.array_equal(parsed[:, 1], want.values)


def test_vector_path_component_view():
    g = TimeGrid.uniform(0.0, 1.0, 4)
    vp = VectorPath(g, np.arange(10, dtype=float).reshape(5, 2))
    assert np.array_equal(vp.component(1).values, [1.0, 3.0, 5.0, 7.0, 9.0])


def _reference_bridge_points(t, w, factor, seed):
    """The bridge loop that the buffered refinement replaced, with its own
    temporaries and copies."""
    n = t.size - 1
    sub = np.diff(t) / factor
    new_t = np.empty(n * factor + 1)
    new_w = np.empty(n * factor + 1)
    new_t[::factor] = t
    new_w[::factor] = w

    rng = seed.generator()
    t_right = t[1:]
    w_right = w[1:]
    x = w[:-1].copy()
    tau = t[:-1].copy()
    for k in range(1, factor):
        tau_next = t[:-1] + k * sub
        remaining = t_right - tau
        mean = x + (w_right - x) * (tau_next - tau) / remaining
        var = (tau_next - tau) * (t_right - tau_next) / remaining
        x = mean + np.sqrt(var) * rng.standard_normal(n)
        new_t[k::factor] = tau_next
        new_w[k::factor] = x
        tau = tau_next
    return new_t, new_w


@pytest.mark.parametrize("factor", [2, 3, 5])
@pytest.mark.parametrize("grid", ["uniform", "non-uniform"])
def test_bridge_equals_reference_loop_bitwise(grid, factor):
    if grid == "uniform":
        g = TimeGrid.uniform(0.0, 1.0, 1000)
    else:
        steps = np.random.default_rng(5).uniform(1e-4, 1e-2, 1000)
        g = TimeGrid(np.concatenate([[0.3], 0.3 + np.cumsum(steps)]))
    w = generate_brownian(g, SeedSpec(21))
    seed = SeedSpec(21, 7)
    r = refine_bridge(w, factor, seed)
    ref_t, ref_w = _reference_bridge_points(g.points, w.values, factor, seed)
    assert np.array_equal(r.grid.points, ref_t)
    assert np.array_equal(r.values, ref_w)


def _bridge_input(grid: str, n: int) -> SamplePath:
    if grid == "uniform":
        g = TimeGrid.uniform(0.0, 1.0, n)
    else:
        steps = np.random.default_rng(n).uniform(1e-4, 1e-2, n)
        g = TimeGrid(np.concatenate([[0.3], 0.3 + np.cumsum(steps)]))
    return generate_brownian(g, SeedSpec(23, n))


@pytest.mark.parametrize("factor", [2, 3, 4])
@pytest.mark.parametrize("blocks", ["block-1", "block", "block+1", "2block+1"])
@pytest.mark.parametrize("grid", ["uniform", "non-uniform"])
def test_blocked_bridge_equals_reference_at_block_edges(grid, blocks, factor):
    """Interval counts on either side of the bridge's block size: the blocks
    split each sub-level, and its normals, without moving a bit."""
    b = paths._BRIDGE_BLOCK
    n = {"block-1": b - 1, "block": b, "block+1": b + 1, "2block+1": 2 * b + 1}[blocks]
    w = _bridge_input(grid, n)
    seed = SeedSpec(23, 9)
    r = refine_bridge(w, factor, seed)
    ref_t, ref_w = _reference_bridge_points(w.grid.points, w.values, factor, seed)
    assert np.array_equal(r.grid.points, ref_t)
    assert np.array_equal(r.values, ref_w)


def test_refine_bridge_peak_memory_is_bounded():
    """Refining a 2^17-step path by 2 allocates at most 1.75x the returned
    path's bytes beyond what was held before: the bridge's temporaries are
    block-sized, and each raw array is dropped once the path has copied it
    (whole-size temporaries read 2.25x)."""
    w = generate_brownian(TimeGrid.uniform(0.0, 1.0, 2**17), SeedSpec(31))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        r = refine_bridge(w, 2, SeedSpec(31, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held <= 1.75 * (r.grid.points.nbytes + r.values.nbytes)
