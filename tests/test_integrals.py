import json

import numpy as np
import pytest

from noisecalc.cli import main
from noisecalc.integrals import (
    ConvergenceTable,
    EvaluationRule,
    StepProcess,
    _euler_path_from_driver,
    backward_regularized,
    convergence_table,
    hk_correction,
    hk_integral,
    multidim_correction,
    multidim_hk_sum,
    realized_cross_variation,
    realized_variation,
    stochastic_sum,
)
from noisecalc.paths import (REFINE, SamplePath, SeedSpec, TimeGrid, VectorPath,
                             generate_brownian, refine_bridge)
from noisecalc.sde import Interpretation, SdeModel

RULES = (EvaluationRule.LEFT, EvaluationRule.MIDPOINT, EvaluationRule.RIGHT)


def _brownian(n, master, stream=0, t1=1.0):
    return generate_brownian(TimeGrid.uniform(0.0, t1, n), SeedSpec(master, stream))


def test_constant_integrand_telescopes():
    w = _brownian(128, 1)
    for rule in RULES:
        val = stochastic_sum(lambda x: 1.0, w, w, rule)
        assert val == pytest.approx(w.final_value - w.initial_value, abs=1e-14)


def test_hand_evaluated_two_step_sums():
    grid = TimeGrid([0.0, 0.5, 1.0])
    p = SamplePath(grid, [0.0, 1.0, 0.5])
    assert stochastic_sum(lambda x: x, p, p, EvaluationRule.LEFT) == pytest.approx(-0.5)
    assert stochastic_sum(lambda x: x, p, p, EvaluationRule.RIGHT) == pytest.approx(0.75)
    # midpoint coarsens to the pair {0, 1} and reads the value at t=0.5
    assert stochastic_sum(lambda x: x, p, p, EvaluationRule.MIDPOINT) == pytest.approx(0.5)


def test_right_minus_left_is_realized_variation():
    w = _brownian(256, 2)
    r = stochastic_sum(lambda x: x, w, w, EvaluationRule.RIGHT)
    l = stochastic_sum(lambda x: x, w, w, EvaluationRule.LEFT)
    assert r - l == pytest.approx(realized_variation(w), rel=1e-12)


def test_half_qv_identity_on_random_grids():
    # right = (X_b^2 - X_a^2)/2 + QV/2 and left = ... - QV/2, any grid
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 400))
        t = np.cumsum(rng.uniform(0.01, 1.0, n + 1))
        x = rng.normal(scale=2.0, size=n + 1)
        p = SamplePath(TimeGrid(t - t[0]), x)
        half_jump = 0.5 * (p.final_value**2 - p.initial_value**2)
        qv = realized_variation(p)
        r = stochastic_sum(lambda v: v, p, p, EvaluationRule.RIGHT)
        l = stochastic_sum(lambda v: v, p, p, EvaluationRule.LEFT)
        tol = 1e-12 * max(1.0, abs(half_jump) + qv)
        assert abs(r - (half_jump + 0.5 * qv)) < tol
        assert abs(l - (half_jump - 0.5 * qv)) < tol


def test_linearity_in_integrand():
    w = _brownian(64, 3)
    for rule in RULES:
        a = stochastic_sum(np.sin, w, w, rule)
        b = stochastic_sum(np.cos, w, w, rule)
        combo = stochastic_sum(lambda x: 2.0 * np.sin(x) - 3.0 * np.cos(x), w, w, rule)
        assert combo == pytest.approx(2 * a - 3 * b, rel=1e-12, abs=1e-12)


def test_rules_coincide_for_constant_composition():
    w = _brownian(64, 4)
    vals = [stochastic_sum(lambda x: 4.25, w, w, rule) for rule in RULES]
    # partitions differ between the midpoint rule and the endpoint rules, so
    # "exact" agreement means telescoping up to summation roundoff
    assert vals[0] == vals[2]
    assert vals[1] == pytest.approx(vals[0], rel=1e-13)


def test_grid_mismatch_rejected():
    a = _brownian(16, 5)
    b = _brownian(32, 5)
    with pytest.raises(ValueError):
        stochastic_sum(lambda x: x, a, b, EvaluationRule.LEFT)


def test_midpoint_needs_even_steps():
    w = _brownian(15, 6)
    with pytest.raises(ValueError):
        stochastic_sum(lambda x: x, w, w, EvaluationRule.MIDPOINT)


def test_correction_constant_integrand_gives_length():
    w = _brownian(100, 7, t1=2.5)
    one = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
    assert hk_correction(lambda x: 1.0, w, one) == pytest.approx(2.5)
    assert hk_correction(lambda x: 0.0, w, one) == 0.0


def test_correction_sqrt_diffusion_quadrature_oracle():
    # positive path, g = sqrt(2x): integrand 2x, so the value is twice the
    # trapezoid average of the path times the interval length; the oracle is
    # the trapezoid rule written out on the same grid
    t = TimeGrid.uniform(0.0, 2.0, 200)
    k = SamplePath(t, 1.5 + np.sin(t.points))
    val = hk_correction(lambda x: 1.0, k, lambda x, tt: np.sqrt(2 * x))
    y = 2 * k.values
    oracle = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(t.points)))
    assert val == pytest.approx(oracle, rel=1e-13)


def test_hk_integral_of_identity_extrapolates_to_limit():
    # right-rule ladder: extrapolated ~ (W_1^2 + 1)/2 on one seed
    w = _brownian(2**10, 42)
    table = hk_integral(lambda x: x, w, 6, SeedSpec(42, 500))
    assert table.n_steps == tuple(2**k for k in range(10, 17))
    target = 0.5 * (w.final_value**2 + 1.0)
    assert table.extrapolated == pytest.approx(target, abs=0.05)


def test_hk_integral_constant_exact_every_level():
    w = _brownian(64, 43)
    table = hk_integral(lambda x: 3.0, w, 3, SeedSpec(43, 1))
    for v in table.values:
        assert v == pytest.approx(3.0 * w.final_value, rel=1e-12)


def test_hk_identity_error_decreases_with_level():
    # |right - (left + correction)| for phi = x^2 shrinks under refinement
    seed = SeedSpec(4242)
    w = _brownian(2**10, 4242)
    one = lambda x, t: np.ones_like(np.asarray(x, dtype=float))
    errs = []
    for lev in range(4):
        if lev:
            from noisecalc.paths import refine_bridge

            w = refine_bridge(w, 2, seed.shifted(lev))
        r = stochastic_sum(lambda x: x * x, w, w, EvaluationRule.RIGHT)
        l = stochastic_sum(lambda x: x * x, w, w, EvaluationRule.LEFT)
        errs.append(abs(r - (l + hk_correction(lambda x: 2 * x, w, one))))
    assert errs[-1] < errs[0]


def test_convergence_table_csv_format(tmp_path):
    """``integrate``'s tables have whole-number ``n_steps`` and a
    ``# extrapolated,`` trailer equal to their last row."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"integrate": {"base_steps": 8, "levels": 2}}), encoding="utf-8")
    assert main(["integrate", "--config", str(cfg), "--seed", "3",
                 "--out", str(tmp_path / "out")]) == 0
    for rule in RULES:
        lines = (tmp_path / "out" / f"convergence_{rule.value}.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "n_steps,value"
        assert [ln.split(",")[0] for ln in lines[1:-1]] == ["8", "16", "32"]
        assert lines[-1] == "# extrapolated," + lines[-2].split(",")[1]
    t = ConvergenceTable(EvaluationRule.RIGHT, (4, 8), (1.5, 1.25))
    assert t.extrapolated == 1.25
    with pytest.raises(ValueError):
        ConvergenceTable(EvaluationRule.LEFT, (8, 4), (1.0, 2.0))


def test_realized_variation_linear_path():
    n = 50
    p = SamplePath(TimeGrid.uniform(0.0, 1.0, n), np.linspace(0.0, 1.0, n + 1))
    assert realized_variation(p) == pytest.approx(1.0 / n, rel=1e-12)


def test_realized_variation_brownian_concentration():
    # 2^20-step paths: QV within 1% of 1 for 99% of 300 seeds
    g = TimeGrid.uniform(0.0, 1.0, 2**20)
    good = 0
    for s in range(300):
        qv = realized_variation(generate_brownian(g, SeedSpec(2178, s)))
        good += abs(qv - 1.0) < 0.01
    assert good >= 297


def test_cross_variation_of_independent_brownians():
    g = TimeGrid.uniform(0.0, 1.0, 2**14)
    vals = []
    for s in range(60):
        x = generate_brownian(g, SeedSpec(666, 2 * s))
        y = generate_brownian(g, SeedSpec(666, 2 * s + 1))
        vals.append(realized_cross_variation(x, y))
    assert abs(np.mean(vals)) < 0.02


def test_multidim_reduces_to_scalar_bitwise():
    w = _brownian(256, 9)
    pair = VectorPath(w.grid, w.values[:, None])
    psi = lambda x, t: np.sin(np.atleast_2d(x))[..., None, :][..., 0, :, :] \
        if np.ndim(x) == 2 else np.array([[np.sin(x[0])]])

    def psi_batch(x, t):
        x = np.asarray(x)
        if x.ndim == 2:
            return np.sin(x)[:, None, :]
        return np.array([[np.sin(x[0])]])

    for rule in RULES:
        md = multidim_hk_sum(psi_batch, pair, rule)
        sc = stochastic_sum(np.sin, w, w, rule)
        assert md.shape == (1,)
        assert md[0] == sc


def test_multidim_constant_matrix_telescopes():
    g = TimeGrid.uniform(0.0, 1.0, 32)
    vals = np.column_stack([
        generate_brownian(g, SeedSpec(10, 0)).values,
        generate_brownian(g, SeedSpec(10, 1)).values,
    ])
    path = VectorPath(g, vals)
    c = np.array([[1.0, -2.0], [0.5, 3.0]])

    def psi(x, t):
        x = np.asarray(x)
        if x.ndim == 2:
            return np.broadcast_to(c, (x.shape[0], 2, 2)).copy()
        return c

    jump = vals[-1] - vals[0]
    for rule in RULES:
        out = multidim_hk_sum(psi, path, rule)
        assert np.allclose(out, c @ jump, rtol=1e-12, atol=1e-13)


def test_multidim_dimension_mismatch_rejected():
    g = TimeGrid.uniform(0.0, 1.0, 4)
    path = VectorPath(g, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        multidim_hk_sum(lambda x, t: np.zeros((1, 3)), path, EvaluationRule.LEFT)


def test_multidim_correction_zero_partials():
    g = TimeGrid.uniform(0.0, 1.0, 16)
    path = VectorPath(g, np.random.default_rng(0).normal(size=(17, 2)))
    out = multidim_correction(lambda x, t: np.zeros((2, 1, 2)),
                              lambda x, t: np.eye(2), path)
    assert np.array_equal(out, np.zeros(1))


def test_multidim_correction_m1_reduces_to_scalar_correction():
    w = _brownian(128, 11)
    pair = VectorPath(w.grid, w.values[:, None])
    phi_prime = lambda x: np.cos(x)
    g_of = lambda x, t: 1.0 + 0.1 * np.asarray(x, dtype=float) ** 2

    def dpsi(x, t):
        x = np.asarray(x)
        if x.ndim == 2:
            return np.cos(x)[:, None, None, :] * np.ones((x.shape[0], 1, 1, 1))
        return np.array([[[np.cos(x[0])]]])

    def b(x, t):
        x = np.asarray(x)
        if x.ndim == 2:
            return (g_of(x[:, 0], t) ** 2)[:, None, None]
        return np.array([[g_of(x[0], t) ** 2]])

    md = multidim_correction(dpsi, b, pair)
    sc = hk_correction(phi_prime, w, g_of)
    assert md[0] == pytest.approx(sc, rel=1e-12)


def test_multidim_correction_kinetic_pair_hand_value():
    # pair (K, W) with Psi = (0, g(K)), g = sqrt(2K): the only nonzero term
    # contracts g'(K) against the cross-variation density g(K), and
    # g g' = 1 identically, so the correction is the elapsed time
    t = TimeGrid.uniform(0.0, 3.0, 300)
    k = SamplePath(t, 2.0 + np.cos(t.points) * 0.5)
    w = generate_brownian(t, SeedSpec(12))
    pair = VectorPath(t, np.column_stack([k.values, w.values]))
    gk = lambda v: np.sqrt(2.0 * v)
    gpk = lambda v: 1.0 / np.sqrt(2.0 * v)

    def dpsi(x, t_):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], 2, 1, 2))
        out[:, 0, 0, 1] = gpk(x[:, 0])
        return out if x.shape[0] > 1 else out[0]

    def b(x, t_):
        x = np.atleast_2d(x)
        out = np.empty((x.shape[0], 2, 2))
        gv = gk(x[:, 0])
        out[:, 0, 0] = gv**2
        out[:, 0, 1] = out[:, 1, 0] = gv
        out[:, 1, 1] = 1.0
        return out if x.shape[0] > 1 else out[0]

    val = multidim_correction(dpsi, b, pair)
    assert val[0] == pytest.approx(3.0, rel=1e-12)


def test_step_process_validation_and_lookup():
    with pytest.raises(ValueError):
        StepProcess([0.0, 1.0], [1.0, 2.0])
    s = StepProcess([0.0, 0.5, 1.0], [2.0, -1.0])
    assert np.array_equal(s.value_at(np.array([0.25, 0.5, 0.75, 1.0, 1.5])),
                          [2.0, 2.0, -1.0, -1.0, 0.0])


def test_backward_regularized_constant_level_deterministic_limit():
    t = TimeGrid.uniform(0.0, 1.0, 512)
    w = SamplePath(t, t.points**2)
    ups = StepProcess([0.0, 1.0], [3.0])
    vals = [backward_regularized(ups, w, eps) for eps in (0.1, 0.01, 0.001)]
    errors = [abs(v - 3.0) for v in vals]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.01


def test_backward_regularized_zero_process():
    w = _brownian(64, 13)
    ups = StepProcess([0.0, 1.0], [0.0])
    assert backward_regularized(ups, w, 0.05) == 0.0


def test_backward_regularized_requires_valid_eps():
    w = _brownian(64, 14)
    ups = StepProcess([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        backward_regularized(ups, w, 0.0)
    with pytest.raises(ValueError):
        backward_regularized(ups, w, 0.2)  # above 10% of the horizon


def test_backward_regularized_first_order_in_eps():
    # against a piecewise-linear Brownian skeleton the deviation from the
    # discrete right sum is exactly linear in eps below the grid spacing
    w = _brownian(8, 314)
    ups = StepProcess([0.0, 0.5, 1.0], [1.0, -0.5])
    target = ups.right_rule_sum(w)
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    devs = np.array([abs(backward_regularized(ups, w, e) - target) for e in eps])
    slope = np.polyfit(np.log(eps), np.log(devs), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_backward_regularized_accepts_sample_path_integrand():
    t = TimeGrid.uniform(0.0, 1.0, 128)
    w = SamplePath(t, t.points)  # dW = dt
    ups = SamplePath(t, np.full(len(t), 2.0))
    assert backward_regularized(ups, w, 0.05) == pytest.approx(2.0, abs=0.15)


def test_convergence_table_with_resimulated_model():
    # smooth model: the right-rule ladder re-simulates on refined grids with
    # the shared bridged driver, and the table settles
    from noisecalc.sde import Interpretation, SdeModel

    m = SdeModel(f=lambda x, t: -x, g=lambda x, t: 1.0 + 0.25 * np.sin(x),
                 dgdx=lambda x, t: 0.25 * np.cos(x),
                 interpretation=Interpretation.ITO, x0=0.5)
    base = SamplePath(TimeGrid.uniform(0.0, 1.0, 2**8), np.zeros(2**8 + 1))
    table = hk_integral(lambda x: x, base, 5, SeedSpec(2027), model=m)
    assert not table.diverged
    gaps = np.abs(np.diff(np.asarray(table.values)))
    assert gaps[-1] < gaps[0]


_SMOOTH = SdeModel(f=lambda x, t: -x, g=lambda x, t: 1.0 + 0.25 * np.sin(x),
                   dgdx=lambda x, t: 0.25 * np.cos(x),
                   interpretation=Interpretation.ITO, x0=0.5)


def _reference_tables(phi, path, levels, seed, rules, model):
    """The tables of a hand-written ladder: level ``l`` refined from
    ``seed.child(REFINE, l)`` and summed under each rule."""
    driver = generate_brownian(path.grid, seed) if model is not None else path
    steps, vals, bad = [], {r: [] for r in rules}, {r: [] for r in rules}
    for level in range(levels + 1):
        if level:
            driver = refine_bridge(driver, 2, seed.child(REFINE, level))
        x = _euler_path_from_driver(model, driver) if model is not None else driver
        steps.append(x.grid.n_steps)
        for r in rules:
            v = stochastic_sum(phi, x, x, r)
            if not np.isfinite(v):
                bad[r].append(level)
                v = np.nan
            vals[r].append(v)
    return [(r, tuple(steps), tuple(vals[r]), tuple(bad[r])) for r in rules]


@pytest.mark.parametrize("phi, path, model, diverged", [
    (lambda x: x * x, _brownian(64, 31), None, ()),
    (lambda x: x, SamplePath(TimeGrid.uniform(0.0, 1.0, 2**6), np.zeros(2**6 + 1)), _SMOOTH,
     ()),
    # the left rule reads x = 0 at t = 0
    (lambda x: 1.0 / x, _brownian(32, 32), None, (EvaluationRule.LEFT,)),
], ids=["brownian", "model", "diverging"])
@pytest.mark.parametrize("rules", [RULES, RULES[::-1]], ids=["lmr", "rml"])
def test_convergence_table_equals_a_reference_ladder(phi, path, model, diverged, rules):
    seed = SeedSpec(2029, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _reference_tables(phi, path, 4, seed, rules, model)
        got = convergence_table(phi, path, 4, seed, rules, model=model)
    assert [t.rule for t in got] == list(rules)
    assert {t.rule for t in got if t.diverged} == set(diverged)
    for table, (rule, steps, vals, bad) in zip(got, want):
        assert table.n_steps == steps and table.diverged_levels == bad
        assert np.array_equal(table.values, vals, equal_nan=True)
