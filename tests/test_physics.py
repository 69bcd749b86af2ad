import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import ks_statistic
from noisecalc.integrals import realized_variation, strong_convergence_order
from noisecalc.paths import SamplePath, SeedSpec, TimeGrid, generate_brownian
from noisecalc.physics import (
    InterpretationTriple,
    LangevinParams,
    RelativisticParams,
    boundary_hitting_study,
    family_models,
    kinetic_models,
    langevin_velocity_pair,
    levy_composite_brownian,
    relativistic_models,
    rest_start_diagnostics,
    two_particle_models,
)
from noisecalc.sde import Interpretation, SdeModel, from_ito, to_ito
from noisecalc.solvers import (
    EventKind,
    McConfig,
    Reflect,
    SolverScheme,
    exact_kinetic_terminal,
    hitting_time,
    kinetic_oracle_hitting,
    simulate_ensemble,
    simulate_path,
)


def test_kinetic_drift_triple_at_unit_energy():
    trio = kinetic_models(LangevinParams())
    drifts = [float(m.f(1.0, 0.0)) for m in trio.members()]
    assert drifts == pytest.approx([-1.5, -2.0, -2.5])


def test_kinetic_conversions_close_onto_ito_member():
    trio = kinetic_models(LangevinParams(m=1.3, gamma=0.8, sigma=1.1, v0=0.7))
    xs = np.linspace(0.05, 5.0, 100)
    for member in (trio.stratonovich, trio.hk):
        conv = to_ito(member)
        assert np.max(np.abs(conv.f(xs, 0.0) - trio.ito.f(xs, 0.0))) < 1e-10


def test_two_particle_boundary_drifts():
    p = LangevinParams(m=1.0, gamma=1.0, sigma=1.0, v0=0.0, u0=0.0)
    trio = two_particle_models(p)
    at_zero = [float(m.f(0.0, 0.0)) for m in trio.members()]
    assert at_zero == pytest.approx([1.0, 0.5, 0.0])
    assert float(trio.ito.g(0.0, 0.0)) == 0.0


def test_two_particle_ito_drift_with_mass_two():
    trio = two_particle_models(LangevinParams(m=2.0, v0=1.0, u0=1.0))
    assert float(trio.ito.f(1.0, 0.0)) == pytest.approx(-0.5)


def test_two_particle_conversion_closure():
    trio = two_particle_models(LangevinParams(v0=0.5, u0=0.5))
    hk = from_ito(trio.ito, Interpretation.HAENGGI_KLIMONTOVICH)
    xs = np.linspace(0.1, 4.0, 60)
    assert np.max(np.abs(hk.f(xs, 0.0) - trio.hk.f(xs, 0.0))) < 1e-10


def test_relativistic_drift_signs_at_rest_energy():
    trio = relativistic_models(RelativisticParams())
    drifts = [float(m.f(1.0, 0.0)) for m in trio.members()]
    assert drifts[0] == pytest.approx(1.0, abs=1e-12)
    assert drifts[1] == pytest.approx(0.0, abs=1e-12)
    assert drifts[2] == pytest.approx(-1.0, abs=1e-12)
    assert float(trio.ito.g(1.0, 0.0)) == 0.0


def test_relativistic_constant_noise_strat_hk_gap():
    trio = relativistic_models(RelativisticParams())
    es = np.linspace(1.01, 6.0, 50)
    gap = trio.hk.f(es, 0.0) - trio.stratonovich.f(es, 0.0)
    assert np.allclose(gap, -1.0 / es * (1.0 / es) ** 2, atol=1e-12)


def test_relativistic_drifts_merge_far_from_rest():
    trio = relativistic_models(RelativisticParams())
    e = 100.0
    drifts = np.array([float(m.f(e, 0.0)) for m in trio.members()])
    assert np.max(np.abs(drifts / (-e) - 1.0)) < 0.01


def test_relativistic_commutes_for_constant_noise():
    trio = relativistic_models(RelativisticParams())
    es = np.linspace(1.05, 8.0, 100)
    for member in (trio.stratonovich, trio.hk):
        conv = to_ito(member)
        assert np.max(np.abs(conv.f(es, 0.0) - trio.ito.f(es, 0.0))) < 1e-10


def test_relativistic_rejects_energy_below_rest_mass():
    with pytest.raises(ValueError):
        relativistic_models(RelativisticParams(M=2.0)).ito.__class__(
            f=lambda x, t: x, g=lambda x, t: 1.0,
            interpretation=Interpretation.ITO, x0=1.0, domain=(2.0, math.inf))


def test_family_lookup():
    assert isinstance(family_models("langevin1"), InterpretationTriple)
    assert isinstance(family_models("langevin2"), InterpretationTriple)
    assert isinstance(family_models("relativistic"), InterpretationTriple)
    with pytest.raises(ValueError):
        family_models("pendulum")


def test_composite_noise_starts_at_zero_and_has_unit_variation():
    grid = TimeGrid.uniform(0.0, 1.0, 2**13)
    u, v, b, w = langevin_velocity_pair(LangevinParams(v0=1.0, u0=0.5), grid,
                                        SeedSpec(13, 7))
    wt = levy_composite_brownian(u, v, b, w)
    assert wt.values[0] == 0.0
    assert realized_variation(wt) == pytest.approx(1.0, abs=0.1)


def test_composite_noise_with_one_silent_component():
    grid = TimeGrid.uniform(0.0, 1.0, 512)
    u, _, b, w = langevin_velocity_pair(LangevinParams(v0=1.0, u0=0.5), grid,
                                        SeedSpec(14, 3))
    v0 = SamplePath(grid, np.zeros(len(grid)))
    wt = levy_composite_brownian(u, v0, b, w)
    expect = np.sign(u.values[:-1]) * b.increments()
    assert np.allclose(wt.increments(), expect, atol=1e-15)
    assert realized_variation(wt) == pytest.approx(realized_variation(b), rel=1e-12)


def test_composite_noise_requires_shared_grid():
    g1 = TimeGrid.uniform(0.0, 1.0, 8)
    g2 = TimeGrid.uniform(0.0, 1.0, 16)
    u, v, b, w = langevin_velocity_pair(LangevinParams(v0=1.0, u0=0.5), g1,
                                        SeedSpec(15))
    other = generate_brownian(g2, SeedSpec(15, 9))
    with pytest.raises(ValueError):
        levy_composite_brownian(u, v, b, other)


def test_rest_start_triptych_single_particle():
    trio = kinetic_models(LangevinParams(v0=0.0))
    ito, strat, hk = rest_start_diagnostics(
        trio, McConfig(n_paths=300, dt=1e-3, horizon=1.0, seed=SeedSpec(16)))
    assert ito.first_step_drift > 0
    assert strat.first_step_drift == 0.0
    assert hk.first_step_drift < 0
    assert ito.interior_fraction == 1.0
    assert strat.interior_fraction == 0.0 and strat.stuck_fraction == 1.0
    assert hk.violation_fraction >= 0.99


def test_rest_start_triptych_two_particles():
    trio = two_particle_models(LangevinParams(v0=0.0, u0=0.0))
    ito, strat, hk = rest_start_diagnostics(
        trio, McConfig(n_paths=300, dt=1e-3, horizon=1.0, seed=SeedSpec(17)))
    assert ito.interior_fraction == 1.0
    assert strat.interior_fraction == 1.0
    assert hk.stuck_fraction == 1.0


def test_rest_start_triptych_relativistic():
    trio = relativistic_models(RelativisticParams(p0=0.0))
    ito, strat, hk = rest_start_diagnostics(
        trio, McConfig(n_paths=300, dt=1e-3, horizon=1.0, seed=SeedSpec(18)))
    assert ito.interior_fraction == 1.0
    assert strat.stuck_fraction == 1.0
    assert hk.violation_fraction >= 0.99


def test_relativistic_energy_floor_flagged_not_clamped_silently():
    trio = relativistic_models(RelativisticParams(p0=0.0))
    res = simulate_path(trio.ito, SolverScheme.EULER_MARUYAMA_ITO_FORM,
                        TimeGrid.uniform(0.0, 1.0, 2000), SeedSpec(19),
                        boundary=None)
    assert np.min(res.path.values) >= 1.0 - 1e-12
    assert not res.terminated_early
    # the flag trail records every clamped excursion below the floor
    flags = [e for e in res.events if e.kind is EventKind.DOMAIN_VIOLATION]
    for e in flags:
        assert e.value < 1.0 - 1e-12


def test_em_on_ito_kinetic_matches_oracle_law():
    # terminal-distribution agreement at full scale: dt=1e-4, n=1e4, T=1
    trio = kinetic_models(LangevinParams(v0=1.0))
    n = 10_000
    cfg = McConfig(n_paths=n, dt=1e-4, horizon=1.0, seed=SeedSpec(1618))
    ens = simulate_ensemble(trio.ito, SolverScheme.EULER_MARUYAMA_ITO_FORM, cfg,
                            Reflect(0.0), record="terminal")
    oracle = exact_kinetic_terminal(1, 1, 1, 1, [1.0], 1.0, n, SeedSpec(1619))
    assert ks_statistic(ens.terminals, oracle) < 0.03


def test_boundary_hitting_study_returns_all_members():
    trio = kinetic_models(LangevinParams(v0=1.0))
    cfg = McConfig(n_paths=50, dt=1e-3, horizon=2.0, seed=SeedSpec(20))
    out = boundary_hitting_study(trio, 0.0, 1e-3, cfg)
    assert len(out) == 3
    for stats in out:
        assert 0.0 <= stats.fraction_hit <= 1.0


def test_langevin_params_validated():
    with pytest.raises(ValueError):
        LangevinParams(m=0.0)
    with pytest.raises(ValueError):
        two_particle_models(LangevinParams(v0=1.0))  # missing u0
    with pytest.raises(ValueError):
        RelativisticParams(M=-1.0)


def test_relativistic_d_hat_prime_needs_its_d_hat():
    # d_hat_prime = e/2 beside the default constant d_hat would give the
    # Stratonovich drift -1.125 at E = 2, where constant noise gives -1.5
    with pytest.raises(ValueError, match="d_hat_prime"):
        RelativisticParams(d_hat_prime=lambda e: 0.5 * np.asarray(e, dtype=float))
    assert float(relativistic_models(RelativisticParams()).stratonovich.f(2.0, 0.0)) == -1.5


def test_every_run_spec_field_changes_every_result():
    """Each function that takes a McConfig reads its path count, step,
    horizon and seed: changing any one of them changes the result."""
    walk = SdeModel(f=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                    g=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
                    interpretation=Interpretation.ITO, x0=0.5)
    smooth = SdeModel(f=lambda x, t: -np.asarray(x, dtype=float),
                      g=lambda x, t: np.sqrt(1.0 + np.asarray(x, dtype=float) ** 2),
                      interpretation=Interpretation.ITO, x0=1.0)
    trio = kinetic_models(LangevinParams(v0=1.0))
    runs = {
        "hitting_time": lambda c: hitting_time(walk, SolverScheme.DIRECT_LEFT, 0.0, 0.05, c),
        "kinetic_oracle_hitting": lambda c: kinetic_oracle_hitting(
            1, 1, 1, 1, [1.0], 0.0, 0.05, c),
        "boundary_hitting_study": lambda c: boundary_hitting_study(trio, 0.0, 0.05, c),
        "rest_start_diagnostics": lambda c: rest_start_diagnostics(trio, c),
        "strong_convergence_order": lambda c: strong_convergence_order(
            smooth, SolverScheme.EULER_MARUYAMA_ITO_FORM, c, 3),
    }
    base = McConfig(n_paths=4, dt=0.125, horizon=1.0, seed=SeedSpec(1))
    variants = {"n_paths": replace(base, n_paths=5), "dt": replace(base, dt=0.0625),
                "horizon": replace(base, horizon=2.0),
                "seed": replace(base, seed=SeedSpec(1001))}
    # the base runs are not degenerate: some walks hit, some do not
    assert 0 < runs["hitting_time"](base).n_hit < base.n_paths
    assert 0 < rest_start_diagnostics(trio, base)[2].violation_fraction < 1
    same = [(name, field) for name, run in runs.items() for field, cfg in variants.items()
            if run(cfg) == run(base)]
    assert same == []


def test_relativistic_finite_difference_d_prime_matches_analytic():
    d_hat = lambda e: 1.0 + 0.25 * np.asarray(e, dtype=float) ** 2
    d_hat_prime = lambda e: 0.5 * np.asarray(e, dtype=float)
    exact = relativistic_models(RelativisticParams(M=1.0, d_hat=d_hat, d_hat_prime=d_hat_prime))
    fd = relativistic_models(RelativisticParams(M=1.0, d_hat=d_hat))
    # M itself and M + 5e-7 (inside the step h = 1e-6) take one-sided stencils
    es = np.array([1.0, 1.0 + 5e-7, 1.0 + 1e-4, 1.5, 3.0, 10.0, 250.0])
    for a, b in zip(exact.members(), fd.members()):
        assert np.max(np.abs(a.f(es, 0.0) - b.f(es, 0.0))) < 1e-6
        assert abs(float(a.f(1.2, 0.0)) - float(b.f(1.2, 0.0))) < 1e-6
    above = es[1:]
    assert np.max(np.abs(exact.ito.dgdx(above, 0.0) - fd.ito.dgdx(above, 0.0))) < 1e-6
