import math

import numpy as np
import pytest

from noisecalc import expr as xp
from noisecalc.sde import (
    Interpretation,
    SdeModel,
    finite_diff_gprime,
    from_ito,
    to_ito,
)


def _kinetic_hk():
    # m = gamma = sigma = 1: f = -1/2 - 2K, g = sqrt(2K)
    return SdeModel(
        f=lambda x, t: -0.5 - 2.0 * np.asarray(x, dtype=float),
        g=lambda x, t: np.sqrt(2.0 * np.asarray(x, dtype=float)),
        dgdx=lambda x, t: 1.0 / np.sqrt(2.0 * np.asarray(x, dtype=float)),
        interpretation=Interpretation.HAENGGI_KLIMONTOVICH,
        x0=1.0,
        domain=(0.0, math.inf),
    )


def test_hk_kinetic_converts_to_ito_drift():
    ito = to_ito(_kinetic_hk())
    assert ito.interpretation is Interpretation.ITO
    # at K=1 the HK drift -2.5 gains g g' = 1, landing at -1.5 = 1/2 - 2K
    assert float(ito.f(1.0, 0.0)) == pytest.approx(-1.5, abs=1e-12)
    xs = np.linspace(0.2, 5.0, 50)
    assert np.allclose(ito.f(xs, 0.0), 0.5 - 2.0 * xs, atol=1e-10)


def test_stratonovich_kinetic_converts_with_half_offset():
    strat = SdeModel(
        f=lambda x, t: -2.0 * np.asarray(x, dtype=float),
        g=lambda x, t: np.sqrt(2.0 * np.asarray(x, dtype=float)),
        dgdx=lambda x, t: 1.0 / np.sqrt(2.0 * np.asarray(x, dtype=float)),
        interpretation=Interpretation.STRATONOVICH,
        x0=1.0,
        domain=(0.0, math.inf),
    )
    assert float(to_ito(strat).f(1.0, 0.0)) == pytest.approx(-1.5, abs=1e-12)


def test_state_independent_diffusion_changes_nothing():
    for tag in Interpretation:
        m = SdeModel(
            f=lambda x, t: np.sin(np.asarray(x, dtype=float)),
            g=lambda x, t: 2.0 + 0.5 * np.sin(t),
            dgdx=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            interpretation=tag,
            x0=0.0,
        )
        ito = to_ito(m)
        xs = np.linspace(-3, 3, 40)
        for tt in (0.0, 0.7):
            assert np.allclose(ito.f(xs, tt), m.f(xs, tt), atol=1e-14)


def test_round_trip_identity_random_points():
    m = _kinetic_hk()
    back = from_ito(to_ito(m), m.interpretation)
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.1, 6.0, 100)
    assert np.max(np.abs(back.f(xs, 0.0) - m.f(xs, 0.0))) < 1e-10


def test_from_ito_reproduces_hk_kinetic_drift():
    ito = SdeModel(
        f=lambda x, t: 0.5 - 2.0 * np.asarray(x, dtype=float),
        g=lambda x, t: np.sqrt(2.0 * np.asarray(x, dtype=float)),
        dgdx=lambda x, t: 1.0 / np.sqrt(2.0 * np.asarray(x, dtype=float)),
        interpretation=Interpretation.ITO,
        x0=1.0,
        domain=(0.0, math.inf),
    )
    hk = from_ito(ito, Interpretation.HAENGGI_KLIMONTOVICH)
    xs = np.linspace(0.3, 4.0, 30)
    assert np.allclose(hk.f(xs, 0.0), -0.5 - 2.0 * xs, atol=1e-10)


def test_from_ito_identity_target():
    ito = to_ito(_kinetic_hk())
    assert from_ito(ito, Interpretation.ITO) is ito


def test_from_ito_rejects_non_ito_input():
    with pytest.raises(ValueError):
        from_ito(_kinetic_hk(), Interpretation.STRATONOVICH)


def test_offset_ladder_ordering():
    # same nominal f with g g' > 0: Ito drift ladder HK > Strat > Ito
    def build(tag):
        return SdeModel(
            f=lambda x, t: -np.asarray(x, dtype=float),
            g=lambda x, t: 1.0 + np.asarray(x, dtype=float) ** 2,
            dgdx=lambda x, t: 2.0 * np.asarray(x, dtype=float),
            interpretation=tag,
            x0=1.0,
        )

    x = 1.3
    drifts = {tag: float(to_ito(build(tag)).f(x, 0.0)) for tag in Interpretation}
    assert drifts[Interpretation.HAENGGI_KLIMONTOVICH] > \
        drifts[Interpretation.STRATONOVICH] > drifts[Interpretation.ITO]


def test_conversion_uses_finite_differences_without_dgdx():
    m = SdeModel(
        f=lambda x, t: 0.0 * np.asarray(x, dtype=float),
        g=lambda x, t: np.asarray(x, dtype=float) ** 2 + 1.0,
        interpretation=Interpretation.HAENGGI_KLIMONTOVICH,
        x0=0.0,
    )
    ito = to_ito(m)
    # g g' = 2x (x^2 + 1)
    assert float(ito.f(2.0, 0.0)) == pytest.approx(20.0, rel=1e-6)


def test_finite_diff_polynomial():
    g = lambda x, t: x**2
    res = finite_diff_gprime(g, 3.0, 0.0)
    assert res.value == pytest.approx(6.0, abs=1e-6)
    assert not res.one_sided


def test_finite_diff_constant():
    res = finite_diff_gprime(lambda x, t: 5.5, 1.0, 0.0)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_finite_diff_one_sided_near_edge():
    g = lambda x, t: math.sqrt(2.0 * x)
    res = finite_diff_gprime(g, 1e-8, 0.0, domain=(0.0, math.inf))
    assert res.one_sided


def test_model_validation():
    with pytest.raises(ValueError):
        SdeModel(f=lambda x, t: x, g=lambda x, t: 1.0,
                 interpretation=Interpretation.ITO, x0=2.0, domain=(0.0, 1.0))
    with pytest.raises(ValueError):
        SdeModel(f=lambda x, t: x, g=lambda x, t: 1.0,
                 interpretation=Interpretation.ITO, x0=0.0, domain=(1.0, 1.0))


def test_interpretation_names():
    assert Interpretation.from_name("hk") is Interpretation.HAENGGI_KLIMONTOVICH
    assert Interpretation.from_name("Stratonovich") is Interpretation.STRATONOVICH
    with pytest.raises(ValueError):
        Interpretation.from_name("euler")


def test_round_trip_randomized_models():
    rng = np.random.default_rng(17)
    for k in range(10):
        a, b, c = rng.uniform(-1.5, 1.5, 3)
        tag = list(Interpretation)[int(rng.integers(0, 3))]
        m = SdeModel(
            f=lambda x, t, a=a, b=b: a * np.asarray(x, dtype=float) + b,
            g=lambda x, t, c=c: 1.2 + 0.5 * np.sin(c * np.asarray(x, dtype=float)),
            dgdx=lambda x, t, c=c: 0.5 * c * np.cos(c * np.asarray(x, dtype=float)),
            interpretation=tag,
            x0=0.0,
        )
        back = from_ito(to_ito(m), tag)
        xs = rng.uniform(-4, 4, 100)
        ts = rng.uniform(0, 2, 100)
        for x, t in zip(xs, ts):
            assert abs(float(back.f(x, t)) - float(m.f(x, t))) < 1e-10


def _scalar_gprime(g, x, t, domain):
    """The scalar stencil that ``finite_diff_gprime`` vectorized."""
    h = max(1e-6, 1e-6 * abs(x))
    lo, hi = domain
    left_ok, right_ok = x - h >= lo, x + h <= hi
    if left_ok and right_ok:
        return (float(g(x + h, t)) - float(g(x - h, t))) / (2 * h), False
    if right_ok:
        return (float(g(x + h, t)) - float(g(x, t))) / h, True
    return (float(g(x, t)) - float(g(x - h, t))) / h, True


def _loop_gprime(model, xs, t):
    """The per-element loop that ``SdeModel.gprime`` replaced."""
    pairs = [_scalar_gprime(model.g, float(v), t, model.domain) for v in xs]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def _fd_models():
    rng = np.random.default_rng(17)
    full = SdeModel(f=lambda x, t: -x, g=xp.vector_fn(xp.parse("0.5 + abs(x) + 0.1*sin(x)")),
                    interpretation=Interpretation.HAENGGI_KLIMONTOVICH, x0=0.0)
    half = SdeModel(f=lambda x, t: 0.0 * x, g=lambda x, t: np.sqrt(2.0 * np.asarray(x, dtype=float)),
                    interpretation=Interpretation.HAENGGI_KLIMONTOVICH, x0=1.0,
                    domain=(0.0, math.inf))
    bounded = SdeModel(f=lambda x, t: 0.0 * x,
                       g=lambda x, t: 1.0 + np.asarray(x, dtype=float) * (1.0 - x),
                       interpretation=Interpretation.STRATONOVICH, x0=0.5, domain=(0.0, 1.0))
    return [
        (full, np.concatenate([rng.normal(0.0, 3.0, 500), [0.0, -1e-7, 1e-7, 1e6, -1e6]])),
        (half, np.concatenate([rng.exponential(2.0, 500), [0.0, 1e-8, 1e-6, 2e-6, 1e-3]])),
        (bounded, np.concatenate([rng.uniform(0.0, 1.0, 500),
                                  [0.0, 1.0, 1e-8, 1.0 - 1e-8, 1e-6, 1.0 - 1e-6]])),
    ]


@pytest.mark.parametrize("case", range(3), ids=["full-line", "half-line", "bounded"])
def test_vector_gprime_matches_scalar_loop_bit_for_bit(case):
    model, xs = _fd_models()[case]
    ref_value, ref_flag = _loop_gprime(model, xs, 0.3)
    assert np.array_equal(model.gprime(xs, 0.3), ref_value)
    res = finite_diff_gprime(model.g, xs, 0.3, domain=model.domain)
    assert np.array_equal(res.value, ref_value)
    assert np.array_equal(res.one_sided, ref_flag)
    assert ref_flag.any() == (case > 0)
    # a scalar in gives Python floats out, the same numbers
    one = finite_diff_gprime(model.g, float(xs[-1]), 0.3, domain=model.domain)
    assert type(one.value) is float and type(one.one_sided) is bool
    assert (one.value, one.one_sided) == (ref_value[-1], ref_flag[-1])
    assert model.gprime(float(xs[-1]), 0.3) == ref_value[-1]


def test_vector_gprime_rejects_points_outside_or_without_room():
    g = lambda x, t: np.asarray(x, dtype=float) ** 2
    with pytest.raises(ValueError, match="outside domain"):
        finite_diff_gprime(g, np.array([0.5, -0.1]), 0.0, domain=(0.0, 1.0))
    with pytest.raises(ValueError, match="too narrow"):
        finite_diff_gprime(g, np.array([0.0, 5e-7]), 0.0, domain=(0.0, 1e-6))


def test_vector_gprime_gives_nan_at_a_nan_point():
    # a diverged state is not a stencil error; the other points keep their value
    g = lambda x, t: 0.5 + np.abs(x)
    res = finite_diff_gprime(g, np.array([np.nan, 2.0, np.inf]), 0.0)
    assert np.isnan(res.value[0]) and res.value[1] == finite_diff_gprime(g, 2.0, 0.0).value
    assert math.isnan(finite_diff_gprime(g, math.nan, 0.0, domain=(0.0, math.inf)).value)


def test_conversion_without_dgdx_evaluates_g_three_times():
    calls = []

    def g(x, t):
        calls.append(np.size(x))
        return 0.5 + np.abs(x)

    m = SdeModel(f=lambda x, t: -x, g=g, interpretation=Interpretation.HAENGGI_KLIMONTOVICH,
                 x0=0.0)
    xs = np.linspace(-2.0, 2.0, 256)
    drift = to_ito(m).f(xs, 0.0)
    assert len(calls) <= 3 and set(calls) == {256}
    assert np.allclose(drift, -xs + (0.5 + np.abs(xs)) * np.sign(xs), atol=1e-8)
