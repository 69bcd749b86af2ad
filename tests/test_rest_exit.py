"""A seeded run that starts at a rest point of its scheme is not stepped.

The engine returns the initial result, with every recorded row at ``x0``,
when ``f`` and ``g`` vanish exactly at ``x0`` wherever a step evaluates
them and the boundary projection gives ``x0`` back.  Each case below is
compared bit for bit, sign bits included, with the frozen step loop of
``test_engine_reference``, which steps every run.
"""
from dataclasses import replace

import numpy as np
import pytest

from noisecalc import expr as xp
from noisecalc.paths import PathNoise, SeedSpec
from noisecalc.physics import (LangevinParams, RelativisticParams, kinetic_models,
                               relativistic_models, two_particle_models)
from noisecalc.sde import Interpretation, SdeModel
from noisecalc.solvers import STOP_ON_VIOLATION, Reflect, SolverScheme, _run_engine
from test_engine_reference import _assert_same_raw, _reference_engine

MIDPOINT, RIGHT, LEFT = (SolverScheme.DIRECT_MIDPOINT_HEUN,
                         SolverScheme.DIRECT_RIGHT_PREDICTOR_CORRECTOR, SolverScheme.DIRECT_LEFT)
TIMES = np.arange(131) * 2.0**-8
N_PATHS = 70

# name: (model, scheme, boundary, a hit level and band the start is outside of);
# the member of each family that is frozen at its lower edge
REST = {
    "langevin1-stratonovich": (
        lambda: kinetic_models(LangevinParams(v0=0.0)).stratonovich, MIDPOINT,
        Reflect(0.0), (0.5, 0.1)),
    "langevin2-hk": (
        lambda: two_particle_models(LangevinParams(v0=0.0, u0=0.0)).hk, RIGHT,
        STOP_ON_VIOLATION, (0.5, 0.1)),
    "relativistic-stratonovich": (
        lambda: relativistic_models(RelativisticParams()).stratonovich, MIDPOINT,
        Reflect(1.0), (1.5, 0.1)),
}
OPTIONS = {
    "terminal": lambda level: {},
    "path-stride-3": lambda level: dict(record="path", record_stride=3),
    "hit-level": lambda level: dict(hit_level=level[0], hit_band=level[1]),
}


def _both(model, scheme, boundary, seed=SeedSpec(11, 60), **opts):
    return [engine(model, scheme, TIMES, N_PATHS, seed, boundary, **opts)
            for engine in (_run_engine, _reference_engine)]


@pytest.mark.parametrize("options", sorted(OPTIONS))
@pytest.mark.parametrize("case", sorted(REST))
def test_a_rest_start_equals_the_reference_loop(case, options):
    make, scheme, boundary, level = REST[case]
    model = make()
    got, want = _both(model, scheme, boundary, **OPTIONS[options](level))
    _assert_same_raw(got, want)
    # the case is a rest start: nothing moved, and the start is not negative zero
    assert not want.moved.any() and np.all(want.terminal == model.x0)
    assert not np.signbit(model.x0)
    if want.recorded is not None:
        assert np.all(got.recorded == model.x0)


@pytest.mark.parametrize("case", sorted(REST))
def test_a_rest_start_draws_no_noise(monkeypatch, case):
    make, scheme, boundary, _ = REST[case]
    draws, opened = [], []
    real_init, real_draw = PathNoise.__init__, PathNoise.draw

    def init(self, seed, n_paths):
        opened.append(n_paths)
        real_init(self, seed, n_paths)

    def draw(self, ids, width):
        draws.append(width)
        return real_draw(self, ids, width)

    monkeypatch.setattr(PathNoise, "__init__", init)
    monkeypatch.setattr(PathNoise, "draw", draw)
    _run_engine(make(), scheme, TIMES, N_PATHS, SeedSpec(11, 60), boundary)
    assert opened == [N_PATHS] and draws == []
    # the same member off its edge draws
    _run_engine(replace(make(), x0=make().x0 + 0.5), scheme, TIMES, N_PATHS, SeedSpec(11, 60),
                boundary)
    assert draws


def _custom(f, g, x0, tag, domain=(-np.inf, np.inf)):
    return SdeModel(f=xp.vector_fn(xp.parse(f)), g=xp.vector_fn(xp.parse(g)),
                    interpretation=tag, x0=x0, domain=domain)


@pytest.mark.parametrize("tag, scheme", [(Interpretation.ITO, LEFT),
                                         (Interpretation.STRATONOVICH, MIDPOINT),
                                         (Interpretation.HAENGGI_KLIMONTOVICH, RIGHT)])
def test_a_start_at_rest_only_at_t0_is_stepped(tag, scheme):
    # f = t vanishes at t0 only; g = x vanishes while x stays at 0
    got, want = _both(_custom("t", "x", 0.0, tag), scheme, None, record="path")
    _assert_same_raw(got, want)
    assert want.moved.all()


@pytest.mark.parametrize("case", ["langevin1-stratonovich", "langevin2-hk"])
def test_a_negative_zero_start_is_stepped(case):
    # the first step adds +0.0 to -0.0: the state becomes +0.0
    make, scheme, boundary, _ = REST[case]
    got, want = _both(replace(make(), x0=-0.0), scheme, boundary, record="path")
    _assert_same_raw(got, want)
    assert not np.signbit(want.terminal).any()


def _rest_run(monkeypatch, model, boundary):
    """The engine's and the reference's recorded midpoint runs, which must
    agree bit for bit, and the widths of the engine's noise draws."""
    draws, real = [], PathNoise.draw

    def draw(self, ids, width):
        draws.append(width)
        return real(self, ids, width)

    with monkeypatch.context() as m:
        m.setattr(PathNoise, "draw", draw)
        got = _run_engine(model, MIDPOINT, TIMES, N_PATHS, SeedSpec(11, 60), boundary,
                          record="path")
    want = _reference_engine(model, MIDPOINT, TIMES, N_PATHS, SeedSpec(11, 60), boundary,
                             record="path")
    _assert_same_raw(got, want)
    return got, want, draws


@pytest.mark.parametrize("x0", [0.41, 0.1, 1.0], ids=["inside", "lower-end", "upper-end"])
def test_a_start_in_a_finite_reflection_interval_rests(monkeypatch, x0):
    # a fold leaves a value that did not cross as it is, the ends included
    model = _custom("0", "0", x0, Interpretation.STRATONOVICH, (0.1, 1.0))
    got, want, draws = _rest_run(monkeypatch, model, Reflect(0.1, 1.0))
    assert draws == []
    assert not want.moved.any() and not want.reflections.any()
    assert np.all(want.terminal == x0)


def test_given_increments_are_stepped():
    # 0 * inf is NaN: a non-finite increment moves a path that is at rest
    model = kinetic_models(LangevinParams(v0=0.0)).stratonovich
    dw = np.zeros((2, TIMES.size - 1))
    dw[1, 5] = np.inf
    with np.errstate(invalid="ignore"):
        raw = _run_engine(model, MIDPOINT, TIMES, 2, dw, None)
    assert np.isnan(raw.terminal[1]) and raw.terminal[0] == 0.0


def test_a_positive_zero_start_on_a_negative_zero_edge_rests(monkeypatch):
    # the clamp gives a zero in the domain back with its sign
    model = _custom("0", "x", 0.0, Interpretation.STRATONOVICH, (-0.0, 1.0))
    got, want, draws = _rest_run(monkeypatch, model, None)
    assert draws == []
    assert not want.moved.any() and not np.signbit(got.recorded).any()


def test_a_midpoint_that_overflows_is_stepped():
    # 0.5 * (x0 + x0) is inf: each corrector point is a violation, clamped
    model = _custom("0", "0", 1e308, Interpretation.STRATONOVICH, (0.0, 1.5e308))
    with np.errstate(over="ignore"):
        got, want = _both(model, MIDPOINT, None, record="path")
    _assert_same_raw(got, want)
    assert np.all(want.violations == TIMES.size - 1)
