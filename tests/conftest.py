import numpy as np

from noisecalc.paths import BLOCK, PathNoise


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def euler_terminal_matrix(f, g, x0, dt, dw):
    """Euler stepping of an Ito model across a (n_paths, n_steps) increment
    matrix; returns the full (n_paths, n_steps + 1) state history."""
    n_paths, n_steps = dw.shape
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = x0
    x = np.full(n_paths, float(x0))
    for k in range(n_steps):
        t = k * dt
        x = x + f(x, t) * dt + g(x, t) * dw[:, k]
        out[:, k + 1] = x
    return out


def path_noise(seed, n_paths: int, n_steps: int) -> np.ndarray:
    """The (n_steps, n_paths) standard normals that the ensemble engine
    draws for a run seeded ``seed``, taken in one call of ``PathNoise``."""
    tiles, at = PathNoise(seed, n_paths).draw(np.arange(n_paths), n_steps)
    return tiles[at + BLOCK * np.arange(n_steps)[:, None]]
