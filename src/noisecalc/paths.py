"""Brownian sample paths on explicit time grids.

Grids are explicit point sequences so non-uniform partitions are first-class;
a uniform constructor is provided for convenience.  Every random operation is
a pure function of its inputs and a :class:`SeedSpec`.

Ensembles draw through :class:`PathNoise`: path ``i`` of a run seeded
``(master, stream, key)`` is path number ``p = stream + i``, and its noise
is column ``p % BLOCK`` of block ``p // BLOCK``.  Each block has one
generator and draws step-major ``(width, BLOCK)`` tiles, so the draw of
path ``p`` at step ``s`` depends only on ``(master, key, p, s)``: not on
how many other paths run, on how the steps are chunked, or on when other
paths stop.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

__all__ = [
    "BLOCK",
    "SeedSpec",
    "PathNoise",
    "TimeGrid",
    "SamplePath",
    "VectorPath",
    "generate_brownian",
    "generate_brownian_vector",
    "refine_bridge",
]


# Paths per noise block: one generator serves BLOCK consecutive paths.
BLOCK = 64
# Last spawn-key word of every block stream, which keeps block streams apart
# from single-stream users of the same (master, stream, key).
_BLOCK_TAG = 0x626C6B


@dataclass(frozen=True)
class SeedSpec:
    """A 64-bit master seed, a non-negative stream index and a spawn key.

    The triple ``(master, stream, key)`` fully determines every draw of any
    operation consuming it.  Generator state comes from
    ``numpy.random.SeedSequence([master, stream], spawn_key=key)``; with
    the default empty key this is ``SeedSequence([master, stream])``.
    Derived substreams are integer offsets of ``stream``
    (:meth:`shifted`); independent studies take named keys
    (:meth:`child`), so they cannot collide at any stream offset.

    Gaussian variates come from ``Generator.standard_normal`` (ziggurat).
    Bit-exact reproducibility is promised within one build of this package,
    not across numpy versions.
    """

    master: int
    stream: int = 0
    key: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= int(self.master) < 2**64:
            raise ValueError(f"master seed must be a 64-bit unsigned integer, got {self.master}")
        if int(self.stream) < 0:
            raise ValueError(f"stream index must be non-negative, got {self.stream}")
        key = tuple(int(k) for k in self.key)
        if any(k < 0 for k in key):
            raise ValueError(f"spawn key words must be non-negative, got {self.key}")
        object.__setattr__(self, "key", key)

    def shifted(self, offset: int) -> "SeedSpec":
        """Substream at ``stream + offset``, same key."""
        return SeedSpec(self.master, self.stream + offset, self.key)

    def child(self, *key: int) -> "SeedSpec":
        """The same stream under the spawn key extended by ``key``."""
        return SeedSpec(self.master, self.stream, self.key + key)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.master, self.stream], spawn_key=self.key))


class PathNoise:
    """Standard normals for the ``n_paths`` paths of a run seeded ``seed``.

    Path ``i`` is path number ``p = seed.stream + i``: column ``p % BLOCK``
    of block ``p // BLOCK``, whose generator is
    ``SeedSpec(seed.master, p // BLOCK, seed.key + (tag,)).generator()``.
    Every block covering the run is opened here, once.
    """

    stride = BLOCK  # between a path's draws at consecutive steps of a call

    def __init__(self, seed: SeedSpec, n_paths: int):
        p = seed.stream + np.arange(n_paths)
        first = seed.stream // BLOCK
        self._block = p // BLOCK - first
        self._col = p % BLOCK
        self._gens = [
            SeedSpec(seed.master, b, seed.key + (_BLOCK_TAG,)).generator()
            for b in range(first, first + int(self._block[-1]) + 1)
        ]

    def draw(self, ids: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``width`` steps of noise of the paths ``ids``, as
        ``(tiles, at)``: path ``ids[j]``'s draw at step ``s`` of the call is
        ``tiles[at[j] + s * stride]``.

        Each call advances every block holding one of ``ids`` by ``width``
        steps, once, however many of its paths are asked for.  A block left
        out of a call has no further draws, so leave a path out only once it
        and every other path of its block have stopped.  The tiles are drawn
        in place and handed out uncopied.
        """
        blocks, where = np.unique(self._block[ids], return_inverse=True)
        tiles = np.empty((blocks.size, width, BLOCK))
        for j, b in enumerate(blocks):
            self._gens[b].standard_normal(out=tiles[j])
        return tiles.reshape(-1), where * (width * BLOCK) + self._col[ids]


def _frozen_array(values, dtype=np.float64, ndim: int = 1) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing sequence of non-negative times."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _frozen_array(self.points))
        pts = self.points
        if pts.size < 1:
            raise ValueError("a time grid needs at least one point")
        if pts[0] < 0:
            raise ValueError(f"first grid point must be >= 0, got {pts[0]}")
        if not (pts[1:] > pts[:-1]).all():  # a bool per step, not np.diff's float
            raise ValueError("grid points must be strictly increasing")

    @classmethod
    def uniform(cls, t0: float, t1: float, n_steps: int) -> "TimeGrid":
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if not t1 > t0:
            raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
        return cls(np.linspace(t0, t1, n_steps + 1))

    @property
    def n_steps(self) -> int:
        return self.points.size - 1

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def diameter(self) -> float:
        """Largest consecutive spacing."""
        if self.n_steps == 0:
            return 0.0
        return float(self.spacings.max())

    def same_as(self, other: "TimeGrid") -> bool:
        return self is other or np.array_equal(self.points, other.points)

    def __len__(self) -> int:
        return self.points.size


def _check_same_grid(a, b, what: str = "paths") -> None:
    if not a.grid.same_as(b.grid):
        raise ValueError(f"{what} must share one time grid")


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A time grid plus scalar process values, one per grid point."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.size != len(self.grid):
            raise ValueError(
                f"got {self.values.size} values for {len(self.grid)} grid points"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path values must all be finite")

    def increments(self) -> np.ndarray:
        return np.diff(self.values)

    @property
    def initial_value(self) -> float:
        return float(self.values[0])

    @property
    def final_value(self) -> float:
        return float(self.values[-1])

    def write_csv(self, fp: TextIO) -> None:
        """Dump as ``t,value`` rows, shortest round-trip decimals."""
        fp.write("t,value\n")
        for t, v in zip(self.grid.points, self.values):
            fp.write(f"{float(t)!r},{float(v)!r}\n")


@dataclass(frozen=True, eq=False)
class VectorPath:
    """A time grid plus m-component vector values, shape (len(grid), m)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, ndim=2))
        if self.values.shape[0] != len(self.grid):
            raise ValueError(
                f"got {self.values.shape[0]} rows for {len(self.grid)} grid points"
            )
        if self.values.shape[1] < 1:
            raise ValueError("vector paths need at least one component")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path values must all be finite")

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def component(self, k: int) -> SamplePath:
        return SamplePath(self.grid, self.values[:, k])

    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def write_csv(self, fp: TextIO) -> None:
        m = self.dimension
        fp.write("t," + ",".join(f"x{k + 1}" for k in range(m)) + "\n")
        for t, row in zip(self.grid.points, self.values):
            fp.write(f"{float(t)!r}," + ",".join(f"{float(v)!r}" for v in row) + "\n")


def generate_brownian(grid: TimeGrid, seed: SeedSpec) -> SamplePath:
    """Standard Brownian motion sampled on ``grid``, started at 0.

    Increments over a step of length ``dt`` are independent centered
    Gaussians of variance ``dt``.  Identical ``(grid, seed)`` gives
    bit-identical output.
    """
    rng = seed.generator()
    z = rng.standard_normal(grid.n_steps)
    w = np.empty(len(grid))
    w[0] = 0.0
    np.cumsum(np.sqrt(grid.spacings) * z, out=w[1:])
    return SamplePath(grid, w)


def generate_brownian_vector(grid: TimeGrid, m: int, seed: SeedSpec) -> VectorPath:
    """``m`` independent scalar Brownian paths stacked into a VectorPath.

    Component ``c`` draws from the substream ``stream*m + c`` (same master
    and key), so ``m = 1`` reproduces :func:`generate_brownian` exactly.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    cols = []
    for c in range(m):
        sub = SeedSpec(seed.master, seed.stream * m + c, seed.key)
        cols.append(generate_brownian(grid, sub).values)
    return VectorPath(grid, np.column_stack(cols))


def refine_bridge(path: SamplePath, factor: int, seed: SeedSpec) -> SamplePath:
    """Subdivide each grid step into ``factor`` equal substeps.

    Values at the original points are kept; new interior values are drawn
    from the Brownian bridge conditional law between the retained endpoints,
    sampled left to right within each interval (one vectorized normal draw
    per sub-level, in increasing order of the substep index).
    """
    if factor < 2:
        raise ValueError(f"refinement factor must be >= 2, got {factor}")
    if path.grid.n_steps < 1:
        raise ValueError("cannot refine a single-point path")
    # a helper, so that the bridge's temporaries are freed before the new
    # path copies its two arrays: this lowers the peak memory of a refinement
    new_t, new_w = _bridge_points(path.grid.points, path.values, factor, seed)
    return SamplePath(TimeGrid(new_t), new_w)


def _bridge_points(t: np.ndarray, w: np.ndarray, factor: int,
                   seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    """The refined points and values.  Sub-level ``k`` writes straight into
    the strided views ``new_t[k::factor]`` and ``new_w[k::factor]`` and
    reads sub-level ``k - 1`` from the views before them; its temporaries
    are ``out=`` buffers allocated once.  The ufuncs run in the order of
    the plain expressions
    ``tau_k = t + k * sub``,
    ``mean = x + (w_right - x) * (tau_k - tau) / (t_right - tau)``,
    ``var = (tau_k - tau) * (t_right - tau_k) / (t_right - tau)`` and
    ``x_k = mean + sqrt(var) * z``, so the result is the same bit for bit.
    """
    n = t.size - 1
    sub = np.diff(t) / factor
    new_t = np.empty(n * factor + 1)
    new_w = np.empty(n * factor + 1)
    new_t[::factor] = t
    new_w[::factor] = w

    rng = seed.generator()
    t_left, t_right, w_right = t[:-1], t[1:], w[1:]
    rem, step, tmp, z = (np.empty(n) for _ in range(4))
    for k in range(1, factor):
        tau, x = new_t[k - 1::factor][:n], new_w[k - 1::factor][:n]
        tau_k, x_k = new_t[k::factor], new_w[k::factor]
        np.multiply(k, sub, out=tmp)
        np.add(t_left, tmp, out=tau_k)
        np.subtract(t_right, tau, out=rem)
        np.subtract(tau_k, tau, out=step)
        np.subtract(w_right, x, out=tmp)
        np.multiply(tmp, step, out=tmp)
        np.divide(tmp, rem, out=tmp)
        np.add(x, tmp, out=x_k)                  # the bridge mean
        np.subtract(t_right, tau_k, out=tmp)
        np.multiply(step, tmp, out=step)
        np.divide(step, rem, out=step)           # the bridge variance
        np.sqrt(step, out=step)
        rng.standard_normal(out=z)
        np.multiply(step, z, out=z)
        np.add(x_k, z, out=x_k)
    return new_t, new_w
