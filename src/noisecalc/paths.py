"""Brownian sample paths on explicit time grids.

Grids are explicit point sequences so non-uniform partitions are first-class;
a uniform constructor is provided for convenience.  Every random operation is
a pure function of its inputs and a :class:`SeedSpec`.

One stream rule holds for the whole package: a stream is ``(master, path
number, key)``.  Path ``i`` of a run seeded ``(master, stream, key)`` is path
number ``stream + i`` (:meth:`SeedSpec.shifted`), and every other
distinction (a study, a study's member, a refinement level, an oracle
component) is a word appended to the key (:meth:`SeedSpec.child`) from the
table below, never an offset added to the stream.

Ensembles draw through :class:`PathNoise`: path number ``p`` is column
``p % BLOCK`` of block ``p // BLOCK``.  Each block has one generator and
draws step-major ``(width, BLOCK)`` tiles, so the draw of path ``p`` at
step ``s`` depends only on ``(master, key, p, s)``: not on how many other
paths run, on how the steps are chunked, or on when other paths stop.
"""
from __future__ import annotations

from dataclasses import dataclass

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
# Intervals a bridge refinement works on at a time (see _bridge_points).
_BRIDGE_BLOCK = 2**14

# Key words of the stream rule; each but the block tag is followed by an index.
REST_START = 1  # rest-start study; then the member (0 Ito, 1 Strat., 2 HK)
HITTING = 2     # boundary hitting study; then the member
REFINE = 3      # Brownian-bridge refinement; then the level (1, 2, ...)
ORACLE = 4      # exact-OU oracle; then the velocity component
# Last word of every block stream, which keeps block streams apart from
# single-stream users of the same (master, stream, key).
_BLOCK_TAG = 0x626C6B


@dataclass(frozen=True)
class SeedSpec:
    """A master seed, a stream index and a spawn key, each word 32-bit.

    The triple ``(master, stream, key)`` fully determines every draw of any
    operation consuming it.  Generator state is that of
    ``numpy.random.SeedSequence([master, stream], spawn_key=key)``; with
    the default empty key this is ``SeedSequence([master, stream])``.
    :meth:`generator` hands SeedSequence the entropy array that this call
    assembles itself (see there), so no word is coerced one at a time.
    ``stream`` is a path number (:meth:`shifted`); every other distinction
    is a key word (:meth:`child`), so no two purposes collide, whatever
    the number of paths.  Each word is below ``2**32``: SeedSequence would
    split a larger one in two (``SeedSpec(5 + 7 * 2**32)`` is ``SeedSpec(5, 7)``).

    Gaussian variates come from ``Generator.standard_normal`` (ziggurat).
    Bit-exact reproducibility is promised within one build of this package,
    not across numpy versions.
    """

    master: int
    stream: int = 0
    key: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        key = tuple(int(k) for k in self.key)
        words = [("master seed", self.master), ("stream index", self.stream)]
        for name, word in words + [("spawn key word", k) for k in key]:
            if not 0 <= int(word) < 2**32:
                raise ValueError(
                    f"{name} must be in [0, 2**32), got {word} (SeedSequence splits a "
                    "larger word into two, which draws another seed's numbers)")
        object.__setattr__(self, "key", key)

    def shifted(self, offset: int) -> "SeedSpec":
        """Path number ``stream + offset``, same key: the seed of path
        ``offset`` of a run seeded ``self``."""
        return SeedSpec(self.master, self.stream + offset, self.key)

    def child(self, *key: int) -> "SeedSpec":
        """The same path number under the spawn key extended by ``key``."""
        return SeedSpec(self.master, self.stream, self.key + key)

    def generator(self) -> np.random.Generator:
        """The generator of ``SeedSequence([master, stream], spawn_key=key)``.

        SeedSequence pads the run entropy ``[master, stream]`` with zeros
        to its pool size of 4 words when a spawn key is given, then appends
        the key; that array is given here as one ``uint32`` array, which it
        takes as it is.  The mapping from words to state is frozen by
        numpy's stream-compatibility policy (NEP 19), so this is the spawn
        key's stream, bit for bit, without its per-word coercion.
        """
        words = [self.master, self.stream, 0, 0, *self.key] if self.key else \
            [self.master, self.stream]
        return np.random.default_rng(
            np.random.SeedSequence(np.array(words, dtype=np.uint32)))


class PathNoise:
    """Standard normals for the ``n_paths`` paths of a run seeded ``seed``.

    Path ``i`` is path number ``p = seed.stream + i``: column ``p % BLOCK``
    of block ``p // BLOCK``, whose generator is
    ``SeedSpec(seed.master, p // BLOCK, seed.key + (tag,)).generator()``.
    Every block covering the run is opened here, once.

    :meth:`columns` and :meth:`draw` take the live paths as ascending ids
    (the engine starts from ``arange(n_paths)`` and only drops paths), so
    the ids of one block are adjacent and its blocks ascend.
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

    def _live_blocks(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The blocks holding the ascending ``ids``, ascending and each once,
        and the position in that list of each id's block.  A block's ids are
        one run of equal block numbers, so a block starts where its number
        differs from the previous id's."""
        block = self._block[ids]
        starts = np.empty(block.size, dtype=bool)
        starts[:1] = True
        np.not_equal(block[1:], block[:-1], out=starts[1:])
        return block[starts], np.cumsum(starts) - 1

    def columns(self, ids: np.ndarray) -> int:
        """Normals a step of :meth:`draw` takes for the ascending paths
        ``ids``: a tile row of each block holding one of them."""
        return self._live_blocks(ids)[0].size * BLOCK

    def draw(self, ids: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``width`` steps of noise of the ascending paths ``ids``,
        as ``(tiles, at)``: path ``ids[j]``'s draw at step ``s`` of the call
        is ``tiles[at[j] + s * stride]``.

        Each call advances every block holding one of ``ids`` by ``width``
        steps, once, however many of its paths are asked for.  A block left
        out of a call has no further draws, so leave a path out only once it
        and every other path of its block have stopped.  The tiles are drawn
        in place and handed out uncopied.
        """
        blocks, where = self._live_blocks(ids)
        tiles = np.empty((blocks.size, width, BLOCK))
        for j, b in enumerate(blocks):
            self._gens[b].standard_normal(out=tiles[j])
        return tiles.reshape(-1), where * (width * BLOCK) + self._col[ids]


def _frozen_array(values, ndim: int = 1) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
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


def _check_same_grid(a, b) -> None:
    if not a.grid.same_as(b.grid):
        raise ValueError("paths must share one time grid")


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

    Component ``c`` draws from path number ``stream*m + c`` (same master
    and key), so ``m = 1`` reproduces :func:`generate_brownian` exactly.
    This is the one layout formula besides the stream rule of the module
    docstring.
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
    sampled left to right within each interval (one normal per interval and
    sub-level, drawn sub-level by sub-level in increasing order of the
    substep index, and within a sub-level in time order).
    """
    if factor < 2:
        raise ValueError(f"refinement factor must be >= 2, got {factor}")
    if path.grid.n_steps < 1:
        raise ValueError("cannot refine a single-point path")
    # a helper, so that the bridge's temporaries are freed before the new
    # path copies its two arrays, and each raw array is dropped as soon as
    # it is copied: this lowers the peak memory of a refinement
    new_t, new_w = _bridge_points(path.grid.points, path.values, factor, seed)
    grid = TimeGrid(new_t)
    del new_t
    return SamplePath(grid, new_w)


def _bridge_points(t: np.ndarray, w: np.ndarray, factor: int,
                   seed: SeedSpec) -> tuple[np.ndarray, np.ndarray]:
    """The refined points and values.  Sub-level ``k`` writes straight into
    the strided views ``new_t[k::factor]`` and ``new_w[k::factor]`` and
    reads sub-level ``k - 1`` from the views before them, a block of at
    most ``_BRIDGE_BLOCK`` intervals at a time, so its temporaries are
    block-sized.  Each block draws its normals in turn, which takes the
    same numbers from the generator as one draw for the whole sub-level.
    """
    n = t.size - 1
    new_t = np.empty(n * factor + 1)
    new_w = np.empty(n * factor + 1)
    new_t[::factor] = t
    new_w[::factor] = w

    rng = seed.generator()
    for k in range(1, factor):
        taus, xs = new_t[k - 1::factor], new_w[k - 1::factor]
        tau_ks, x_ks = new_t[k::factor], new_w[k::factor]
        for lo in range(0, n, _BRIDGE_BLOCK):
            hi = min(lo + _BRIDGE_BLOCK, n)
            t_left, t_right, w_right = t[lo:hi], t[lo + 1:hi + 1], w[lo + 1:hi + 1]
            tau, x = taus[lo:hi], xs[lo:hi]
            sub = (t_right - t_left) / factor
            tau_ks[lo:hi] = tau_k = t_left + k * sub
            mean = x + (w_right - x) * (tau_k - tau) / (t_right - tau)
            var = (tau_k - tau) * (t_right - tau_k) / (t_right - tau)
            x_ks[lo:hi] = mean + np.sqrt(var) * rng.standard_normal(hi - lo)
    return new_t, new_w
