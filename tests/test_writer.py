"""The CLI's CSV writer: its bytes, its memory and its atomic rename."""
import tracemalloc

import numpy as np
import pytest

from noisecalc.cli import _CSV_BLOCK, _write_csv


def _reference_csv(header, columns, trailer) -> bytes:
    """The whole file as one string, rows joined one by one: the writer
    before it streamed."""
    rows = [header + "\n"]
    for i in range(0, len(columns[0]), _CSV_BLOCK):
        cells = [map(repr, np.asarray(c[i:i + _CSV_BLOCK]).tolist()) for c in columns]
        rows.extend(",".join(row) + "\n" for row in zip(*cells))
    rows.append(trailer)
    return "".join(rows).encode("utf-8")


@pytest.mark.parametrize("n_rows", [0, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
@pytest.mark.parametrize("trailer", ["", "# extrapolated,0.25\n"])
def test_csv_bytes_at_block_edges(tmp_path, n_rows, trailer):
    rng = np.random.default_rng(n_rows)
    columns = (np.arange(n_rows) * 7, rng.standard_normal(n_rows),
               rng.uniform(-1e-300, 1e300, n_rows))
    path = tmp_path / "table.csv"
    _write_csv(path, "n,a,b", columns, trailer)
    assert path.read_bytes() == _reference_csv("n,a,b", columns, trailer)
    assert not (tmp_path / "table.csv.tmp").exists()


def test_csv_replaces_an_existing_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("old contents that are longer than the new ones\n" * 10)
    _write_csv(path, "x", (np.array([1.5]),), "")
    assert path.read_bytes() == b"x\n1.5\n"


class _Bad:
    def __repr__(self):
        raise RuntimeError("cannot format")


def test_a_failed_write_leaves_nothing_behind(tmp_path):
    """A column that raises in its second block: the first block is already
    in the ``.tmp`` file, which the writer removes on the way out."""
    bad = np.array([0.5] * (_CSV_BLOCK + 3) + [_Bad()], dtype=object)
    path = tmp_path / "table.csv"
    with pytest.raises(RuntimeError, match="cannot format"):
        _write_csv(path, "x,y", (np.arange(bad.size), bad), "")
    assert not (tmp_path / "table.csv.tmp").exists()
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_csv_writer_holds_one_block_at_a_time(tmp_path):
    """100,001 rows of three floats (a 5 MiB file) allocate at most 2 MiB
    beyond the columns: no list of every row, file text or encoded copy is
    held (holding them read about 21 MiB)."""
    rng = np.random.default_rng(4)
    columns = tuple(rng.standard_normal(100_001) for _ in range(3))
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        _write_csv(path, "a,b,c", columns, "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 5 * 2**20
    assert peak - held <= 2 * 2**20

