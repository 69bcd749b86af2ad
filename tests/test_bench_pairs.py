"""The summary arithmetic and output comparison of ``tools/bench_pairs.py``."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_SPEC = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_summary_counts_wins_and_quartiles():
    parent = [4.0, 5.0, 6.0, 7.0, 8.0]
    change = [2.0, 2.5, 6.5, 3.0, 3.5]
    runs = [{"parent": {"wall_s": p}, "change": {"wall_s": c}} for p, c in zip(parent, change)]
    m = bench_pairs.summarise(runs, _SPEC)["wall_s"]
    assert m["change_wins"] == 4 and m["pairs"] == 5
    assert (m["parent"]["q1"], m["parent"]["median"], m["parent"]["q3"]) == (5.0, 6.0, 7.0)
    assert m["change"]["median"] == 3.0
    assert m["median_shift"] == pytest.approx(-0.5)
    assert m["parent_iqr"] == 2.0


def test_outputs_compared_byte_for_byte(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "job").mkdir(parents=True)
        (tmp_path / side / "job" / "x.csv").write_bytes(b"1.0\n")
    assert bench_pairs._differing_outputs(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "job" / "x.csv").write_bytes(b"1.00\n")
    assert bench_pairs._differing_outputs(tmp_path / "a", tmp_path / "b") == ["job/x.csv"]
    (tmp_path / "b" / "job" / "x.csv").write_bytes(b"1.0\n")
    (tmp_path / "b" / "job" / "y.csv").write_bytes(b"")
    assert bench_pairs._differing_outputs(tmp_path / "a", tmp_path / "b") == ["job/y.csv"]
