"""The summary arithmetic and output comparison of ``tools/bench_pairs.py``."""
import importlib.util
import json
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


def test_bytecode_caches_are_gone_before_each_run(tmp_path, monkeypatch):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "src" / "pkg" / "__pycache__").mkdir(parents=True)
        (tree / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"")
        (tree / "src" / "pkg" / "mod.py").write_text("")
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": _SPEC}))
    seen = []

    def run(tree, workload, seed, seconds):
        # a cache planted again after the first run must be gone by the next
        seen.append((tree, list((tree / "src").rglob("__pycache__"))))
        (tree / "src" / "pkg" / "__pycache__").mkdir()
        return {"wall_s": 1.0, "correct": True, "attempted": 1, "failed": 0}

    monkeypatch.setattr(bench_pairs, "CHANGE", trees["change"])
    monkeypatch.setattr(bench_pairs, "_run", run)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", str(trees["parent"]), "--workload", "w", "--seeds", "1",
                      "--pairs", "2", "--seconds", "1", "--out", str(out)])
    assert [tree for tree, _ in seen] == [trees[s] for s in ("parent", "change", "change",
                                                             "parent")]
    assert all(caches == [] for _, caches in seen)
    assert (trees["parent"] / "src" / "pkg" / "mod.py").exists()
    runs = json.loads(out.read_text())["workloads"]["w"]["runs"]
    assert [r["src_caches_cleared"] for r in runs] == [True, True]
