"""The counts printed by ``tools/src_stats.py`` on a toy package."""
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "src_stats.py"

# 2 init fields (a ClassVar and an init=False field are not taken by
# __init__); 2 defaulted parameters (a keyword-only one without a default
# and a lambda's default do not count).
_TOY = '''\
from dataclasses import dataclass, field
from typing import ClassVar


@dataclass(frozen=True)
class Point:
    x: float
    y: float = 0.0
    kind: ClassVar[str] = "point"
    norm: float = field(default=0.0, init=False)


def scale(p, factor=2.0, *, clip=None, strict):
    return lambda v, k=1: v * k


def shift(p, dx):
    return p
'''


def test_counts_of_a_toy_module(tmp_path):
    (tmp_path / "toy.py").write_text(_TOY, encoding="utf-8")
    done = subprocess.run([sys.executable, str(_SCRIPT), str(tmp_path)],
                          stdout=subprocess.PIPE, text=True, check=True)
    assert done.stdout == "lines 18\ndataclass_init_fields 2\ndefaulted_params 2\n"
