"""Size of a Python package: lines, dataclass init fields, defaulted parameters.

    python3 tools/src_stats.py src/noisecalc

Walks every ``*.py`` file under the given directory and prints three counts:

* ``lines``: physical lines, as ``wc -l`` counts them;
* ``dataclass_init_fields``: annotated fields of ``@dataclass`` classes that
  ``__init__`` takes (not ``ClassVar``, not ``field(init=False)``);
* ``defaulted_params``: parameters with a default value, over every ``def``
  (methods and nested functions included, lambdas not).

The last two count the values a caller can set: each one doubles the
configurations that tests must cover.  Standard library only.
"""
from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _takes_init(stmt: ast.AnnAssign) -> bool:
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
        for kw in value.keywords:
            if kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False:
                return False
    return True


def module_stats(source: str) -> dict[str, int]:
    """The three counts of one module's source text."""
    tree = ast.parse(source)
    fields = defaults = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(1 for s in node.body
                          if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                          and _takes_init(s))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            defaults += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return {"lines": source.count("\n"), "dataclass_init_fields": fields,
            "defaulted_params": defaults}


def package_stats(root: Path) -> dict[str, int]:
    """The counts of every ``*.py`` file under ``root``, summed."""
    total = {"lines": 0, "dataclass_init_fields": 0, "defaulted_params": 0}
    for path in sorted(root.rglob("*.py")):
        for key, value in module_stats(path.read_text(encoding="utf-8")).items():
            total[key] += value
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=Path, help="package directory, e.g. src/noisecalc")
    args = parser.parse_args(argv)
    if not args.package.is_dir():
        print(f"not a directory: {args.package}", file=sys.stderr)
        return 2
    for key, value in package_stats(args.package).items():
        print(f"{key} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
