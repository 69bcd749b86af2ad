"""The benchmark tracer installs on today's module attributes and puts
them back: a rename in ``src/`` that breaks ``perfbench --trace 1`` fails here."""
import importlib.util
from pathlib import Path

import noisecalc.cli as cli
import noisecalc.physics as physics

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_install_then_uninstall_restores_the_patched_attributes():
    watched = [(cli, "main"), (cli, "evolve_fpe"), (physics, "_run_engine"),
               (physics, "hitting_time")]
    before = [getattr(owner, attr) for owner, attr in watched]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not old
                   for (owner, attr), old in zip(watched, before))
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is old for (owner, attr), old in zip(watched, before))
