"""The benchmark tracer wraps oculogate functions by name; every name it
lists must exist, so a rename or deletion fails here rather than in a
benchmark run."""

import importlib
import importlib.util
import os
import pkgutil

import oculogate

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def test_tracer_installs_over_every_module():
    for info in pkgutil.iter_modules(oculogate.__path__):
        importlib.import_module(f"oculogate.{info.name}")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from oculogate import gate

    original = gate.run_gate
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert gate.run_gate is not original
    finally:
        tracer.uninstall()
    assert gate.run_gate is original
    assert len(tracer.names) == len(tracing.TARGETS) + 1
