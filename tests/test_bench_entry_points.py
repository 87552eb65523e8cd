"""The benchmark's tracer names vertexalg entry points; it skips a missing
name silently, so a rename or deletion must be caught here."""

import importlib
import importlib.util
from pathlib import Path


def _tracing():
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_entry_points_exist():
    for layer, names in _tracing().ENTRY_POINTS.items():
        mod = importlib.import_module(f"vertexalg.{layer}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"vertexalg.{layer}.{name}"
