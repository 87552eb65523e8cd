"""The benchmark's tracer names vertexalg entry points; it skips a missing
name silently, so a rename or deletion must be caught here."""

import functools
import gc
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


def test_clear_memo_empties_every_vertexalg_cache():
    # the benchmark's cold passes rely on clear_memo() reaching every memo
    # table; a cache it cannot find (in a closure, an instance or a module
    # it does not scan) would stay full here
    from vertexalg import fock, make_signature
    from vertexalg.words import FreeElement, product

    sig = make_signature(["a", "b"], [[2, 2], [2, 2]])
    wu = ((1, 1), (0, -2))
    u, v = FreeElement({wu: 1}), FreeElement({((0, -1), (1, -1)): 1})
    y = fock.embed(sig, v)
    lhs = fock.embed(sig, product(sig, u, -1, v))
    assert lhs == fock.product_word(sig, fock.charged_word(sig, wu), -1, y)
    assert lhs == fock.product_state(sig, fock.embed(sig, u), -1, y)
    tracing = _tracing()
    tracing.clear_memo()
    caches = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper)
        and obj.__module__.startswith("vertexalg")
    ]
    assert caches
    full = {f"{c.__module__}.{c.__qualname__}": c.cache_info().currsize for c in caches if c.cache_info().currsize}
    assert not full
