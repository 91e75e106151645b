"""Every name the package exports, and every name the benchmark traces, resolves.

``bench/tracing.py`` installs its wrappers by ``getattr``, so a removed or
renamed function in its ``TRACED`` table would break ``bench/run.py --trace 1``
only at benchmark time; this test catches it with the unit tests.
"""

import functools
import importlib
import importlib.util
import pathlib

import crossmodal

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced_table():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_resolves():
    traced = _traced_table()
    assert traced
    for module, attr in traced:
        target = importlib.import_module(f"crossmodal.{module}")
        assert callable(functools.reduce(getattr, attr.split("."), target)), (module, attr)


def test_every_exported_name_resolves():
    missing = [name for name in crossmodal.__all__ if not hasattr(crossmodal, name)]
    assert missing == []
