"""Every name the package exports, and every name the benchmark traces, resolves.

``bench/tracing.py`` installs its wrappers by ``getattr``, so a removed or
renamed function in its ``TRACED`` table would break ``bench/run.py --trace 1``
only at benchmark time; this test catches it with the unit tests. So would a
renamed, added or removed gradient-check component: the traced result names
one ``gradcheck.<component>.ms`` metric per component, and it must name
exactly the ``per_layer`` metrics that ``BENCHMARK.json`` declares. A short
traced run of each workload ``BENCHMARK.json`` declares checks the same end
to end: each last line must be a strict-JSON result.
"""

import functools
import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

import crossmodal
from crossmodal import gradcheck

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    traced = _tracing().TRACED
    assert traced
    for module, attr in traced:
        target = importlib.import_module(f"crossmodal.{module}")
        assert callable(functools.reduce(getattr, attr.split("."), target)), (module, attr)


def test_every_exported_name_resolves():
    missing = [name for name in crossmodal.__all__ if not hasattr(crossmodal, name)]
    assert missing == []


def test_traced_metrics_are_the_declared_per_layer_metrics():
    units = _tracing().metric_units(gradcheck.COMPONENTS)
    assert list(units.items()) == [(m["name"], m["unit"]) for m in _BENCHMARK["per_layer"]]


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("workload", [w["name"] for w in _BENCHMARK["workloads"]])
def test_traced_run_ends_in_a_strict_json_result(workload):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0.5", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in _BENCHMARK["per_layer"]]
