"""``tools/reach.py``: the functions no workload, demo or CLI command enters are its ``KEPT``."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "reach.py"


def _kept() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    path = sys.path[:]
    try:
        spec.loader.exec_module(module)  # puts src/ and bench/ on the path
    finally:
        sys.path[:] = path
    return module.KEPT


def test_unreached_functions_are_exactly_the_kept_ones():
    proc = subprocess.run(
        [sys.executable, str(TOOL)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        timeout=300,
    )
    assert proc.stdout, proc.stderr  # the runs finished
    lines = [line.split("  ", 1) for line in proc.stdout.splitlines()]
    unreached = {name for name, verdict in lines if verdict != "REACHED"}
    kept = _kept()
    assert sorted(unreached - set(kept)) == []  # unreached, not kept: remove it or keep it
    assert sorted(set(kept) - unreached) == []  # kept, but something reaches it now
    assert proc.returncode == 0, proc.stderr
