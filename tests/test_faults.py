"""The fault and wall-time probe that ``tools/faults.py`` runs."""

import importlib.util
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _probe():
    spec = importlib.util.spec_from_file_location("faults", ROOT / "tools" / "faults.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measured_counts_the_faults_of_fresh_memory():
    result, wall, faults = _probe().measured(lambda: np.ones(2**22).sum())
    assert result == 2**22
    assert wall > 0 and faults > 0  # 32 MB of new pages, written once


def test_traced_peak_counts_the_memory_a_call_allocates():
    probe = _probe()
    assert probe.traced_peak_kb(lambda: np.ones(2**17).sum()) >= 2**20 / 1024  # 1 MB of float64
    assert probe.traced_peak_kb(lambda: None) < 64


def test_prints_the_training_then_each_evaluation(capsys):
    assert _probe().main(["--ids", "4", "--per", "4", "--calls", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = "call           wall_s minor_faults traced_peak_kb"
    assert lines[:2] == ["# evaluate: t2v, 2 x 16 rows", header]
    rows = [line.split() for line in lines[2:]]
    assert [row[:-3] for row in rows] == [["train"], ["evaluate", "1"], ["evaluate", "2"]]
    for row in rows:
        assert float(row[-3]) > 0 and int(row[-2]) >= 0 and float(row[-1]) > 0


def test_prints_each_fresh_processs_median_evaluation(capsys):
    argv = ["--ids", "4", "--per", "4", "--calls", "3", "--processes", "2"]
    assert _probe().main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# evaluate: t2v, 2 x 16 rows, 3 calls a process", "process  median_wall_s"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["1", "2"]
    assert all(float(row[1]) > 0 for row in rows)
