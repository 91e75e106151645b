"""Minor page faults and wall time per call: one default training, then repeated evaluations.

The training is ``configs/default.cfg`` on the bundled splits. Each
evaluation is ``trainer.evaluate_params`` (t2v) of the trained model on a
generated gallery, by default 128 identities x 16 rows per modality: 2 x 2048
rows, the ``eval_gallery`` benchmark shape. Every call is measured inside
this process, with ``resource.getrusage`` minor faults and
``time.perf_counter`` on both sides, so a build that reallocates large
temporaries on every block shows as faults per call. Each call then runs a
second time, untimed, under ``tracemalloc``: ``traced_peak_kb`` is that
run's peak of Python-allocated memory (numpy arrays included) above its
start. Unlike the resident set size, it does not move with where the
checkout lies or what the process mapped before.

With ``--processes N`` the script instead runs itself in N fresh
interpreters, one after another, and prints each one's median evaluation
wall time. A process keeps the speed mode its set-up (the training) left it
in, so N medians show which modes the evaluation lands in, and how often,
without the benchmark.

Run from the repository root (``OPENBLAS_NUM_THREADS=1`` runs BLAS on one
thread, as the benchmark does)::

    OPENBLAS_NUM_THREADS=1 python tools/faults.py   # 2 x 2048 rows, 5 evaluations
    python tools/faults.py --ids 8 --per 4 --calls 2
    OPENBLAS_NUM_THREADS=1 python tools/faults.py --processes 8
"""

from __future__ import annotations

import argparse
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from crossmodal import config, synthdata, trainer  # noqa: E402
from crossmodal.core import RngStream  # noqa: E402


def measured(call):
    """``(result, wall seconds, minor faults)`` of ``call()``."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return result, wall, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def traced_peak_kb(call) -> float:
    """Peak traced allocation of ``call()`` above its start, in KB; the result is dropped."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / 1024
    finally:
        tracemalloc.stop()


def process_medians(argv: list[str], processes: int) -> list[float]:
    """Median evaluation wall time of each of ``processes`` fresh runs of this script on ``argv``."""
    medians = []
    for _ in range(processes):
        run = subprocess.run(
            [sys.executable, __file__, *argv], capture_output=True, text=True, check=True
        )
        rows = [line.split() for line in run.stdout.splitlines() if line.startswith("evaluate")]
        medians.append(statistics.median(float(row[2]) for row in rows))
    return medians


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ids", type=int, default=128, help="gallery identities")
    parser.add_argument("--per", type=int, default=16, help="gallery rows per modality")
    parser.add_argument("--calls", type=int, default=5, help="evaluations to measure")
    parser.add_argument("--seed", type=int, default=0, help="training seed and gallery stream")
    parser.add_argument(
        "--processes", type=int, default=0, help="run in this many fresh processes instead"
    )
    args = parser.parse_args(argv)
    if args.processes < 0:
        parser.error("--processes must be >= 0")
    if args.processes:
        child = [f"--{name}={getattr(args, name)}" for name in ("ids", "per", "calls", "seed")]
        print(f"# evaluate: t2v, 2 x {args.ids * args.per} rows, {args.calls} calls a process")
        print(f"{'process':8s} {'median_wall_s':>13s}")
        for i, median in enumerate(process_medians(child, args.processes), 1):
            print(f"{i:<8d} {median:13.4f}")
        return 0
    cfg = replace(config.parse_config_file(ROOT / "configs" / "default.cfg").train, seed=args.seed)
    train_set = synthdata.load_features(ROOT / "data" / "benchmark_train.csv")
    eval_set = synthdata.load_features(ROOT / "data" / "benchmark_test.csv")
    gallery = synthdata.generate(
        args.ids,
        args.per,
        synthdata.BENCHMARK_LAYOUT,
        synthdata.BENCHMARK_GAP,
        synthdata.BENCHMARK_NOISE,
        RngStream(args.seed).child(2),
    )
    print(f"# evaluate: t2v, 2 x {args.ids * args.per} rows")
    print(f"{'call':12s} {'wall_s':>8s} {'minor_faults':>12s} {'traced_peak_kb':>14s}")

    def train():
        return trainer.train(train_set, cfg.validate(), eval_set)

    def evaluate():
        return trainer.evaluate_params(params, gallery, "t2v")

    (params, _), wall, faults = measured(train)
    print(f"{'train':12s} {wall:8.4f} {faults:12d} {traced_peak_kb(train):14.1f}")
    for call in range(1, args.calls + 1):
        _, wall, faults = measured(evaluate)
        print(f"{'evaluate':8s} {call:<3d} {wall:8.4f} {faults:12d} {traced_peak_kb(evaluate):14.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
