"""Benchmark for the crossmodal package: four workloads, end-to-end and per-layer metrics.

Run one workload::

    python3 bench/run.py --workload train_default --seed 0 --seconds 27 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
makes a separate traced run and prints the per-layer metrics instead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
``{"detail": ...}`` object with workload-specific figures (throughput,
final retrieval quality, the behaviour fingerprint) that are reported but
not gated.

Run every workload, each run in its own fresh process, and record a result
file with the machine it ran on::

    python3 bench/run.py --workload all --seed 0 --seconds 27 --runs 10 \\
        --out bench/results/BENCH_new.json

End-to-end metrics, every workload (measured with tracing off):

* ``setup_s`` -- median over repeated set-ups of: importing the package in a
  fresh interpreter plus building the workload's inputs from the seed;
* ``run_s`` -- median time of one pass, the first (warm-up) pass excluded;
* ``peak_rss_mb`` -- peak resident set size of the whole process.

Both times are host-speed corrected. A shared host runs the same code up to
~1.8x slower for stretches of seconds to minutes, which moves a wall-clock
median by more than any bound a regression check could use. So the run
interleaves a fixed reference kernel (numpy, interpreter and memory-streaming
work like the program's, defined in this file so the program cannot change
it) with the measured work: before every set-up and pass and once at the end.
Each set-up and pass is scaled by ``REF_NOMINAL_S`` over the mean reference
time at its two sides, so the figures are seconds at the reference host
speed. A change to the program moves them in the same proportion as it moves
wall time; the raw wall times and the reference times are reported beside
them.

The program receives only inputs generated from ``--seed``. BLAS runs on one
thread (pinned below, before numpy loads), so one caller makes one call at a
time and the figures measure the program rather than the scheduler.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP thread variables pinned for the process and its children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREADS = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("train_default", "train_wide", "gradcheck", "eval_gallery")
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
#: Workload-specific figures printed and recorded beside the gated metrics.
DETAIL_UNITS = {
    "steps_per_s": "1/s",
    "queries_per_s": "1/s",
    "final_mean_ap": "1",
    "final_rank1": "1",
    "final_gap_ratio": "ratio",
    "wall_run_s": "s",
    "wall_setup_s": "s",
    "host_ref_s": "s",
}
SETUP_REPEATS = 7
#: About the median reference-kernel time on the 2 vCPU Xeon the baseline was
#: recorded on; a piece of work whose two reference samples average this is
#: reported at its wall time.
REF_NOMINAL_S = 0.030
#: Reference-kernel runs at each sample point (before every pass and set-up, and at the end).
REF_SAMPLES = 4
CHILD_TIMEOUT_S = 900

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import crossmodal\n"
    "print(repr(time.perf_counter() - t))\n"
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _add_scaled(a: int, b: int) -> int:
    return a * 3 + b


def _reference_kernel(feats, weights, big) -> None:
    """Fixed work of the three kinds the program does, in roughly equal time shares.

    Small-matrix numpy calls (like the losses at 64 rows), interpreter work
    (calls, small dicts and lists, like the trainer and batch code) and
    streaming over a few MB (like the wide distance tensors and evaluation).
    Each kind alone tracks the host's slow phases less well than the mix.
    """
    for _ in range(15):
        diff = feats[:, None, :] - feats[None, :, :]
        dist = np.sqrt((diff * diff).sum(-1))
        hidden = np.maximum(feats @ weights, 0.0)
        float(dist.max(1).sum() + hidden.mean())
    total = 0
    for i in range(18000):
        entry = {"a": i, "b": i * 2}
        row = [entry["b"], entry["a"], i % 7]
        row.sort()
        total += _add_scaled(row[0], row[-1])
    x, y, out = big
    for _ in range(8):
        np.add(x, y, out=out)
        np.multiply(out, 0.5, out=x)


class HostSpeed:
    """Reference-kernel timings taken before and after every measured piece of work.

    Each piece is scaled by the reference time at its two sides, so it is
    corrected for the host speed while it ran.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        big = (rng.standard_normal(400_000), rng.standard_normal(400_000), np.empty(400_000))
        self._args = (rng.standard_normal((64, 32)), rng.standard_normal((32, 32)), big)
        self.points: list[float] = []

    def sample(self) -> int:
        """Time the reference kernel; returns the index of this sample point."""
        burst = []
        for _ in range(REF_SAMPLES):
            t0 = time.perf_counter()
            _reference_kernel(*self._args)
            burst.append(time.perf_counter() - t0)
        self.points.append(statistics.median(burst))
        return len(self.points) - 1

    def scaled(self, seconds: float, point: int) -> float:
        """Wall ``seconds`` measured between sample points ``point`` and ``point + 1``,
        in seconds at the reference speed."""
        ref = (self.points[point] + self.points[point + 1]) / 2
        return seconds * REF_NOMINAL_S / ref


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter (a module imports once per process)."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_record() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 has no dict form
        deps = {}
    blas = deps.get("blas", {})
    return {
        "library": blas.get("name"),
        "version": blas.get("version"),
        "threads_pinned": {var: os.environ[var] for var in THREAD_VARS},
        "threads_inherited": INHERITED_THREADS,
    }


def machine_record() -> dict:
    """nproc, cgroup CPU limit, RAM, Python/numpy versions and the BLAS setting."""
    import numpy as np

    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
    }


def _measure(wl, seconds: float, tracer=None, host=None):
    """Closed loop of passes for ``seconds``; pass 0 is an untimed warm-up.

    With a tracer, passes after the warm-up alternate traced and untraced so
    the overhead compares passes made under the same conditions. With a
    ``host``, the reference kernel is sampled before every pass and at the end.
    ``times`` maps traced/untraced to ``(wall seconds, sample point before)``.
    """
    start = time.perf_counter()
    times = {False: [], True: []}
    attempted = failed = 0
    first = None
    index = 0
    while True:
        point = host.sample() if host is not None else None
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            sid = tracer.begin(tracing.PASS_SPAN)
        t0 = time.perf_counter()
        try:
            output = wl.run_pass(index)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.end(sid)
                tracer.uninstall()
        verdicts = wl.check(index, output)
        attempted += len(verdicts)
        failed += verdicts.count(False)
        if index == 0:
            first = output
        else:
            times[traced].append((dt, point))
        index += 1
        enough = (
            index >= wl.MIN_PASSES
            and len(times[False]) >= 1
            and (tracer is None or len(times[True]) >= 1)
        )
        if enough and time.perf_counter() - start + dt > seconds:
            break
    if host is not None:
        host.sample()
    verdicts = wl.final_checks(first)
    attempted += len(verdicts)
    failed += verdicts.count(False)
    return first, times, attempted, failed


def _median_wall(items) -> float:
    return statistics.median(dt for dt, _ in items)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads  # imports the package, so only after SRC is on sys.path

    from crossmodal import gradcheck

    wl = workloads.WORKLOADS[name](seed)
    if trace:
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
        try:
            wl.setup()
        finally:
            setup_tracer.uninstall()
        pass_tracer = tracing.Tracer()
        first, times, attempted, failed = _measure(wl, seconds, pass_tracer)
        overhead = _median_wall(times[True]) / _median_wall(times[False])
        values = tracing.per_layer_metrics(
            setup_tracer, pass_tracer, len(times[True]), gradcheck.COMPONENTS, overhead
        )
        units = tracing.metric_units(gradcheck.COMPONENTS)
        OUT_DIR.mkdir(exist_ok=True)
        setup_tracer.write(OUT_DIR / f"spans-{name}-seed{seed}-setup.jsonl")
        pass_tracer.write(OUT_DIR / f"spans-{name}-seed{seed}-passes.jsonl")
        detail = {"traced_passes": len(times[True]), "untraced_passes": len(times[False])}
    else:
        host = HostSpeed()
        setups = []
        for _ in range(SETUP_REPEATS):
            point = host.sample()
            t_import = import_seconds()
            t0 = time.perf_counter()
            wl.setup()
            setups.append((t_import + time.perf_counter() - t0, point))
        first, times, attempted, failed = _measure(wl, seconds, host=host)
        run_s = statistics.median(host.scaled(*item) for item in times[False])
        values = {
            "setup_s": statistics.median(host.scaled(*item) for item in setups),
            "run_s": run_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
        detail = wl.detail(first, run_s)
        detail.update(
            passes=len(times[False]),
            wall_run_s=_median_wall(times[False]),
            wall_setup_s=_median_wall(setups),
            host_ref_s=statistics.median(host.points),
            host_points_s=host.points,
            pass_times_s=[dt for dt, _ in times[False]],
            setup_times_s=[dt for dt, _ in setups],
            blas=blas_record(),
        )
    detail.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _spread(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"n": len(values), "median": med, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / med if med else None)
    return out


def _run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def run_all(seed: int, seconds: float, runs: int, out_path: str | None) -> dict:
    """Every workload ``runs`` times untraced (seeds seed, seed+1, ...) and once traced."""
    record = {
        "command": sys.argv,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine_record(),
        "seconds": seconds,
        "workloads": {},
    }
    for name in WORKLOAD_NAMES:
        untraced = [_run_child(name, seed + r, seconds, 0) for r in range(runs)]
        traced = _run_child(name, seed, seconds, 1)
        summary = {
            key: _spread([run["result"]["metrics"][key]["value"] for run in untraced])
            for key in END_TO_END_UNITS
        }
        for key in DETAIL_UNITS:
            if key in untraced[0]["detail"]:
                summary[key] = _spread([run["detail"][key] for run in untraced])
        record["workloads"][name] = {"summary": summary, "runs": untraced, "traced": traced}
        print(f"== {name}: {runs} runs, seeds {seed}..{seed + runs - 1}")
        for key, stats in summary.items():
            unit = END_TO_END_UNITS.get(key) or DETAIL_UNITS[key]
            share = stats.get("iqr_share")
            share_text = f"  IQR/median {share:.3f}" if share is not None else ""
            print(f"  {key:16s} median {stats['median']:.6g} {unit}{share_text}")
        overhead = traced["result"]["metrics"]["trace.overhead"]
        print(f"  trace.overhead   {overhead['value']:.3f} {overhead['unit']}")
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload with --workload all")
    parser.add_argument("--out", help="result file to write with --workload all")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.runs < 1:
        parser.error("need --seed >= 0, --seconds > 0 and --runs >= 1")
    if not (SRC / "crossmodal" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    if args.workload == "all":
        record = run_all(args.seed, args.seconds, args.runs, args.out)
        results = [
            run["result"]
            for wl in record["workloads"].values()
            for run in (*wl["runs"], wl["traced"])
        ]
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{key}": {"value": wl["summary"][key]["median"], "unit": unit}
                for name, wl in record["workloads"].items()
                for key, unit in END_TO_END_UNITS.items()
            },
        }))
        return 0

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in out["result"]["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    for key, unit in DETAIL_UNITS.items():
        if key in out["detail"]:
            print(f"{key} = {out['detail'][key]:.6g} {unit}")
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
