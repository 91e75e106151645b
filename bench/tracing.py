"""Span tracer that wraps the program's public functions from outside the package.

Every function in :data:`TRACED` is replaced, for the duration of a traced
pass, by a wrapper that records a span ``(name, start_ns, end_ns, parent)``
in memory. The wrapper is installed wherever the function is bound: on its
own module, on the package namespace, and on every module that imported it
by name (``trainer.sample_batch``, ``losses.pairwise_distances``, ...), so a
call is traced whichever name it goes through. Spans are written out once,
when the run ends; self time is a span's duration minus the time its direct
children cover.

Extra per-layer counts are taken at the same boundaries:

* ``core.*.bytes``: size of the n*m*d float64 difference tensor each euclid
  call builds, summed over calls;
* ``evalkit.*.peak_mb``: the largest ``tracemalloc`` peak of one call, above
  the memory traced when it started (tracemalloc runs only while an evalkit
  function is on the stack, so training code is not slowed by it);
* ``gradcheck.objective_evals``: calls of the objective that
  ``finite_difference`` perturbs;
* ``gradcheck.<component>.ms``: inclusive time of ``check_component`` per
  component.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

#: (module, attribute path) of every traced function, in report order.
TRACED = (
    ("batch", "sample_batch"),
    ("batch", "LabeledBatch.validate"),
    ("batch", "LabeledBatch.cell_count"),
    ("core", "pairwise_distances"),
    ("core", "cross_distances"),
    ("losses", "hard_triplet_intra"),
    ("losses", "hard_triplet_global"),
    ("losses", "msel"),
    ("losses", "dcl"),
    ("losses", "compute_centers"),
    ("losses", "identity_loss"),
    ("losses", "stage1_objective"),
    ("losses", "stage2_objective"),
    ("model", "forward"),
    ("model", "backward"),
    ("model", "update_bn_stats"),
    ("model", "extract_test_features"),
    ("optim", "step"),
    ("trainer", "train"),
    ("trainer", "evaluate_params"),
    ("evalkit", "rank"),
    ("evalkit", "cmc"),
    ("evalkit", "mean_ap"),
    ("evalkit", "minp"),
    ("evalkit", "similarity_histogram"),
    ("evalkit", "modality_gap_ratio"),
    ("evalkit", "evaluate"),
    ("gradcheck", "finite_difference"),
    ("gradcheck", "check_component"),
    ("synthdata", "generate"),
    ("synthdata", "load_features"),
)

#: Functions whose metrics are per set-up rather than per pass.
SETUP_FUNCTIONS = ("synthdata.generate", "synthdata.load_features")

#: Span name of the benchmark's own root span around each traced pass.
PASS_SPAN = "bench.pass"

_CHECK_COMPONENT = "gradcheck.check_component"
_FINITE_DIFFERENCE = "gradcheck.finite_difference"


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def _diff_tensor_bytes(args, kwargs) -> int:
    """Bytes of the n*m*d difference tensor a euclid distance call builds."""
    values = (*args, *kwargs.values())
    metric = next((v for v in values if isinstance(v, str)), "euclid")
    if metric != "euclid":
        return 0
    mats = [v for v in values if not isinstance(v, str)]
    n, d = np.shape(mats[0])
    return 8 * n * np.shape(mats[-1])[0] * d


class Tracer:
    """Records spans and boundary counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []
        self.bytes: dict[str, int] = defaultdict(int)
        self.peak: dict[str, int] = defaultdict(int)
        self.objective_evals = 0
        self._installed: list = []

    # -- span recording -------------------------------------------------
    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self._stack.pop()

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            parent = self._mem_stack[-1]
            parent[1] = max(parent[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current])

    def _mem_exit(self, name: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        entry, seen = self._mem_stack.pop()
        top = max(seen, peak)
        self.peak[name] = max(self.peak[name], top - entry)
        if self._mem_stack:
            parent = self._mem_stack[-1]
            parent[1] = max(parent[1], top)
        else:
            tracemalloc.stop()

    def _wrap(self, name: str, fn):
        tracer = self
        module = name.split(".", 1)[0]
        per_component = name == _CHECK_COMPONENT
        counts_objective = name == _FINITE_DIFFERENCE
        counts_bytes = module == "core"
        tracks_memory = module == "evalkit"

        def wrapper(*args, **kwargs):
            span = name
            if per_component:
                span = f"gradcheck.{kwargs.get('name', args[0] if args else '')}"
            elif counts_objective:
                objective = args[0]

                def counted(x):
                    tracer.objective_evals += 1
                    return objective(x)

                args = (counted, *args[1:])
            elif counts_bytes:
                tracer.bytes[name] += _diff_tensor_bytes(args, kwargs)
            if tracks_memory:
                tracer._mem_enter()
            sid = tracer.begin(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(sid)
                if tracks_memory:
                    tracer._mem_exit(name)

        return functools.wraps(fn)(wrapper)

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Bind a wrapper in place of every traced function, wherever it is bound."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        package = [m for k, m in sys.modules.items() if k == "crossmodal" or k.startswith("crossmodal.")]
        for module_name, attr in TRACED:
            owner = importlib.import_module(f"crossmodal.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(_span_name(module_name, attr), original)
            sites = [(owner, leaf)]
            for mod in package:
                sites += [(mod, key) for key, val in vars(mod).items() if val is original and mod is not owner]
            for obj, key in sites:
                self._installed.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._installed):
            setattr(obj, key, original)
        self._installed = []

    # -- results --------------------------------------------------------
    def self_times(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per-name self time (ns), inclusive time (ns) and call count over all spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for sid, (name, start, end, _) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[sid]
            total_ns[name] += end - start
            calls[name] += 1
        return self_ns, total_ns, calls

    def write(self, path) -> None:
        """Write every span as one JSON array per line: [id, name, start_ns, end_ns, parent]."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")


def metric_units(component_names) -> dict[str, str]:
    """Every per-layer metric name mapped to its unit, in report order."""
    units: dict[str, str] = {}
    for module, attr in TRACED:
        name = _span_name(module, attr)
        if name == _CHECK_COMPONENT:
            continue
        units[f"{name}.ms"] = "ms"
        units[f"{name}.calls"] = "count"
        if module == "core":
            units[f"{name}.bytes"] = "B"
        if module == "evalkit":
            units[f"{name}.peak_mb"] = "MB"
    units["gradcheck.objective_evals"] = "count"
    for component in component_names:
        units[f"gradcheck.{component}.ms"] = "ms"
    units["trace.overhead"] = "ratio"
    return units


def per_layer_metrics(setup: Tracer, passes: Tracer, n_passes: int, components, overhead: float) -> dict:
    """Per-layer values: per traced pass, except synthdata (per traced set-up)."""
    times = {id(setup): setup.self_times(), id(passes): passes.self_times()}
    out = {}
    for module, attr in TRACED:
        name = _span_name(module, attr)
        if name == _CHECK_COMPONENT:
            continue
        source, scale = (setup, 1) if name in SETUP_FUNCTIONS else (passes, n_passes)
        self_ns, _, calls = times[id(source)]
        out[f"{name}.ms"] = self_ns.get(name, 0) / 1e6 / scale
        out[f"{name}.calls"] = calls.get(name, 0) / scale
        if module == "core":
            out[f"{name}.bytes"] = source.bytes.get(name, 0) / scale
        if module == "evalkit":
            out[f"{name}.peak_mb"] = source.peak.get(name, 0) / 2**20
    total_ns = times[id(passes)][1]
    out["gradcheck.objective_evals"] = passes.objective_evals / n_passes
    for component in components:
        out[f"gradcheck.{component}.ms"] = total_ns.get(f"gradcheck.{component}", 0) / 1e6 / n_passes
    out["trace.overhead"] = overhead
    return out
