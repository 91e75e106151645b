"""Functions of ``src/crossmodal`` that no workload, demo or CLI command enters.

One process runs, under ``sys.settrace`` (call events only):

* the four benchmark workloads of ``bench/workloads.py``: set-up, one pass,
  its checks, its final checks and its detail record;
* every script in ``demos/``;
* the five CLI commands in a temporary directory: ``generate``, ``train``
  (default recipe, with ``--checkpoint-every`` and ``train.eval_every``),
  ``eval``, ``ablate`` over the six acceptance-grid variants, and
  ``gradcheck``.

It then prints, one per line, every function or method defined in
``src/crossmodal`` that none of them entered, each with its reason from
:data:`KEPT`, and every difference from :data:`KEPT`: a function unreached
and not listed (``NOT KEPT``), or listed but reached (``REACHED``). The exit
status is 1 on any difference, else 0.

Run from the repository root (about 7 s)::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "crossmodal"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

#: The six variants of the acceptance grid (``tests/test_acceptance.py``).
GRID_VARIANTS = """\
rgb_only: train.stage1_epochs=0 loss.lambda1=0 loss.lambda2=0
gray_rgb: loss.lambda1=0 loss.lambda2=0
rgb_gray: train.schedule=rgb_first loss.lambda1=0 loss.lambda2=0
msel: loss.lambda1=0.5 loss.lambda2=0
msel_dcl_dyn: loss.lambda1=0.5 loss.lambda2=0.5 loss.dcl_mode=dyn
msel_dcl_all: loss.lambda1=0.5 loss.lambda2=0.5 loss.dcl_mode=all
"""

_TRACED = "traced by bench/tracing.py, a per_layer name in BENCHMARK.json"
#: Every function expected to stay unreached, and why it stays in the package.
KEPT = {
    "batch.LabeledBatch.cell_count": _TRACED,
    "batch.sample_batch": _TRACED,
    "evalkit.similarity_histogram": _TRACED,
    "batch.PairMasks.neg_rows": "the batch-hard miner's exact fallback for uncertified rows",
    "cli._Parser.error": "usage path: maps argparse's errors to exit status 1",
    "cli.main_entry": "the console script that pyproject.toml installs",
    "config._parse_bool": "reads loss.include_id_stage2, whose checks are per_layer names",
    "core.RngStream.__repr__": "names a stream in messages and at the prompt",
    "core.RngStream.permutation": "draws inputs that tests pin",
    "errors.ParseError.__init__": "error path: a malformed file names its line",
    "model.ModelGrads.__post_init__": "packs the Adam moments a checkpoint may hold",
    "optim._first_nonfinite": "error path: names the tensor that is not finite",
}


def defined_functions() -> dict[tuple[str, str], str]:
    """``(file, qualified name) -> module.qualname`` for every ``def`` under ``src/crossmodal``."""
    found = {}

    def visit(node, module, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                found[(path, qualname)] = f"{module}.{qualname}"
                visit(child, module, path, f"{qualname}.<locals>.")
            else:
                visit(child, module, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path), "")
    return found


def run_workloads() -> None:
    import workloads  # the package's import runs traced too

    for cls in workloads.WORKLOADS.values():
        wl = cls(0)
        wl.setup()
        output = wl.run_pass(0)
        if not all(wl.check(0, output)) or not all(wl.final_checks(output)):
            raise RuntimeError(f"workload {wl.name} failed its checks")
        wl.detail(output, 1.0)


def run_demos() -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def run_cli(tmp: Path) -> None:
    from crossmodal import cli

    train, test = (str(ROOT / "data" / f"benchmark_{split}.csv") for split in ("train", "test"))
    recipe = ["--config", str(ROOT / "configs" / "default.cfg")]
    (tmp / "variants.txt").write_text(GRID_VARIANTS)
    commands = [
        ["generate", "--out", str(tmp / "generated.csv")],
        ["train", *recipe, "--out", str(tmp / "run"), "--checkpoint-every", "28"]
        + ["--set", f"data.path={train}", "--set", f"data.eval_path={test}"]
        + ["--set", "train.eval_every=14"],
        ["eval", "--checkpoint", str(tmp / "run" / "checkpoint.npz"), "--data", test]
        + ["--out", str(tmp / "eval")],
        ["ablate", *recipe, "--data", train, "--eval-data", test]
        + ["--variants", str(tmp / "variants.txt"), "--out", str(tmp / "ablate")],
        ["gradcheck", "--seeds", "1"],
    ]
    for argv in commands:
        if cli.main(argv) != 0:
            raise RuntimeError(f"crossmodal {argv[0]} failed")


def entered_code() -> set[tuple[str, str]]:
    """``(file, qualified name)`` of every function entered while the runs go."""
    seen = set()
    src = str(SRC)

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(src):
            seen.add((code.co_filename, code.co_qualname))

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        cwd = os.getcwd()
        os.chdir(tmp)
        sys.settrace(trace)
        try:
            run_workloads()
            run_demos()
            run_cli(Path(tmp))
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    return seen


def main() -> int:
    functions = defined_functions()
    entered = entered_code()
    unreached = sorted(name for key, name in functions.items() if key not in entered)
    for name in unreached:
        print(f"{name}  {KEPT.get(name, 'NOT KEPT')}")
    reached = sorted(set(KEPT) - set(unreached))
    for name in reached:
        print(f"{name}  REACHED")
    return int(bool(reached) or not set(unreached) <= set(KEPT))


if __name__ == "__main__":
    sys.exit(main())
