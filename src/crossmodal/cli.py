"""Command-line interface: generate / train / eval / ablate / gradcheck."""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

import numpy as np

from . import __version__, config, gradcheck, machine, synthdata, trainer
from .batch import FeatureLayout
from .core import RngStream
from .errors import ConfigError, CrossmodalError, ParseError
from .evalkit import report_table, report_text
from .model import load_checkpoint, save_checkpoint

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to the documented 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="crossmodal", description=__doc__)
    parser.add_argument("--version", action="version", version=f"crossmodal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic feature file")
    gen.add_argument("--ids", type=int, default=synthdata.BENCHMARK_N_IDS)
    gen.add_argument("--per-modality", type=int, default=synthdata.BENCHMARK_PER_MODALITY)
    gen.add_argument("--shared-dims", type=int, default=synthdata.BENCHMARK_LAYOUT.shared_dims)
    gen.add_argument("--color-dims", type=int, default=synthdata.BENCHMARK_LAYOUT.color_dims)
    gen.add_argument(
        "--modality-dims", type=int, default=synthdata.BENCHMARK_LAYOUT.modality_dims
    )
    gen.add_argument("--gap", type=float, default=synthdata.BENCHMARK_GAP)
    gen.add_argument("--noise", type=float, default=synthdata.BENCHMARK_NOISE)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="train on a feature file and write a run directory")
    tr.add_argument("--config", help="key=value config file")
    tr.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    tr.add_argument("--out", required=True, help="run directory to create")
    tr.add_argument("--checkpoint-every", type=int, default=0)

    ev = sub.add_parser("eval", help="score a checkpoint on a feature file")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--direction", choices=trainer.DIRECTIONS, default="t2v")
    ev.add_argument("--out", help="directory for report files (defaults to stdout only)")

    ab = sub.add_parser("ablate", help="train config variants over seeds and tabulate")
    ab.add_argument("--config", help="base key=value config file")
    ab.add_argument("--data", required=True)
    ab.add_argument("--eval-data")
    ab.add_argument("--variants", help="file with 'name: key=value key=value' lines")
    ab.add_argument("--seeds", default="0", help="comma-separated seed list")
    ab.add_argument("--out", help="directory for the table file")

    gc = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    gc.add_argument(
        "--seeds", type=int, default=gradcheck.DEFAULT_INSTANCES, help="instances per component"
    )
    gc.add_argument("--seed", type=int, default=0, help="base RNG seed")
    gc.add_argument("--tol", type=float, default=gradcheck.DEFAULT_TOL)
    gc.add_argument("--component", action="append", choices=gradcheck.COMPONENTS)
    return parser


def cmd_generate(args) -> int:
    layout = FeatureLayout(args.shared_dims, args.color_dims, args.modality_dims)
    dataset = synthdata.generate(
        args.ids, args.per_modality, layout, args.gap, args.noise, RngStream(args.seed)
    )
    _write_atomic(args.out, lambda path: synthdata.save_features(dataset, path))
    print(
        f"wrote {len(dataset)} rows ({args.ids} identities x {args.per_modality} "
        f"per modality x 3 modalities, dim {dataset.dim}) to {args.out}"
    )
    return 0


def _load_run_config(args) -> config.RunConfig:
    cfg = config.parse_config_file(args.config) if args.config else config.RunConfig()
    overrides = dict(config.parse_assignment(item) for item in args.overrides)
    cfg = config.apply_overrides(cfg, overrides)
    cfg.train.validate()
    return cfg


#: ``epochs.csv`` columns after ``epoch,stage,lr``: the stage's mean loss terms
#: (blank when the stage has none), then metrics of evaluated epochs (else blank).
_LOSS_TERMS = ("intra", "global", "msel", "dcl", "id")
_EVAL_METRICS = ("rank1", "mean_ap", "minp")
EPOCH_CSV_HEADER = ",".join(("epoch", "stage", "lr") + _LOSS_TERMS + _EVAL_METRICS)


def _epoch_csv_row(log: trainer.EpochLog) -> str:
    scores = {} if log.eval is None else {key: getattr(log.eval, key) for key in _EVAL_METRICS}
    values = {**log.terms, **scores}
    cells = [f"{values[key]:.10g}" if key in values else "" for key in _LOSS_TERMS + _EVAL_METRICS]
    return ",".join([str(log.epoch), str(log.stage), f"{log.lr:.10g}", *cells])


def _write_atomic(path, content) -> None:
    """Write ``path`` whole or not at all: fill ``path + ".tmp"``, then ``os.replace``.

    ``content`` is ASCII text, or a callable that writes the file named by its
    argument. The rename stays in one directory, so a crash mid-write leaves
    the previous file (or none) in place, never a truncated one.
    """
    tmp = f"{path}.tmp"
    try:
        if callable(content):
            content(tmp)
        else:
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write(content)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_reports(out_dir, direction: str, report) -> None:
    """Write ``report_{direction}.txt`` and ``report_{direction}_hist.csv``."""
    for suffix, render in ((".txt", report_text), ("_hist.csv", report_table)):
        _write_atomic(os.path.join(out_dir, f"report_{direction}{suffix}"), render(report))


def cmd_train(args) -> int:
    if args.checkpoint_every < 0:
        raise ConfigError("--checkpoint-every must be >= 0")
    cfg = _load_run_config(args)
    if not cfg.data_path:
        raise ConfigError("config must set data.path")
    dataset = synthdata.load_features(cfg.data_path)
    eval_dataset = synthdata.load_features(cfg.eval_path) if cfg.eval_path else None
    trainer.check_dataset(dataset, cfg.train, eval_dataset)
    out_dir = args.out
    if os.path.exists(out_dir) and os.listdir(out_dir):
        raise ConfigError(f"run directory {out_dir!r} already exists and is not empty")
    os.makedirs(out_dir, exist_ok=True)

    inputs = {"data": cfg.data_path, "eval_data": cfg.eval_path}
    manifest = {
        "tool": "crossmodal",
        "version": __version__,
        "command": "train",
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": cfg.train.seed,
        "config": dict(config.resolved_items(cfg)),
        "inputs": {key: os.path.abspath(p) if p else None for key, p in inputs.items()},
        # with the machine record: enough to tell whether another machine
        # should reproduce this run bit for bit
        "input_sha256": {key: machine.file_sha256(p) if p else None for key, p in inputs.items()},
        "machine": machine.machine_record(),
        "artifacts": {
            "resolved_config": "config.resolved.cfg",
            "epoch_log": "epochs.csv",
            "checkpoint": "checkpoint.npz",
            "report": "report_{direction}.txt".format(direction=cfg.train.eval_direction),
            "report_hist": "report_{direction}_hist.csv".format(
                direction=cfg.train.eval_direction
            ),
        },
    }

    def record(status):
        manifest["status"] = status
        text = json.dumps(manifest, indent=2) + "\n"
        _write_atomic(os.path.join(out_dir, "manifest.json"), text)

    def save(name, params):
        _write_atomic(os.path.join(out_dir, name), lambda path: save_checkpoint(path, params))

    record("running")
    try:  # from here on, every failure is recorded in the manifest
        _write_atomic(os.path.join(out_dir, "config.resolved.cfg"), config.resolved_text(cfg))
        with open(os.path.join(out_dir, "epochs.csv"), "w", encoding="ascii") as log_fh:
            log_fh.write(EPOCH_CSV_HEADER + "\n")

            def on_epoch(epoch, params, log):
                log_fh.write(_epoch_csv_row(log) + "\n")
                if args.checkpoint_every and (epoch + 1) % args.checkpoint_every == 0:
                    save(f"checkpoint_epoch{epoch}.npz", params)

            params, logs = trainer.train(dataset, cfg.train, eval_dataset, on_epoch=on_epoch)
        save("checkpoint.npz", params)
        report = logs[-1].eval
        _write_reports(out_dir, cfg.train.eval_direction, report)
    except (CrossmodalError, OSError) as exc:
        record(f"failed: {exc}")
        raise
    record("complete")
    print(f"run directory: {out_dir}")
    print(
        f"final: rank1={report.rank1:.4f} mAP={report.mean_ap:.4f} "
        f"mINP={report.minp:.4f} gap_ratio={report.gap_ratio:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    params, _ = load_checkpoint(args.checkpoint)
    dataset = synthdata.load_features(args.data)
    report = trainer.evaluate_params(params, dataset, args.direction)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_reports(args.out, args.direction, report)
    sys.stdout.write(report_text(report))
    return 0


def _parse_variants_file(path) -> list[tuple[str, dict[str, str]]]:
    variants = []
    for lineno, line in enumerate(synthdata.read_ascii_lines(path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if ":" not in text:
            raise ParseError("expected 'name: key=value ...'", line=lineno)
        name, _, rest = text.partition(":")
        delta = dict(config.parse_assignment(tok) for tok in rest.split())
        variants.append((name.strip(), delta))
    return variants


def cmd_ablate(args) -> int:
    base = config.parse_config_file(args.config) if args.config else config.RunConfig()
    base.train.validate()
    dataset = synthdata.load_features(args.data)
    eval_dataset = synthdata.load_features(args.eval_data) if args.eval_data else None
    variants = _parse_variants_file(args.variants) if args.variants else []
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad seed list {args.seeds!r}") from None
    trainer.check_ablation(dataset, base.train, variants, seeds, eval_dataset)
    if args.out:  # an unusable directory fails before the first variant trains
        os.makedirs(args.out, exist_ok=True)
    rows = trainer.ablate(dataset, base.train, variants, seeds, eval_dataset)
    table = trainer.ablation_table(rows)
    if args.out:
        _write_atomic(os.path.join(args.out, "ablation.csv"), table)
    sys.stdout.write(table)
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(
        instances=args.seeds, seed=args.seed, tol=args.tol, components=args.component
    )
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name}: max_rel_error={res.max_rel_error:.3e} "
            f"over {res.instances} instances (tol {args.tol:g})"
        )
        failed = failed or not res.passed
    return RUNTIME_EXIT if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "generate": cmd_generate,
        "train": cmd_train,
        "eval": cmd_eval,
        "ablate": cmd_ablate,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (CrossmodalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
