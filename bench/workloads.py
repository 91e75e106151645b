"""The benchmark's four workloads: inputs made from a seed, one timed pass, output checks.

Each workload is a single-process closed loop: the benchmark makes one call
into the program at a time and waits for it. ``setup()`` builds the inputs
(timed as set-up), ``run_pass(index)`` is the unit of timed work, and
``check(index, output)`` returns one verdict per operation of the pass.
Operations are training runs (``train_*``), gradient-check components
(``gradcheck``) and full gallery evaluations (``eval_gallery``). Passes are
kept to about a second where the workload allows, so a run's median is taken
over a few dozen of them; ``MIN_PASSES`` is the fewest a run makes.

Why these four:

* ``train_default`` -- the recipe the docs and tests use; at 64-row batches
  per-call overhead dominates (stage-2 losses, batch re-validation).
* ``train_wide`` -- the same loss code at 512-row batches, where the O(n^2 d)
  distance tensors and the stage-2 kernels dominate.
* ``gradcheck`` -- thousands of loss and model calls on 18-row batches: the
  loss layer at the opposite extreme from ``train_wide``.
* ``eval_gallery`` -- the only workload where evaluation and
  ``core.cross_distances`` dominate, and memory is the limit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from crossmodal import config, core, evalkit, gradcheck, model, synthdata, trainer
from crossmodal.core import RngStream

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = ROOT / "configs" / "default.cfg"
TRAIN_CSV = ROOT / "data" / "benchmark_train.csv"
TEST_CSV = ROOT / "data" / "benchmark_test.csv"

#: Child path of the workload seed's stream that generated data is drawn from;
#: the trainer itself uses children 0 (init) and 1 (batches) of its own seed.
DATA_STREAM = 2


def _report_values(report) -> dict[str, float]:
    return {
        "final_mean_ap": report.mean_ap,
        "final_rank1": report.rank1,
        "final_gap_ratio": report.gap_ratio,
    }


def fingerprint(params, report) -> str:
    """SHA-256 over the 10 parameter tensors and the text report of one run."""
    digest = hashlib.sha256()
    for f in fields(params):
        if f.name == "activation":
            continue
        arr = np.ascontiguousarray(getattr(params, f.name), dtype="<f8")
        digest.update(f"{f.name}{arr.shape}".encode("ascii"))
        digest.update(arr.tobytes())
    digest.update(evalkit.report_text(report).encode("ascii"))
    return digest.hexdigest()


def _same_params(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in fields(a)
        if f.name != "activation"
    )


def _finite_params(params) -> bool:
    return all(
        np.isfinite(getattr(params, f.name)).all() for f in fields(params) if f.name != "activation"
    )


class _Training:
    """Train one recipe over consecutive seeds, one training run per pass.

    Pass ``i`` trains seed ``seeds[i % n_seeds]``; ``MIN_PASSES`` covers every
    seed twice, so each seed's result is checked against a repeat.
    """

    name = ""
    n_seeds = 1
    MIN_PASSES = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = None
        self.train_set = None
        self.eval_set = None
        self._first: dict[int, tuple] = {}

    @property
    def seeds(self) -> list[int]:
        return [self.seed + i for i in range(self.n_seeds)]

    def run_pass(self, index: int):
        seed = self.seeds[index % self.n_seeds]
        params, logs = trainer.train(self.train_set, replace(self.cfg, seed=seed), self.eval_set)
        return seed, params, logs[-1].eval

    def check(self, index: int, output) -> list[bool]:
        """Finite parameters, and bit-identical to the first run of the same seed."""
        seed, params, _ = output
        first = self._first.setdefault(seed, output)
        return [_finite_params(params) and _same_params(params, first[1])]

    def steps_per_pass(self) -> int:
        return self.cfg.epochs * trainer.steps_per_epoch(self.train_set, self.cfg)

    def detail(self, output, run_s: float) -> dict:
        """Final quality as the mean over the seeds, from each seed's first run."""
        reports = [report for _, _, report in self._first.values()]
        out = {
            key: float(np.mean([_report_values(r)[key] for r in reports]))
            for key in ("final_mean_ap", "final_rank1", "final_gap_ratio")
        }
        out["seeds"] = sorted(self._first)
        out["steps_per_s"] = self.steps_per_pass() / run_s
        out["steps_per_pass"] = self.steps_per_pass()
        return out

    def final_checks(self, output) -> list[bool]:
        return []


class TrainDefault(_Training):
    """``configs/default.cfg`` on the bundled splits, five consecutive seeds."""

    name = "train_default"
    n_seeds = 5
    MIN_PASSES = 2 * n_seeds

    def setup(self) -> None:
        self.cfg = config.parse_config_file(DEFAULT_CFG).train.validate()
        self.train_set = synthdata.load_features(TRAIN_CSV)
        self.eval_set = synthdata.load_features(TEST_CSV)

    def detail(self, output, run_s: float) -> dict:
        out = super().detail(output, run_s)
        _, params, report = self._first[self.seeds[0]]
        out["fingerprint_seed"] = self.seeds[0]
        out["fingerprint"] = fingerprint(params, report)
        return out


class TrainWide(_Training):
    """P=32, K=8 batches on a generated 64-identity set, one seed."""

    name = "train_wide"
    n_seeds = 1
    #: 4 epochs (1 in stage 1, the default 1:3 split) of 4 steps each: about a second.
    EPOCHS = 4
    STAGE1_EPOCHS = 1

    def setup(self) -> None:
        base = config.parse_config_file(DEFAULT_CFG).train
        self.cfg = replace(
            base, p=32, k=8, epochs=self.EPOCHS, stage1_epochs=self.STAGE1_EPOCHS
        ).validate()
        root = RngStream(self.seed).child(DATA_STREAM)
        shape = (
            synthdata.BENCHMARK_LAYOUT,
            synthdata.BENCHMARK_GAP,
            synthdata.BENCHMARK_NOISE,
        )
        self.train_set = synthdata.generate(64, 16, *shape, root.child(0))
        self.eval_set = synthdata.generate(16, 8, *shape, root.child(1))


class Gradcheck:
    """``gradcheck.run_suite`` over all 12 components at the contract tolerance."""

    name = "gradcheck"
    #: One instance per component keeps a pass near a second.
    INSTANCES = 1
    MIN_PASSES = 2
    #: The gradient contract: relative error 1e-5 against central differences at h=1e-6.
    TOL = 1e-5
    FD_STEP = 1e-6

    def __init__(self, seed: int):
        self.seed = seed
        self._first = None

    def setup(self) -> None:
        if gradcheck.FD_STEP != self.FD_STEP:
            raise RuntimeError(f"finite-difference step is {gradcheck.FD_STEP}, contract is 1e-6")
        self.components = tuple(gradcheck.COMPONENTS)

    def run_pass(self, index: int):
        return gradcheck.run_suite(instances=self.INSTANCES, seed=self.seed, tol=self.TOL)

    def check(self, index: int, output) -> list[bool]:
        """Every component passes at 1e-5 with the same error on every pass."""
        if index == 0:
            self._first = output
        if [res.name for res in output] != list(self.components):
            return [False] * len(self.components)
        return [
            res.passed and res.max_rel_error <= self.TOL and res.max_rel_error == first.max_rel_error
            for res, first in zip(output, self._first)
        ]

    def detail(self, output, run_s: float) -> dict:
        return {
            "instances": self.INSTANCES,
            "max_rel_error": {res.name: res.max_rel_error for res in output},
        }

    def final_checks(self, output) -> list[bool]:
        return []


class EvalGallery:
    """``trainer.evaluate_params`` (t2v) on 128 identities x 16 rows per modality."""

    name = "eval_gallery"
    N_IDS = 128
    PER_MODALITY = 16
    #: Queries recomputed by brute force after the timed passes.
    SAMPLE_QUERIES = 32
    MIN_PASSES = 2

    def __init__(self, seed: int):
        self.seed = seed
        self._first_text = None

    def setup(self) -> None:
        cfg = config.parse_config_file(DEFAULT_CFG).train.validate()
        train_set = synthdata.load_features(TRAIN_CSV)
        self.params, _ = trainer.train(train_set, replace(cfg, seed=self.seed))
        self.gallery = synthdata.generate(
            self.N_IDS,
            self.PER_MODALITY,
            synthdata.BENCHMARK_LAYOUT,
            synthdata.BENCHMARK_GAP,
            synthdata.BENCHMARK_NOISE,
            RngStream(self.seed).child(DATA_STREAM),
        )

    def run_pass(self, index: int):
        return trainer.evaluate_params(self.params, self.gallery, "t2v")

    def check(self, index: int, output) -> list[bool]:
        """Finite metrics, every query kept, and the same report on every pass."""
        text = evalkit.report_text(output) + evalkit.report_table(output)
        if index == 0:
            self._first_text = text
        n = self.N_IDS * self.PER_MODALITY
        return [
            text == self._first_text
            and output.n_queries == n
            and output.n_gallery == n
            and math.isfinite(output.mean_ap)
        ]

    def final_checks(self, output) -> list[bool]:
        """Rank-1 and AP of sampled queries against a brute-force recomputation.

        The program's side is ``evalkit.rank`` / ``cmc`` / ``mean_ap`` on the
        same post-norm features ``evaluate_params`` scores; the brute-force
        side sorts ``core.euclidean_distance`` values with the stable
        lower-gallery-index tie rule.
        """
        ds = self.gallery
        q_rows = ds.modality_rows("ir")
        g_rows = ds.modality_rows("vis")
        qf = model.extract_test_features(self.params, ds.features[q_rows])
        gf = model.extract_test_features(self.params, ds.features[g_rows])
        qid = ds.labels[q_rows]
        gid = ds.labels[g_rows]
        step = max(1, len(q_rows) // self.SAMPLE_QUERIES)
        sample = np.arange(0, len(q_rows), step)[: self.SAMPLE_QUERIES]
        ranked = evalkit.rank(qf[sample], gf, qid[sample], gid)
        verdicts = []
        for i, q in enumerate(sample):
            one = evalkit.RankingResult(
                order=ranked.order[i : i + 1],
                relevant=ranked.relevant[i : i + 1],
                query_ids=ranked.query_ids[i : i + 1],
                gallery_ids=gid,
                dropped=0,
            )
            dist = [core.euclidean_distance(qf[q], gf[j]) for j in range(len(gf))]
            order = sorted(range(len(gf)), key=lambda j: (dist[j], j))
            hits = [pos + 1 for pos, j in enumerate(order) if gid[j] == qid[q]]
            ap = sum((h + 1) / pos for h, pos in enumerate(hits)) / len(hits)
            verdicts.append(
                bool(evalkit.cmc(one, 1)[0] == (gid[order[0]] == qid[q]))
                and abs(evalkit.mean_ap(one) - ap) <= 1e-12
            )
        return verdicts

    def detail(self, output, run_s: float) -> dict:
        out = _report_values(output)
        out["queries_per_s"] = output.n_queries / run_s
        out["n_queries"] = output.n_queries
        out["n_gallery"] = output.n_gallery
        return out


WORKLOADS = {cls.name: cls for cls in (TrainDefault, TrainWide, Gradcheck, EvalGallery)}
