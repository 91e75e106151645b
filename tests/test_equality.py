"""The package's dataclasses that hold arrays compare by identity.

A dataclass's generated ``__eq__`` compares its fields as one tuple, and an
ndarray field makes that raise numpy's "truth value of an array ... is
ambiguous" ``ValueError``. Every class that declares an ndarray field sets
``eq=False``, so ``==`` is ``is`` and raises nothing.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from conftest import make_pk_batch

import crossmodal
from crossmodal import batch, evalkit, losses, model, synthdata
from crossmodal.core import RngStream


def _batch():
    return make_pk_batch(RngStream(0), 3, 2, 4).validate()


def _model():
    params = model.init_params(4, 5, 3, 3, RngStream(1))
    return params, model.forward(params, RngStream(2).normal(size=(12, 4)))[3]


def _grads():
    params, trace = _model()
    return model.backward(trace, params, np.ones((12, 3)), np.ones((12, 3)))


def _objective():
    b = _batch()
    logits = RngStream(3).normal(size=(len(b), 3))
    return losses.stage2_objective(b, logits, b.labels, losses.LossConfig())


def _ranking_inputs():
    r = RngStream(4)
    return r.normal(size=(6, 4)), r.normal(size=(6, 4)), [0, 0, 1, 1, 2, 2], [0, 1, 2, 0, 1, 2]


def _report():
    qf, gf, qid, gid = _ranking_inputs()
    return evalkit.evaluate(qf, qid, gf, gid)


#: Each class that declares an ndarray field -> a call that builds one instance.
FACTORIES = {
    synthdata.SynthDataset: lambda: synthdata.make_benchmark("train"),
    batch.LabeledBatch: _batch,
    batch.BatchStructure: lambda: _batch().structure,
    batch.RowLayout: lambda: _batch().structure.layout,
    batch.PairMasks: lambda: _batch().structure.layout.pairs,
    model.ModelParams: lambda: _model()[0],
    model.ModelGrads: _grads,
    model.ForwardTrace: lambda: _model()[1],
    losses.Mining: lambda: losses.hard_triplet_global(_batch()).mining,
    losses.LossOutput: lambda: losses.hard_triplet_global(_batch()),
    losses.ObjectiveOutput: _objective,
    losses.CenterStats: lambda: losses.compute_centers(_batch()),
    evalkit.RankingResult: lambda: evalkit.rank(*_ranking_inputs()),
    evalkit.EvalReport: _report,
}


def _array_dataclasses():
    for info in pkgutil.iter_modules(crossmodal.__path__):
        module = importlib.import_module(f"crossmodal.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                if any("np.ndarray" in str(f.type) for f in dataclasses.fields(cls)):
                    yield cls


def test_every_dataclass_with_an_array_field_is_checked():
    assert set(_array_dataclasses()) == set(FACTORIES)


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_equal_instances_compare_by_identity(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is type(b) is cls and a is not b
    assert (a == b) is False and (a != b) is True
    assert (a == a) is True and (a != a) is False
