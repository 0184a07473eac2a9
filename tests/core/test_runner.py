"""Tests for the shared facade runner and the trainer configs it drives."""

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    ADMLConfig,
    AsyncFedMLConfig,
    FedAvgConfig,
    FedMLConfig,
    FedProxConfig,
    MetaSGDConfig,
    ReptileConfig,
)
from repro.engine import SerialExecutor, VectorizedExecutor
from repro.nn.parameters import to_vector

from ..engine.capture_golden import build_runners, build_workload

CONFIGS = [
    FedMLConfig,
    FedAvgConfig,
    FedProxConfig,
    ADMLConfig,
    ReptileConfig,
    MetaSGDConfig,
    AsyncFedMLConfig,
]
RUNNERS = [
    "fedml", "robust-fedml", "fedavg", "fedprox", "reptile", "meta-sgd", "adml",
]


@pytest.mark.parametrize("config_class", CONFIGS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("eval_every", [0, -1])
def test_eval_every_below_one_raises(config_class, eval_every):
    with pytest.raises(ValueError, match="eval_every"):
        config_class(eval_every=eval_every)


@pytest.fixture(scope="module")
def workload():
    return build_workload()


@pytest.fixture(scope="module")
def plain_params(workload):
    fed, sources, model = workload
    return {
        name: to_vector(runner.fit(fed, sources).params)
        for name, runner in build_runners(model).items()
    }


def _counting_subclass(base):
    class Counting(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = Counter()

        def local_step(self, node):
            self.calls[node.node_id] += 1
            return super().local_step(node)

    return Counting


@pytest.mark.parametrize("executor_class", [SerialExecutor, VectorizedExecutor])
@pytest.mark.parametrize("name", RUNNERS)
def test_overridden_local_step_runs_once_per_node_iteration(
    workload, plain_params, name, executor_class
):
    """A facade subclass overriding ``local_step`` is routed through the
    override for every (node, iteration), even under the vectorized
    executor, and trains exactly like the plain facade."""
    fed, sources, model = workload
    plain = build_runners(model)[name]
    runner = _counting_subclass(type(plain))(
        model, plain.config, executor=executor_class()
    )
    result = runner.fit(fed, sources)

    total = plain.config.total_iterations
    assert runner.calls == {node_id: total for node_id in sources}
    np.testing.assert_array_equal(to_vector(result.params), plain_params[name])
