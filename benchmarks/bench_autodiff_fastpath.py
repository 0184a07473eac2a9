"""Ablation — autodiff fast path: graph-free backward over cached plans.

``grad(..., create_graph=False)`` dispatches to :mod:`repro.autodiff.fastpath`:
VJPs run on raw ndarrays (no cotangent graph is built), the traversal plan
(toposort, on-path set, accumulation buffers) is cached by graph structure,
and the logistic-regression hot path uses the fused
``linear_softmax_xent`` composite.  Two legs:

* **meta-gradient leg** — the workload the paper's FedML algorithm runs
  (the per-node exact meta-gradient), fast path on vs. fully disabled.
* **replay leg** — steady-state backward replay over a warm live graph
  through the cached plan and its reused accumulation buffers, on
  paper-representative shapes.  Timing is best-of batches so one noisy
  batch does not set the figure.

Correctness is part of the record: every configuration must produce
byte-identical gradients, and each warm replay must match the reference
backward bit for bit.

Standalone mode writes the CI artifact ``BENCH_autodiff.json``::

    PYTHONPATH=src python benchmarks/bench_autodiff_fastpath.py \
        --repeats 30 --out BENCH_autodiff.json
"""

import argparse
import json
import time

import numpy as np

from repro.autodiff import Tensor, fastpath, grad, toposort
from repro.core.maml import meta_gradient
from repro.data import SyntheticConfig, generate_synthetic
from repro.nn import MLP, LogisticRegression, cross_entropy
from repro.nn.parameters import require_grad, to_vector


def build_workload(nodes=8, k=5, mean_samples=120):
    """The FedML per-node setup: K-shot splits of a synthetic federation."""
    model = LogisticRegression(60, 10)
    fed = generate_synthetic(
        SyntheticConfig(
            alpha=0.5, beta=0.5, num_nodes=nodes,
            mean_samples=mean_samples, seed=1,
        )
    )
    splits = [fed.node_split(i, k) for i in range(nodes)]
    params = require_grad(model.init(np.random.default_rng(0)))
    return model, splits, params


def sweep(model, splits, params, alpha, repeats):
    """Run ``repeats`` epochs of per-node meta-gradients; return seconds."""
    grads = []
    start = time.perf_counter()
    for _ in range(repeats):
        grads = [
            meta_gradient(model, params, split, alpha)[0] for split in splits
        ]
    elapsed = time.perf_counter() - start
    return elapsed, np.concatenate([to_vector(g) for g in grads])


# ----------------------------------------------------------------------
# Replay leg: warm backward through the cached plan
# ----------------------------------------------------------------------
#: Paper-representative backward shapes: the FEMNIST-style logistic head
#: and small MLPs at the K-shot batch sizes the inner loop actually sees.
REPLAY_SHAPES = (
    ("logreg-60x10-b5", LogisticRegression(60, 10), 5),
    ("mlp-60x32x10-b20", MLP(60, (32,), 10), 20),
    ("mlp-60x32x10-b20-tanh", MLP(60, (32,), 10, activation="tanh"), 20),
    ("mlp-12x8x4-b10", MLP(12, (8,), 4), 10),
)


def _replay_problem(model, batch, seed=0):
    """A live loss graph plus everything a direct backward replay needs."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, model.input_dim))
    y = rng.integers(0, model.num_classes, size=batch)
    params = {
        name: Tensor(t.data, requires_grad=True)
        for name, t in model.init(rng).items()
    }
    inputs = [params[name] for name in sorted(params)]
    loss = cross_entropy(model.apply(params, x), y)
    return loss, inputs, toposort(loss)


def _time_batch(loss, inputs, order, seed, inner):
    start = time.perf_counter()
    for _ in range(inner):
        fastpath.backward(loss, inputs, order, seed)
    return time.perf_counter() - start


def replay_shape(name, model, batch, repeats, inner=20):
    """Best-of timing of one shape's steady-state backward."""
    loss, inputs, order = _replay_problem(model, batch)
    seed = np.array(1.0)

    with fastpath.disabled():
        reference = [t.data.copy() for t in grad(loss, inputs)]

    # Warm the plan (and its accumulation buffers), then check a warm call.
    fastpath.backward(loss, inputs, order, seed)
    replayed = fastpath.backward(loss, inputs, order, seed)
    bit_identical = all(
        got.tobytes() == ref.tobytes() for got, ref in zip(replayed, reference)
    )

    best = float("inf")
    for _ in range(max(repeats, 3)):
        best = min(best, _time_batch(loss, inputs, order, seed, inner))

    return {
        "shape": name,
        "batch": batch,
        "cached_calls_per_sec": inner / best,
        "bit_identical": bit_identical,
    }


def run_replay(repeats=5):
    """The replay leg over every shape; geomean throughput is the headline."""
    fastpath.enable()
    fastpath.clear_cache()
    shapes = [
        replay_shape(name, model, batch, repeats)
        for name, model, batch in REPLAY_SHAPES
    ]
    return {
        "replay_shapes": shapes,
        "replay_cached_calls_per_sec": float(
            np.exp(np.mean(np.log([s["cached_calls_per_sec"] for s in shapes])))
        ),
        "replay_bit_identical": bool(all(s["bit_identical"] for s in shapes)),
    }


def run_comparison(nodes=8, k=5, repeats=30, alpha=0.01):
    """Time the meta-gradient sweep with the fast path on and off."""
    model, splits, params = build_workload(nodes=nodes, k=k)
    calls = repeats * nodes

    # Warm-up outside the timed region: first call per structure pays the
    # plan build; steady-state cost is what the training loop sees.
    fastpath.clear_cache()
    fastpath.reset_stats()
    fast_warm, _ = sweep(model, splits, params, alpha, 1)
    fast_s, fast_vec = sweep(model, splits, params, alpha, repeats)
    stats = fastpath.stats().as_dict()

    with fastpath.disabled():
        ref_warm, _ = sweep(model, splits, params, alpha, 1)
        ref_s, ref_vec = sweep(model, splits, params, alpha, repeats)

    result = {
        "nodes": nodes,
        "k_shot": k,
        "repeats": repeats,
        "meta_gradient_calls": calls,
        "reference_seconds": ref_s,
        "fastpath_seconds": fast_s,
        "reference_calls_per_sec": calls / ref_s,
        "fastpath_calls_per_sec": calls / fast_s,
        "speedup": ref_s / fast_s,
        "bit_identical": bool(fast_vec.tobytes() == ref_vec.tobytes()),
        "fastpath_stats": stats,
    }
    result.update(run_replay(repeats=max(3, repeats // 6)))
    return result


def test_ablation_autodiff_fastpath(benchmark):
    """Pytest entry: fastpath gradients are byte-identical and faster."""
    result = benchmark.pedantic(
        run_comparison, kwargs={"repeats": 10}, rounds=1, iterations=1
    )
    assert result["bit_identical"], "fastpath diverged from reference"
    assert result["fastpath_stats"]["plan_hits"] > 0
    assert result["speedup"] > 1.0, (
        f"fast path slower than reference: {result['speedup']:.2f}x"
    )
    assert result["replay_bit_identical"], "warm replay diverged"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--out", default="BENCH_autodiff.json")
    args = parser.parse_args()

    result = run_comparison(nodes=args.nodes, k=args.k, repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(
        f"{result['meta_gradient_calls']} meta-gradient calls: "
        f"reference {result['reference_calls_per_sec']:.1f}/s, "
        f"fastpath {result['fastpath_calls_per_sec']:.1f}/s "
        f"({result['speedup']:.2f}x, "
        f"bit_identical={result['bit_identical']}) -> {args.out}"
    )
    for shape in result["replay_shapes"]:
        print(
            f"  replay {shape['shape']}: "
            f"{shape['cached_calls_per_sec']:.0f}/s"
        )
    print(
        f"  replay geomean {result['replay_cached_calls_per_sec']:.0f}/s, "
        f"bit_identical={result['replay_bit_identical']}"
    )
    ok = result["bit_identical"] and result["replay_bit_identical"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
