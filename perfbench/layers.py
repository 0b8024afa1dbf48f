"""Which library entry points are traced, and the per-layer metrics."""

from __future__ import annotations

import numpy as np

from tracing import Span, Tracer, summarize


def _simulated(args, kwargs) -> dict:
    """Episodes through an engine call, and the state bytes its gates touch.

    Each gate reads and writes the whole (episodes, 2**n) complex128 state
    once, so bytes are gates x 2 x 16 * 2**n x episodes: computed from the
    array sizes, not measured.
    """
    engine, thetas = args[0], args[1]
    episodes = int(np.shape(thetas)[0])
    gates = len(engine.template.gates) * engine.layers
    return {"episodes": episodes, "bytes": gates * 2 * 16 * engine.dim * episodes}


def instrument(qks) -> Tracer:
    """A tracer over every layer the benchmark reports; not yet installed."""
    tracer = Tracer()
    tracer.wrap_method(qks.QksMachine, "encode_batch", "encoding.encode_batch")
    tracer.wrap_function(qks.shot_stream, "encoding.shot_stream")
    tracer.wrap_function(qks.sample_machine, "encoding.sample_machine")
    tracer.wrap_method(qks.EpisodeEngine, "__init__", "simulator.engine_init")
    tracer.wrap_method(qks.EpisodeEngine, "sample", "simulator.sample", _simulated)
    tracer.wrap_method(qks.EpisodeEngine, "probabilities",
                       "simulator.probabilities", _simulated)
    tracer.wrap_function(qks.featurize, "features.featurize")
    tracer.wrap_method(qks.FeatureMatrix, "to_dense", "features.to_dense")
    tracer.wrap_function(qks.save_features, "features.save")
    tracer.wrap_function(qks.load_features, "features.load")
    tracer.wrap_function(qks.train, "logistic.train")
    tracer.wrap_function(qks.evaluate, "logistic.evaluate")
    tracer.wrap_function(qks.mc_kernel, "kernels.mc_kernel")
    return tracer


# Metrics a workload derives itself (Workload.diagnostics); they read 0 on
# workloads that do not exercise their layer.
WORKLOAD_METRICS = (
    "logistic.iterations",
    "logistic.grad_inf",
    "logistic.converged",
    "features.parallel_efficiency",
    "features.file_bytes",
    "test_error",
    "kernel_gap_stderr",
)


def layer_metrics(setup: list[Span], run: list[Span]) -> dict:
    """Per-layer metrics from the set-up spans and one traced run's spans.

    A layer the workload does not exercise reads 0.
    """
    before, during = summarize(setup), summarize(run)

    def get(table, name, key="total_s"):
        return table.get(name, {}).get(key, 0)

    episodes = get(during, "simulator.sample", "episodes") + get(
        during, "simulator.probabilities", "episodes")
    simulate_s = get(during, "simulator.sample") + get(
        during, "simulator.probabilities")
    return {
        "logistic.train_s": get(during, "logistic.train"),
        "logistic.evaluate_s": get(during, "logistic.evaluate"),
        "simulator.sample_s": get(during, "simulator.sample"),
        "simulator.probabilities_s": get(during, "simulator.probabilities"),
        "simulator.episodes": episodes,
        "simulator.ns_per_episode": 1e9 * simulate_s / episodes if episodes else 0.0,
        "simulator.engines_built": get(during, "simulator.engine_init", "calls"),
        "simulator.bytes_computed": get(during, "simulator.sample", "bytes") + get(
            during, "simulator.probabilities", "bytes"),
        "kernels.mc_kernel_s": get(during, "kernels.mc_kernel"),
        "kernels.mc_kernel_self_s": get(during, "kernels.mc_kernel", "self_s"),
        "kernels.calls": get(during, "kernels.mc_kernel", "calls"),
        "encoding.encode_s": get(during, "encoding.encode_batch"),
        "encoding.shot_uniforms_s": get(during, "encoding.shot_stream"),
        "encoding.shot_streams": get(during, "encoding.shot_stream", "calls"),
        "features.featurize_s": get(during, "features.featurize"),
        "features.featurize_self_s": get(during, "features.featurize", "self_s"),
        "features.unpack_s": get(during, "features.to_dense"),
        "features.save_s": get(during, "features.save"),
        "features.load_s": get(during, "features.load"),
        "cli.features_load_s": get(during, "cli.features_load"),
        "datasets.gen_s": get(before, "datasets.gen"),
        "encoding.sample_machine_s": get(before, "encoding.sample_machine"),
    }
