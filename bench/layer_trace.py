"""Per-layer trace of mrscene, taken from outside the program.

The traced forward calls each module's public function in the order
``Model.forward`` does, with the patch tiling done here in numpy, and
checks that its logits equal ``Model.forward``'s bit for bit. To time
backward per layer, the graph is cut at every layer boundary into fresh
leaf tensors; each layer is then back-propagated on its own through the
scalar ``sum_all(output * upstream_grad)``, and the parameter gradients
this yields are checked against one monolithic ``loss.backward()``.
"""

import statistics
import time
import tracemalloc

import numpy as np

from mrscene import Model, ModelConfig, load_split
from mrscene import tensor as T
from mrscene.attention import attention_scores, pool_descriptors
from mrscene.birnn import bidirectional_pass
from mrscene.checkpoint import load_parameters, read_checkpoint, write_checkpoint
from mrscene.head import bce_with_logits_loss, classify, posteriors, predict
from mrscene.kbranch import branch_forward, fuse_descriptors
from mrscene.metrics import aggregate
from mrscene.tensor import Graph, Tensor
from mrscene.trainer import Adam

import workloads

# Per-layer gradients against the monolithic backward: the cut graph sums
# the same terms, possibly in another order, so allow a few float32 ulps
# of the largest gradient entry.
GRADIENT_TOLERANCE = 64 * np.finfo(np.float32).eps
REPEATS = 3


class Clock:
    """Accumulated milliseconds per span name."""

    def __init__(self):
        self.ms = {}

    def time(self, name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.ms[name] = self.ms.get(name, 0.0) + (time.perf_counter() - start) * 1e3
        return out


def tile(arr, grid):
    """(B, bands, H, W) -> (R*B, bands, H/g, W/g); rows [r*B, (r+1)*B) hold patch r."""
    b, bands, h, w = arr.shape
    ph, pw = h // grid, w // grid
    return arr.reshape(b, bands, grid, ph, grid, pw).transpose(2, 4, 0, 1, 3, 5).reshape(grid * grid * b, bands, ph, pw)


def cut(tensor):
    return Tensor(tensor.data, requires_grad=True)


def traced_forward(model, arrays, targets, clock):
    """Logits, loss and the segments [(name, outputs, cut leaves)] in forward order."""
    cfg = model.config
    batch = arrays[0].shape[0]
    segments = []

    tiles = clock.time("glue.fwd", lambda: [Tensor(tile(np.ascontiguousarray(a, dtype=model.dtype), cfg.grid))
                                        for a in arrays])
    branch_leaves = []
    for k, (spec, params) in enumerate(zip(cfg.branches, model.branch_params)):
        out = clock.time(f"kbranch.b{k}.fwd", branch_forward, tiles[k], spec, params)
        branch_leaves.append(cut(out))
        segments.append((f"kbranch.b{k}", [out], [branch_leaves[-1]]))
    descriptors = clock.time("kbranch.fuse.fwd", fuse_descriptors, branch_leaves, model.fusion)
    descriptors_leaf = cut(descriptors)
    segments.append(("kbranch.fuse", [descriptors], [descriptors_leaf]))

    steps = clock.time("glue.fwd", lambda: [T.slice_rows(descriptors_leaf, r * batch, (r + 1) * batch)
                                        for r in range(cfg.n_patches)])
    step_leaves = [cut(s) for s in steps]
    segments.append(("glue", steps, step_leaves))
    enriched = clock.time("birnn.fwd", bidirectional_pass, step_leaves, model.lstm_fwd, model.lstm_bwd)
    enriched_leaves = [cut(e) for e in enriched]
    segments.append(("birnn", enriched, enriched_leaves))

    omega = clock.time("glue.fwd", lambda: T.swap_last_axes(T.concat(
        [T.reshape(phi, (batch, 1, cfg.sequence_width)) for phi in enriched_leaves], axis=1)))
    omega_leaf = cut(omega)
    segments.append(("glue", [omega], [omega_leaf]))

    def attend():
        return pool_descriptors(omega_leaf, attention_scores(omega_leaf, model.attn_hidden, model.attn_heads))

    pooled = clock.time("attention.fwd", attend)
    pooled_leaf = cut(pooled)
    segments.append(("attention", [pooled], [pooled_leaf]))
    scores = clock.time("head.fwd", classify, pooled_leaf, model.clf_weight, model.clf_bias)
    loss = clock.time("loss.fwd", bce_with_logits_loss, scores, targets)
    segments.append(("head", [loss], []))
    return scores, loss, segments


def traced_backward(segments, clock):
    """Back-propagate each segment on its own, last segment first."""

    def one(outputs, leaves):
        if not leaves:
            outputs[0].backward()
            return
        total = T.sum_all(outputs[0] * Tensor(leaves[0].grad))
        for out, leaf in zip(outputs[1:], leaves[1:]):
            total = total + T.sum_all(out * Tensor(leaf.grad))
        total.backward()

    for name, outputs, leaves in reversed(segments):
        clock.time(f"{name}.bwd", one, outputs, leaves)


def gradients_agree(traced: dict, reference: dict) -> bool:
    for name, ref in reference.items():
        scale = max(float(np.abs(ref).max()), np.finfo(np.float32).tiny)
        if traced[name].shape != ref.shape or float(np.abs(traced[name] - ref).max()) > GRADIENT_TOLERANCE * scale:
            return False
    return True


def op_nodes(outputs) -> int:
    """Operation nodes (non-leaves) behind the given outputs."""
    seen = set()
    for out in outputs:
        seen.update(id(node) for node in Graph.trace(out).nodes if node._parents)
    return len(seen)


def branch_gflop(spec, patch_shape, n_patches) -> float:
    """Forward GFLOP of one branch over n_patches, computed from the shapes."""
    channels, h, w = patch_shape
    flops = 0
    for layer, (hh, ww) in zip(spec.layers, spec.spatial_trace(h, w)):
        flops += 2 * n_patches * hh * ww * layer.filters * channels * layer.kernel ** 2
        channels = layer.filters
    hf, wf = spec.spatial_trace(h, w)[-1]
    flops += 2 * n_patches * channels * hf * wf * spec.fc_out
    return flops / 1e9


def sgemm_gflop_s() -> float:
    """Best of five float32 2048^3 matrix products."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2048, 2048), dtype=np.float32)
    b = rng.standard_normal((2048, 2048), dtype=np.float32)
    best = min(timed(np.matmul, a, b) for _ in range(5))
    return 2.0 * 2048 ** 3 / best / 1e9


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def median_ms(fn, *args) -> float:
    return statistics.median(timed(fn, *args) for _ in range(REPEATS)) * 1e3


def run_trace(wl, seed: int, seconds: float, work, tally) -> dict:
    """Per-layer metrics as name -> (value, unit)."""
    work.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    manifest = workloads.make_dataset(wl, seed, work)
    generate_ms = (time.perf_counter() - start) * 1e3 / wl.n_samples
    start = time.perf_counter()
    samples = load_split(manifest, wl.split, work / "data")
    read_ms = (time.perf_counter() - start) * 1e3 / len(samples)
    sample_bytes = (work / "data" / f"{manifest.splits[wl.split][0]}.mrs").stat().st_size
    config = ModelConfig(n_classes=manifest.n_classes, subset_shapes=manifest.subset_shapes)
    model = Model(config, seed=seed)
    batches = [samples[i : i + wl.batch_size] for i in range(0, len(samples), wl.batch_size)]
    adam = Adam(workloads.LEARNING_RATE)
    shadow = {name: Tensor(p.data.copy()) for name, p in model.parameters.items()}

    rows, pairs = [], []
    began = time.perf_counter()
    while not rows or time.perf_counter() - began < seconds:
        batch = batches[len(rows) % len(batches)]
        arrays, targets = workloads.stack(batch)
        clock = Clock()
        model.zero_grad()
        scores, loss, segments = traced_forward(model, arrays, targets, clock)
        traced_backward(segments, clock)
        traced_grads = {name: p.grad.copy() for name, p in model.parameters.items()}
        traced_ms = sum(clock.ms.values())

        model.zero_grad()
        result = clock.time("model.forward", model.forward, arrays)
        whole_loss = bce_with_logits_loss(result.scores, targets)
        clock.time("tensor.backward", whole_loss.backward)
        tally.check(np.array_equal(scores.data, result.scores.data))
        tally.check(gradients_agree(traced_grads, {name: p.grad for name, p in model.parameters.items()}))
        for name, p in model.parameters.items():
            shadow[name].grad = p.grad
        clock.time("trainer.adam", adam.step, shadow)
        if len(rows) < len(batches):
            probs = posteriors(result.scores).data
            pairs += [(s.labels, predict(p, workloads.THRESHOLD)) for s, p in zip(batch, probs)]

        row = dict(clock.ms)
        row["trace.traced_ms_per_batch"] = traced_ms
        row["trace.untraced_ms_per_batch"] = row["model.forward"] + row["tensor.backward"]
        rows.append(row)
        if len(rows) == 1:
            birnn_nodes = op_nodes(next(outs for name, outs, _ in segments if name == "birnn"))
            graph_nodes = len(Graph.trace(whole_loss).nodes)

    def med(key):
        return statistics.median(row[key] for row in rows)

    out = {
        "dataset.generate_ms_per_sample": (generate_ms, "ms"),
        "dataset.read_ms_per_sample": (read_ms, "ms"),
        "dataset.sample_bytes": (sample_bytes, "bytes"),
    }
    for k in range(len(config.branches)):
        out[f"kbranch.b{k}.fwd_ms"] = (med(f"kbranch.b{k}.fwd"), "ms")
    out["kbranch.fuse.fwd_ms"] = (med("kbranch.fuse.fwd"), "ms")
    for k in range(len(config.branches)):
        out[f"kbranch.b{k}.bwd_ms"] = (med(f"kbranch.b{k}.bwd"), "ms")
    out["kbranch.fuse.bwd_ms"] = (med("kbranch.fuse.bwd"), "ms")
    for k, spec in enumerate(config.branches):
        gflop = branch_gflop(spec, config.patch_shape(k), config.n_patches * wl.batch_size)
        out[f"kbranch.b{k}.gflop_s"] = (gflop / (med(f"kbranch.b{k}.fwd") / 1e3), "GF/s")
    out.update({
        "birnn.fwd_ms": (med("birnn.fwd"), "ms"),
        "birnn.bwd_ms": (med("birnn.bwd"), "ms"),
        "birnn.nodes": (birnn_nodes, "count"),
        "attention.fwd_ms": (med("attention.fwd"), "ms"),
        "attention.bwd_ms": (med("attention.bwd"), "ms"),
        "head.fwd_ms": (statistics.median(r["head.fwd"] + r["loss.fwd"] for r in rows), "ms"),
        "head.bwd_ms": (med("head.bwd"), "ms"),
        "model.forward_ms": (med("model.forward"), "ms"),
        "model.glue_ms": (med("glue.fwd"), "ms"),
        "tensor.nodes": (graph_nodes, "count"),
        "tensor.backward_ms": (med("tensor.backward"), "ms"),
        "trainer.adam_ms": (med("trainer.adam"), "ms"),
    })

    arrays, targets = workloads.stack(batches[0])
    out["tensor.step_peak_mb"] = (step_peak_mb(wl, model, batches[0], arrays, targets, adam, shadow), "MB")

    path = work / "checkpoint.mac"
    state = adam.state_entries() if wl.kind == "train" else {}
    echo = {"model": config.to_dict()}
    out["checkpoint.write_ms"] = (median_ms(write_checkpoint, path, model.parameters, state, wl.epochs, echo), "ms")
    out["checkpoint.read_ms"] = (median_ms(lambda: load_parameters(model, read_checkpoint(path).params)), "ms")
    out["checkpoint.bytes"] = (path.stat().st_size, "bytes")
    out["metrics.aggregate_ms"] = (median_ms(aggregate, pairs), "ms")
    out["blas.sgemm_gflop_s"] = (sgemm_gflop_s(), "GF/s")
    out["trace.traced_ms_per_batch"] = (med("trace.traced_ms_per_batch"), "ms")
    out["trace.untraced_ms_per_batch"] = (med("trace.untraced_ms_per_batch"), "ms")
    out["trace.overhead_ratio"] = (out["trace.traced_ms_per_batch"][0] / out["trace.untraced_ms_per_batch"][0],
                                   "ratio")
    return out


def step_peak_mb(wl, model, batch, arrays, targets, adam, shadow) -> float:
    """Peak traced allocation of one batch as the workload runs it: a
    training step (forward, backward, Adam) or an evaluation forward."""
    model.zero_grad()
    tracemalloc.start()
    try:
        if wl.kind == "train":
            bce_with_logits_loss(model.forward(arrays).scores, targets).backward()
            for name, p in model.parameters.items():
                shadow[name].grad = p.grad
            adam.step(shadow)
        else:
            model.predict_probabilities(batch, wl.batch_size)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
