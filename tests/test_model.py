"""Model assembly: config validation, forward wiring, batching consistency."""

import copy
import functools
import importlib.util
import json
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrscene import tensor as T
from mrscene.attention import attention_scores, pool_descriptors
from mrscene.birnn import bidirectional_pass
from mrscene.dataset import PROFILES, Sample
from mrscene.errors import ConfigError, ShapeError, UsageError
from mrscene.head import bce_with_logits_loss, classify
from mrscene.init import ParameterSet, xavier_init
from mrscene.kbranch import BranchSpec, ConvLayerSpec, branch_forward, fuse_descriptors, split_patches
from mrscene.model import Model, ModelConfig
from mrscene.tensor import Tensor, run_shards
from mrscene.trainer import evaluate_model


def small_config() -> ModelConfig:
    return ModelConfig(
        n_classes=3,
        subset_shapes=[(2, 8, 8), (1, 4, 4)],
        branches=[
            BranchSpec([ConvLayerSpec(3, 4, pool=True), ConvLayerSpec(3, 3)], fc_out=5),
            BranchSpec([ConvLayerSpec(2, 3), ConvLayerSpec(2, 2)], fc_out=4),
        ],
        n_patches=4,
        descriptor_width=6,
        hidden_width=5,
        attention_heads=2,
        attention_width=4,
    )


@functools.cache
def load_bench_reference():
    """bench/reference.py: a float64 forward written apart from mrscene.tensor."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestModelConfig:
    def test_default_branches_for_three_subsets(self):
        cfg = ModelConfig(n_classes=8, subset_shapes=[(4, 24, 24), (6, 12, 12), (2, 4, 4)])
        cfg.validate()
        assert len(cfg.branches) == 3
        assert cfg.sequence_width == 256
        assert cfg.patch_shape(0) == (4, 6, 6)

    def test_round_trip_through_dict(self):
        cfg = small_config()
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back.to_dict() == cfg.to_dict()

    def test_reads_the_dict_a_stored_checkpoint_carries(self):
        """Branch layers are [kernel, filters, pool] lists, as checkpoints
        written before the dict form came from the dataclass fields hold them.
        Older checkpoints also name each branch's bands."""
        stored = {
            "n_classes": 3, "subset_shapes": [[2, 8, 8], [1, 4, 4]],
            "branches": [
                {"band_indices": ["a", "b"], "layers": [[3, 4, True], [3, 3, False]], "fc_out": 5},
                {"band_indices": ["c"], "layers": [[2, 3, False], [2, 2, False]], "fc_out": 4},
            ],
            "n_patches": 4, "descriptor_width": 6, "hidden_width": 5, "attention_heads": 2,
            "attention_width": 4, "threshold": 0.5, "per_position_lstm": False,
        }
        assert ModelConfig.from_dict(stored) == small_config()
        del stored["per_position_lstm"]  # former fields that new checkpoints do not echo
        for branch in stored["branches"]:
            del branch["band_indices"]
        assert json.loads(json.dumps(small_config().to_dict())) == stored

    @pytest.mark.parametrize("value", [True, 1, 0, None, "false"])
    def test_legacy_per_position_lstm_loads_only_as_false(self, value):
        payload = small_config().to_dict()
        assert ModelConfig.from_dict({**payload, "per_position_lstm": False}) == small_config()
        with pytest.raises(ConfigError, match="per_position_lstm"):
            ModelConfig.from_dict({**payload, "per_position_lstm": value})

    @pytest.mark.parametrize("payload", [
        [1],
        {"n_classes": 3, "subset_shapes": [[2, 8, 8]], "branches": 5},
        {"n_classes": 3, "subset_shapes": [[2, 8, 8]], "hidden_widht": 8},
        {"subset_shapes": [[2, 8, 8]]},
        {"n_classes": 3, "subset_shapes": 5},
        {"n_classes": 3, "subset_shapes": [[2, 8]]},
        {"n_classes": 3, "subset_shapes": []},
        {"n_classes": 3, "subset_shapes": None},
        {"n_classes": 3, "subset_shapes": [[2, 8, 8]], "branches": False},
        {"n_classes": 3, "subset_shapes": [[2, 8, 8]],
         "branches": [{"band_indices": ["a", "b"], "layers": [[3, 4, True, 1]], "fc_out": 5}]},
        {"n_classes": 3, "subset_shapes": [[2, 8, 8]],
         "branches": [{"band_indices": 5, "layers": [], "fc_out": 5}]},
        {"n_classes": 3, "subset_shapes": [[2, 8, 8]],
         "branches": [{"band_indices": ["a"], "layers": [], "fc_out": 5, "stride": 2}]},
        {"n_classes": 3, "subset_shapes": [[True, 8, 8]]},
    ])
    def test_from_dict_rejects_malformed_payload(self, payload):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict(payload).validate()

    @pytest.mark.parametrize("field,value", [
        ("threshold", 1.0), ("threshold", float("nan")), ("hidden_width", "8"),
        ("n_patches", 0), ("n_patches", -4), ("n_patches", 10**41),
    ])
    def test_rejects_bad_scalar(self, field, value):
        cfg = small_config()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    @pytest.mark.parametrize("layer", [ConvLayerSpec("3", 4), ConvLayerSpec(3, 4.0), ConvLayerSpec(3, 4, 1),
                                       ConvLayerSpec(0, 4), ConvLayerSpec(3, -1)])
    def test_rejects_bad_conv_layer(self, layer):
        cfg = small_config()
        cfg.branches[0].layers[0] = layer
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_non_square_patch_count(self):
        cfg = small_config()
        cfg.n_patches = 3
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_indivisible_geometry(self):
        cfg = small_config()
        cfg.subset_shapes[0] = (2, 9, 9)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_band_count_mismatch(self):
        """The former band_indices loads only as a list of one name per band
        of its subset, and is dropped."""
        payload = small_config().to_dict()
        payload["branches"][0]["band_indices"] = ["x", "y"]
        assert ModelConfig.from_dict(payload) == small_config()
        for names in (["a"], ["a", "b", "c"], [], "ab", None, 2):
            payload["branches"][0]["band_indices"] = names
            with pytest.raises(ConfigError, match=r"model\.branches\[0\]\.band_indices"):
                ModelConfig.from_dict(payload)

    def test_rejects_pooling_in_last_branch(self):
        cfg = small_config()
        cfg.branches[-1].layers[0].pool = True
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_strict_filter_regime(self):
        """The filter schedule is the branch's own check, not one of the
        model config: shrunken filters build and run."""
        cfg = small_config()
        with pytest.raises(ConfigError, match="32 filters"):
            cfg.branches[0].validate()
        cfg.validate()


class TestModelForward:
    def test_output_shapes(self):
        cfg = small_config()
        model = Model(cfg, seed=0)
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(3,) + tuple(s)).astype(np.float32) for s in cfg.subset_shapes]
        result = model.forward(arrays)
        assert result.scores.shape == (3, 3)
        assert result.attention.shape == (3, 2, 4)
        np.testing.assert_allclose(result.attention.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_tiny_training_step_graph_is_small(self):
        """Each LSTM direction is one graph node, not R cells of ~21 nodes
        each, the patch sequence stays one (R, B, d) tensor rather than R
        per-patch slices, and each conv carries its own ReLU: a default tiny
        step (16 patches) stays within 108 nodes, parameters and inputs
        included."""
        shapes = PROFILES["tiny"].subset_shapes
        model = Model(ModelConfig(n_classes=8, subset_shapes=shapes), seed=0)
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(2,) + tuple(s)).astype(np.float32) for s in shapes]
        loss = bce_with_logits_loss(model.forward(arrays).scores, np.ones((2, 8)))
        nodes = T.Graph.trace(loss).nodes
        assert len(nodes) <= 108
        assert not {n._op for n in nodes} & {"slice_rows", "stack", "unstack"}
        assert not any(p._op == "conv2d" for n in nodes if n._op == "relu" for p in n._parents)

    def test_rejects_wrong_subset_shape(self):
        model = Model(small_config(), seed=0)
        with pytest.raises(ShapeError):
            model.forward([np.zeros((2, 2, 8, 8)), np.zeros((2, 1, 6, 6))])

    def test_batch_matches_spec_op_pipeline(self):
        """The batched forward agrees with the sample-at-a-time composition
        of the public building blocks."""
        cfg = small_config()
        model = Model(cfg, seed=1, dtype=np.float64)
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=(2,) + tuple(s)) for s in cfg.subset_shapes]
        batch = model.forward(arrays)

        for b in range(2):
            patches = split_patches([arr[b] for arr in arrays], cfg.n_patches)
            descriptors = []
            for r in range(cfg.n_patches):
                outs = [
                    branch_forward(Tensor(patches.patch(r, k)), spec, model.branch_params[k])
                    for k, spec in enumerate(cfg.branches)
                ]
                descriptors.append(fuse_descriptors(outs, model.fusion))
            enriched = bidirectional_pass(descriptors, model.lstm_fwd, model.lstm_bwd)
            omega = T.concat([T.reshape(phi, (-1, 1)) for phi in enriched], axis=1)
            attn = attention_scores(omega, model.attn_hidden, model.attn_heads)
            pooled = pool_descriptors(omega, attn)
            scores = classify(pooled, model.clf_weight, model.clf_bias)
            np.testing.assert_allclose(batch.scores.data[b], scores.data, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(batch.attention.data[b], attn.data, rtol=1e-9, atol=1e-9)

    def test_parameter_names_unique_and_deterministic(self):
        m1 = Model(small_config(), seed=5)
        m2 = Model(small_config(), seed=5)
        assert list(m1.parameters) == list(m2.parameters)
        for name, p in m1.parameters.items():
            np.testing.assert_array_equal(p.data, m2.parameters[name].data)

    @pytest.mark.parametrize("profile,dtype", [("tiny", np.float32), ("bigearthnet-shaped", np.float32),
                                               ("small", np.float64)])
    def test_every_parameter_is_drawn_under_its_own_name(self, profile, dtype):
        """The name a parameter is stored under is the one keying its Xavier stream."""
        config = small_config() if profile == "small" else ModelConfig(
            n_classes=5, subset_shapes=PROFILES[profile].subset_shapes)
        model = Model(config, seed=3, dtype=dtype)
        for name, p in model.parameters.items():
            expected = xavier_init(p.shape, 3, name, dtype).data
            assert p.data.dtype == dtype
            np.testing.assert_array_equal(p.data, expected, err_msg=name)

    def test_duplicate_parameter_name_is_refused(self):
        params = ParameterSet(seed=0)
        first = params.new("layer.weight", (3, 2))
        with pytest.raises(ConfigError, match="layer.weight"):
            params.new("layer.weight", (3, 2))
        assert params["layer.weight"] is first and len(params) == 1

    def test_k1_r1_reduces_to_plain_cnn(self):
        """One branch, one patch: the whole pipeline is a CNN over the image
        followed by the LSTM/attention glue on a single descriptor."""
        cfg = ModelConfig(
            n_classes=2,
            subset_shapes=[(3, 6, 6)],
            branches=[BranchSpec([ConvLayerSpec(3, 4)], fc_out=5)],
            n_patches=1,
            descriptor_width=6,
            hidden_width=4,
            attention_heads=2,
            attention_width=3,
        )
        model = Model(cfg, seed=2, dtype=np.float64)
        rng = np.random.default_rng(2)
        image = rng.normal(size=(3, 6, 6))
        result = model.forward([image[None]])
        assert result.scores.shape == (1, 2)
        # descriptor of the single patch equals a plain CNN pass over the image
        direct = fuse_descriptors(
            [branch_forward(Tensor(image), cfg.branches[0], model.branch_params[0])], model.fusion
        )
        patches = split_patches([image], 1)
        via_split = fuse_descriptors(
            [branch_forward(Tensor(patches.patch(0, 0)), cfg.branches[0], model.branch_params[0])],
            model.fusion,
        )
        np.testing.assert_array_equal(direct.data, via_split.data)


def model_and_batch(batch, profile="tiny", n_classes=8):
    shapes = PROFILES[profile].subset_shapes
    model = Model(ModelConfig(n_classes=n_classes, subset_shapes=shapes), seed=0)
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=(batch,) + tuple(s)).astype(np.float32) for s in shapes]
    targets = (rng.random((batch, n_classes)) < 0.5).astype(np.float32)
    return model, arrays, targets


class TestTinyTrainingStep:
    """One step of the default tiny model: forward, loss and backward."""

    def test_backward_spends_the_graph(self):
        """After backward every operation result has dropped its gradient
        and closure but still holds its data and parents; a second backward
        through the graph raises and leaves the parameter gradients as
        they were."""
        model, arrays, targets = model_and_batch(2)
        scores = model.forward(arrays).scores
        loss = bce_with_logits_loss(scores, targets)
        loss.backward()
        nodes = T.Graph.trace(loss).nodes
        assert len(nodes) == 102
        assert "maxpool2" not in {n._op for n in nodes}  # pooling runs inside conv2d
        ops = [n for n in nodes if n._parents]
        assert ops and all(n.grad is None and n._backward is None and n.data is not None for n in ops)
        grads = {name: p.grad.copy() for name, p in model.parameters.items()}
        for root in (loss, T.sum_all(scores)):
            with pytest.raises(UsageError, match="already been back-propagated"):
                root.backward()
        for name, p in model.parameters.items():
            np.testing.assert_array_equal(p.grad, grads[name])

    def test_peak_memory_at_batch_32(self):
        """The traced peak of a warm step (the model's first step already
        run) stays below 26 MB. Keeping every op's gradient and closure to the
        end of backward, a padded input per conv and a masked copy of each
        conv gradient took it to 34.5 MB."""
        model, arrays, targets = model_and_batch(32)
        bce_with_logits_loss(model.forward(arrays).scores, targets).backward()
        model.zero_grad()
        tracemalloc.start()
        try:
            bce_with_logits_loss(model.forward(arrays).scores, targets).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 * 2 ** 20


class TestBigEarthNetShapedPeakMemory:
    """Traced peaks at batch 8 (128 patches) of BigEarthNet-shaped inputs;
    each conv2d band buffer is allocated inside the traced call, so it counts.
    Pooling as a separate op kept every full-resolution output of a pooled
    conv layer to the end of backward, and its backward built a second
    full-resolution array: the step peaked at 82.3 MB and the no-grad
    forward at 33.7 MB."""

    @pytest.fixture(scope="class")
    def warm(self):
        model, arrays, targets = model_and_batch(8, "bigearthnet-shaped", 4)
        bce_with_logits_loss(model.forward(arrays).scores, targets).backward()
        model.zero_grad()
        return model, arrays, targets

    @staticmethod
    def traced_peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_training_step(self, warm):
        model, arrays, targets = warm
        model.zero_grad()
        peak = self.traced_peak_mb(lambda: bce_with_logits_loss(model.forward(arrays).scores, targets).backward())
        assert peak <= 56

    def test_no_grad_forward(self, warm):
        model, arrays, _ = warm

        def forward():
            with T.no_grad():
                model.forward(arrays)

        assert self.traced_peak_mb(forward) <= 28


def test_shard_gate_lies_between_the_profiles():
    """tiny batches run unsharded, BigEarthNet-shaped ones in two shards."""
    values = {name: ModelConfig(n_classes=4, subset_shapes=p.subset_shapes).sample_values
              for name, p in PROFILES.items()}
    assert values == {"tiny": 3200, "bigearthnet-shaped": 80000}
    assert values["tiny"] < T._SHARD_MIN_VALUES <= values["bigearthnet-shaped"]


class TestPredictProbabilities:
    @staticmethod
    def tiny_model_and_samples(n):
        shapes = PROFILES["tiny"].subset_shapes
        model = Model(ModelConfig(n_classes=8, subset_shapes=shapes), seed=0)
        rng = np.random.default_rng(0)
        samples = [Sample([rng.normal(size=s).astype(np.float32) for s in shapes], np.ones(8), f"s{i}")
                   for i in range(n)]
        return model, samples

    def test_batches_do_not_hold_earlier_graphs(self):
        """Peak memory of four batches stays near that of one: each batch's
        graph is freed before the next forward builds its own."""
        model, samples = self.tiny_model_and_samples(32)
        tracemalloc.start()
        try:
            one = model.predict_probabilities(samples[:8], batch_size=8)
            _, peak_one = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            four = model.predict_probabilities(samples, batch_size=8)
            _, peak_four = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert four.shape == (32, 8)
        np.testing.assert_array_equal(four[:8], one)
        assert peak_four <= 1.25 * peak_one

    def test_sharded_batches_match_batch_one(self, monkeypatch):
        """BigEarthNet-shaped batches of 5 and 2 run as two shards each, and
        give the same bits on one CPU, on two and while another sharded call
        holds the lock."""
        shapes = PROFILES["bigearthnet-shaped"].subset_shapes
        model = Model(ModelConfig(n_classes=4, subset_shapes=shapes), seed=0)
        rng = np.random.default_rng(0)
        samples = [Sample([rng.normal(size=s).astype(np.float32) for s in shapes], np.ones(4), f"s{i}")
                   for i in range(7)]
        shards = []
        monkeypatch.setattr(T, "run_shards", lambda *a: shards.append(run_shards(*a)) or shards[-1])
        batched = model.predict_probabilities(samples, batch_size=5)
        assert [len(s) for s in shards] == [2, 2]
        np.testing.assert_allclose(batched, model.predict_probabilities(samples, batch_size=1),
                                   rtol=0, atol=1e-6)

        def outputs():
            return model.predict_probabilities(samples, 5).tobytes(), model.infer(samples, 5).attention.data.tobytes()

        runs = []
        shards.clear()
        for cpus in (1, 2):
            monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
            runs.append(outputs())
        with T._running:  # as while another call's shards run at once
            runs.append(outputs())
        assert runs == [runs[1]] * 3 and runs[1][0] == batched.tobytes()
        assert [len(s) for s in shards] == [2] * 12

    def test_rejects_batch_size_below_one(self):
        model, samples = self.tiny_model_and_samples(2)
        with pytest.raises(UsageError):
            model.predict_probabilities(samples, batch_size=0)

    def test_empty_sample_list_is_a_usage_error(self):
        """Not numpy's error from concatenating no batches."""
        model, _ = self.tiny_model_and_samples(0)
        for infer in (model.predict_probabilities, lambda samples: evaluate_model(model, samples)):
            with pytest.raises(UsageError, match="sample list is empty"):
                infer([])

    def test_infer_matches_one_forward_of_all_samples(self):
        """Scores and attention of every sample, in order, whatever the batch size."""
        model, samples = self.tiny_model_and_samples(7)
        result = model.infer(samples, batch_size=3)
        assert result.scores.shape == (7, 8) and result.attention.shape == (7, 4, 16)
        assert not result.scores.requires_grad
        with T.no_grad():
            whole = model.forward_samples(samples)
        np.testing.assert_allclose(result.scores.data, whole.scores.data, rtol=0, atol=1e-6)
        np.testing.assert_allclose(result.attention.data, whole.attention.data, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(model.predict_probabilities(samples, 3), result.probabilities.data)


class TestIndependentReference:
    @pytest.mark.parametrize("profile", ["tiny", "bigearthnet-shaped"])
    def test_float64_forward_matches_reference(self, profile):
        """On tiny patches 9 of the 12 convs run kernels wider than their
        1x1 maps; the BigEarthNet-shaped ones do not."""
        reference = load_bench_reference()
        prof = PROFILES[profile]
        model = Model(ModelConfig(n_classes=prof.default_classes, subset_shapes=prof.subset_shapes),
                      seed=1, dtype=np.float64)
        rng = np.random.default_rng(2)
        for p in model.parameters.values():
            if p.ndim == 1:  # the biases, zero at initialisation
                p.data[:] = 0.1 * rng.standard_normal(p.shape)
        subsets = [rng.normal(size=s) for s in prof.subset_shapes]
        with T.no_grad():
            logits = model.forward([s[None] for s in subsets]).scores.data[0]
        params = {name: p.data for name, p in model.parameters.items()}
        np.testing.assert_allclose(logits, reference.forward_one(subsets, params, model.config),
                                   rtol=0, atol=1e-9)


@st.composite
def drawn_configs(draw):
    """Configs that ``validate`` accepts: 1-3 subsets of 1-3 bands on a 1-4
    grid, each branch 0-3 conv layers of kernel 1-5 (even, and wider than
    its patch, included), pooling wherever the map allows it but in the
    last branch, and widths of 1-4."""
    width = st.integers(1, 4)
    n_subsets, grid = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    shapes, branches = [], []
    for k in range(n_subsets):
        bands, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
        shapes.append((bands, h * grid, w * grid))
        layers = []
        for _ in range(draw(st.integers(0, 3))):
            pool = k < n_subsets - 1 and min(h, w) >= 2 and draw(st.booleans())
            h, w = (h // 2, w // 2) if pool else (h, w)
            layers.append(ConvLayerSpec(draw(st.integers(1, 5)), draw(width), pool))
        branches.append(BranchSpec(layers, fc_out=draw(width)))
    return ModelConfig(n_classes=draw(st.integers(1, 3)), subset_shapes=shapes, branches=branches,
                       n_patches=grid * grid, descriptor_width=draw(width), hidden_width=draw(width),
                       attention_heads=draw(st.integers(1, 3)), attention_width=draw(width))


def json_paths(node, prefix=()):
    """The key path of every value inside a JSON tree, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


ODD_VALUES = st.sampled_from([-1, 0, 1, 2, 3, 16, 2.5, float("nan"), True, False, None, "3", [], [3],
                              [2, 8, 8], [[3, 4, False]], {}, {"layers": []}])


class TestDrawnConfigs:
    @settings(max_examples=100, deadline=None)
    @given(config=drawn_configs(), batch=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_logits_match_the_float64_reference(self, config, batch, seed):
        config.validate()
        model = Model(config, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(seed)
        for p in model.parameters.values():
            if p.ndim == 1:  # the biases, zero at initialisation
                p.data[:] = 0.1 * rng.standard_normal(p.shape)
        arrays = [rng.normal(size=(batch,) + shape) for shape in config.subset_shapes]
        with T.no_grad():
            logits = model.forward(arrays).scores.data
        params = {name: p.data for name, p in model.parameters.items()}
        for b in range(batch):
            expected = load_bench_reference().forward_one([a[b] for a in arrays], params, config)
            np.testing.assert_allclose(logits[b], expected, rtol=1e-9, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_mutated_payload_is_refused_or_runs(self, data):
        """One or two values of a valid payload replaced: either validation
        raises ConfigError and nothing else, or the model trains a step."""
        payload = json.loads(json.dumps(data.draw(drawn_configs()).to_dict()))
        for _ in range(data.draw(st.integers(1, 2))):
            path = data.draw(st.sampled_from(list(json_paths(payload))))
            parent = functools.reduce(operator.getitem, path[:-1], payload)
            parent[path[-1]] = copy.deepcopy(data.draw(ODD_VALUES))
        try:
            config = ModelConfig.from_dict(payload)
            config.validate()
        except ConfigError:
            return
        model = Model(config, seed=0)
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(2,) + tuple(shape)).astype(np.float32) for shape in config.subset_shapes]
        loss = bce_with_logits_loss(model.forward(arrays).scores, np.ones((2, config.n_classes)))
        loss.backward()
        assert np.isfinite(loss.item())
        assert all(p.grad is not None for p in model.parameters.values())
