"""Initialization, the Adam optimizer, and the training loop."""

import contextlib
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mrscene import tensor as T
from mrscene.cli import main
from mrscene.dataset import PROFILES, Sample
from mrscene.errors import ConfigError, TrainingDivergedError
from mrscene.init import xavier_init
from mrscene.kbranch import BranchSpec, ConvLayerSpec
from mrscene.model import Model, ModelConfig
from mrscene.tensor import Tensor, run_shards
from mrscene.trainer import Adam, TrainConfig, evaluate_model, moving_average, train


class TestXavierInit:
    def test_bound_for_100x100(self):
        t = xavier_init((100, 100), seed=0, name="w")
        bound = 0.17320508075688773  # sqrt(6 / 200)
        assert t.data.max() <= bound and t.data.min() >= -bound
        assert t.data.max() > 0.9 * bound  # actually fills the range

    def test_mean_near_zero(self):
        t = xavier_init((1000, 1000), seed=1, name="big")
        bound = np.sqrt(6 / 2000)
        sigma = bound / np.sqrt(3) / 1000  # std of the mean of 1e6 uniforms
        assert abs(t.data.mean()) < 3 * sigma

    def test_deterministic_per_seed_and_name(self):
        a = xavier_init((4, 7), seed=3, name="layer.w")
        b = xavier_init((4, 7), seed=3, name="layer.w")
        c = xavier_init((4, 7), seed=3, name="other.w")
        d = xavier_init((4, 7), seed=4, name="layer.w")
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert not np.array_equal(a.data, d.data)

    def test_biases_start_at_zero(self):
        np.testing.assert_array_equal(xavier_init((16,), seed=0, name="b").data, 0.0)

    def test_conv_fan_uses_receptive_field(self):
        t = xavier_init((8, 4, 3, 3), seed=0, name="k")
        bound = np.sqrt(6 / (4 * 9 + 8 * 9))
        assert np.abs(t.data).max() <= bound

    def test_requires_grad(self):
        assert xavier_init((3, 3), seed=0, name="w").requires_grad


class TestOptimizers:
    def param(self, value):
        t = Tensor(np.asarray(value, dtype=np.float32), requires_grad=True)
        return t

    def test_adam_first_step_magnitude_is_learning_rate(self):
        # bias-corrected ratio on step one is g / (|g| + eps) ~= sign(g)
        for g in (0.004, 2.7, -31.0):
            p = self.param([1.0])
            p.grad = np.asarray([g], dtype=np.float32)
            Adam(learning_rate=1e-3).step({"p": p})
            np.testing.assert_allclose(abs(1.0 - p.data[0]), 1e-3, rtol=1e-4)

    def test_zero_learning_rate_never_moves_parameters(self):
        opt = Adam(learning_rate=0.0)
        p = self.param([3.0])
        for _ in range(5):
            p.grad = np.asarray([1.7], dtype=np.float32)
            opt.step({"p": p})
        np.testing.assert_array_equal(p.data, [3.0])

    def test_missing_gradient_is_an_error(self):
        p = self.param([1.0])
        with pytest.raises(RuntimeError, match="no gradient"):
            Adam(learning_rate=1e-3).step({"p": p})

    def test_adam_state_round_trip(self):
        opt = Adam(learning_rate=1e-3)
        p = self.param([1.0, 2.0])
        p.grad = np.asarray([0.1, -0.2], dtype=np.float32)
        opt.step({"p": p})
        entries = opt.state_entries()
        fresh = Adam(learning_rate=1e-3)
        fresh.load_state_entries(entries)
        assert fresh.step_count == 1
        np.testing.assert_array_equal(fresh.m["p"], opt.m["p"])
        np.testing.assert_array_equal(fresh.v["p"], opt.v["p"])


def tiny_model_and_samples(n=8, seed=0):
    cfg = ModelConfig(
        n_classes=3,
        subset_shapes=[(2, 8, 8)],
        branches=[BranchSpec([ConvLayerSpec(3, 4, pool=True), ConvLayerSpec(3, 3)], fc_out=5)],
        n_patches=4,
        descriptor_width=6,
        hidden_width=5,
        attention_heads=2,
        attention_width=4,
    )
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        labels = np.zeros(3, np.uint8)
        labels[rng.integers(0, 3)] = 1
        samples.append(Sample(
            subsets=[rng.normal(size=(2, 8, 8)).astype(np.float32)],
            labels=labels,
            id=f"s{i}",
        ))
    return Model(cfg, seed=seed), samples


class TestTrainLoop:
    def test_trajectory_length_equals_epochs(self):
        model, samples = tiny_model_and_samples()
        result = train(model, samples, TrainConfig(epochs=4, batch_size=4, seed=0))
        assert len(result.loss_trajectory) == 4

    def test_loss_log_and_checkpoints_written(self, tmp_path):
        model, samples = tiny_model_and_samples()
        cfg = TrainConfig(epochs=3, batch_size=4, seed=0, checkpoint_every=2)
        result = train(model, samples, cfg, out_dir=tmp_path)
        log = (tmp_path / "loss_log.txt").read_text().splitlines()
        assert len(log) == 3
        assert all(len(line.split("\t")) == 2 for line in log)
        assert log == [f"{n}\t{loss:.8e}" for n, loss in enumerate(result.loss_trajectory, start=1)]
        assert (tmp_path / "checkpoint-0002.mac").exists()
        assert result.final_checkpoint.endswith("checkpoint-final.mac")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-0002.mac", "checkpoint-final.mac", "loss_log.txt"]  # no temp file left

    def test_training_reduces_loss(self):
        model, samples = tiny_model_and_samples(n=4)
        result = train(model, samples, TrainConfig(epochs=15, batch_size=4, seed=0))
        assert result.loss_trajectory[-1] < result.loss_trajectory[0]

    def test_divergence_guard_names_the_batch(self):
        model, samples = tiny_model_and_samples(n=4)
        samples[2].subsets[0][0, 0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match=r"epoch 1, batch \d"):
            train(model, samples, TrainConfig(epochs=1, batch_size=2, seed=0))

    def test_divergence_in_epoch_2_keeps_the_log_of_epoch_1(self, tmp_path):
        """One batch per epoch at a learning rate that overflows the first
        step: epoch 1's loss is finite, epoch 2's is not. The log of epoch 1
        is in place, with no temp file beside it and no checkpoint."""
        model, samples = tiny_model_and_samples(n=4)
        cfg = TrainConfig(epochs=3, batch_size=4, seed=0, learning_rate=1e39)
        with pytest.raises(TrainingDivergedError, match=r"epoch 2, batch 0"):
            train(model, samples, cfg, out_dir=tmp_path)
        log = (tmp_path / "loss_log.txt").read_text().splitlines()
        assert len(log) == 1 and log[0].startswith("1\t")
        assert np.isfinite(float(log[0].split("\t")[1]))
        assert [p.name for p in tmp_path.iterdir()] == ["loss_log.txt"]

    @pytest.mark.parametrize("checkpoint_every", [0, 1])
    def test_non_finite_parameters_are_never_checkpointed(self, tmp_path, checkpoint_every):
        """One batch per epoch, so no later loss can catch the overflowed step."""
        model, samples = tiny_model_and_samples(n=4)
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0, learning_rate=1e39,
                          checkpoint_every=checkpoint_every)
        with pytest.raises(TrainingDivergedError, match=r"parameter '.+' at epoch 1"):
            train(model, samples, cfg, out_dir=tmp_path)
        assert not list(tmp_path.glob("*.mac"))

    def test_invalid_configs_rejected(self):
        model, samples = tiny_model_and_samples(n=2)
        for bad in (TrainConfig(learning_rate=0.0), TrainConfig(learning_rate=float("nan")),
                    TrainConfig(learning_rate=float("inf")), TrainConfig(epochs=0),
                    TrainConfig(batch_size=0), TrainConfig(seed=-1)):
            with pytest.raises(ConfigError):
                train(model, samples, bad)

    def test_steps_do_not_hold_earlier_graphs(self):
        """Peak memory of four steps stays near that of two: each step's
        graph is freed before the next forward builds its own. Adam's
        moments are allocated in the first step, so two steps, not one,
        hold everything a later step holds."""
        shapes = PROFILES["tiny"].subset_shapes
        rng = np.random.default_rng(0)
        samples = [Sample([rng.normal(size=s).astype(np.float32) for s in shapes],
                          np.eye(8, dtype=np.uint8)[i % 8], f"s{i}") for i in range(32)]
        config = ModelConfig(n_classes=8, subset_shapes=shapes)
        cfg = TrainConfig(epochs=1, batch_size=8, shuffle=False)

        def peak(n):
            model = Model(config, seed=0)
            tracemalloc.start()
            try:
                train(model, samples[:n], cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # One untraced step first, so that what a process allocates only once
        # (numpy's and the interpreter's first-call caches) is in neither peak.
        train(Model(config, seed=0), samples[:8], cfg)
        assert peak(32) <= 1.1 * peak(16)

    def test_evaluate_model_reports_example_metrics(self):
        model, samples = tiny_model_and_samples(n=6)
        report = evaluate_model(model, samples, threshold=0.5)
        assert report.n_samples == 6
        assert 0.0 <= report.f1 <= 1.0

    def test_evaluate_model_defaults_to_the_model_threshold(self):
        """Every posterior is 0.4: positive at the model's 0.3, negative at 0.5."""
        model, samples = tiny_model_and_samples(n=6)
        model.config.threshold = 0.3
        model.clf_weight.data[...] = 0.0
        model.clf_bias.data[...] = np.log(0.4 / 0.6)
        report = evaluate_model(model, samples)
        assert report == evaluate_model(model, samples, threshold=0.3)
        assert report.recall == 1.0
        assert evaluate_model(model, samples, threshold=0.5).recall == 0.0

    def test_epoch_order_is_seeded(self):
        from mrscene.trainer import _epoch_order

        a = _epoch_order(50, seed=3, epoch=2, shuffle=True)
        b = _epoch_order(50, seed=3, epoch=2, shuffle=True)
        c = _epoch_order(50, seed=3, epoch=3, shuffle=True)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        np.testing.assert_array_equal(_epoch_order(5, 0, 0, shuffle=False), np.arange(5))

    def test_single_sample_overfit_scores_perfectly_on_train_split(self):
        # hotter learning rate: this test model is far smaller than the default
        model, samples = tiny_model_and_samples(n=1, seed=4)
        cfg = TrainConfig(learning_rate=3e-2, epochs=120, batch_size=1, seed=0, shuffle=False)
        result = train(model, samples, cfg)
        assert min(result.loss_trajectory) < 0.01
        report = evaluate_model(model, samples, threshold=0.5)
        assert (report.recall, report.f1, report.f2) == (1.0, 1.0, 1.0)


class TestMovingAverage:
    def test_values(self):
        ma = moving_average([4, 3, 2, 1, 0, 5], window=5)
        np.testing.assert_allclose(ma, [2.0, 2.2])

    def test_needs_enough_points(self):
        with pytest.raises(ConfigError):
            moving_average([1, 2], window=5)


class TestAdamInPlace:
    def test_bit_identical_to_the_textbook_expression(self):
        """30 steps on gradients spanning ten decades leave the parameters
        and moments byte for byte where the allocating form leaves them."""

        def textbook_step(opt, parameters):
            opt.step_count += 1
            t = opt.step_count
            for name, p in parameters.items():
                g = p.grad
                m = opt.m.setdefault(name, np.zeros_like(p.data))
                v = opt.v.setdefault(name, np.zeros_like(p.data))
                m *= opt.beta1
                m += (1.0 - opt.beta1) * g
                v *= opt.beta2
                v += (1.0 - opt.beta2) * (g * g)
                m_hat = m / (1.0 - opt.beta1**t)
                v_hat = v / (1.0 - opt.beta2**t)
                p.data -= opt.learning_rate * m_hat / (np.sqrt(v_hat) + opt.eps)

        rng = np.random.default_rng(0)
        shapes = {"w": (7, 5), "b": (7,), "k": (3, 2, 3, 3)}
        ours = {n: Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True) for n, s in shapes.items()}
        theirs = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in ours.items()}
        opt, ref = Adam(learning_rate=3e-3), Adam(learning_rate=3e-3)
        for _ in range(30):
            for name, p in ours.items():
                g = (rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 2)).astype(np.float32)
                p.grad, theirs[name].grad = g, g.copy()
            opt.step(ours)
            textbook_step(ref, theirs)
        for name in shapes:
            assert ours[name].data.tobytes() == theirs[name].data.tobytes()
            assert opt.m[name].tobytes() == ref.m[name].tobytes()
            assert opt.v[name].tobytes() == ref.v[name].tobytes()


def bigearthnet_samples(n, seed=0):
    shapes = PROFILES["bigearthnet-shaped"].subset_shapes
    rng = np.random.default_rng(seed)
    return [Sample([rng.normal(size=s).astype(np.float32) for s in shapes],
                   np.eye(4, dtype=np.uint8)[i % 4], f"s{i}") for i in range(n)]


class TestShardedTraining:
    """BigEarthNet-shaped batches of 8 run as two shards of 4 samples, on
    any number of CPUs."""

    @staticmethod
    def one_step(monkeypatch, batch=8):
        """Loss and parameter gradients of one training step at ``batch``,
        and the number of shards it ran as. The gradients are those the
        step computed; its update does not touch them."""
        shards = []
        monkeypatch.setattr(T, "run_shards", lambda *a: shards.append(run_shards(*a)) or shards[-1])
        model = Model(ModelConfig(n_classes=4, subset_shapes=PROFILES["bigearthnet-shaped"].subset_shapes), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=batch, shuffle=False, learning_rate=1e-9)
        loss = train(model, bigearthnet_samples(batch), cfg).loss_trajectory[0]
        return loss, {name: p.grad for name, p in model.parameters.items()}, len(shards[0])

    def test_sharded_step_matches_the_unsharded_one(self, monkeypatch):
        """At batch 8 the shards weigh their mean losses by 1/2 each; at
        batch 5, by 3/5 and 2/5, which are not powers of two. The whole
        batch runs once the shard threshold lies above its sample size."""
        steps = {batch: self.one_step(monkeypatch, batch) for batch in (8, 5)}
        monkeypatch.setattr(T, "_SHARD_MIN_VALUES", 10**9)
        for batch, (loss, grads, shards) in steps.items():
            one_loss, one_grads, one_shards = self.one_step(monkeypatch, batch)
            assert (shards, one_shards) == (2, 1)
            assert loss == pytest.approx(one_loss, rel=1e-5)
            for name, g in grads.items():
                assert np.abs(g - one_grads[name]).max() <= 1e-5 * np.abs(one_grads[name]).max(), (batch, name)

    @pytest.fixture(scope="class")
    def concurrent_steps(self):
        """The step at batches 8 and 5 with its two halves run at once, by
        this thread and the worker, as on two CPUs."""
        if T._blas_threads() is None:
            pytest.skip("numpy's BLAS exports no thread-count calls, so the halves never run at once")
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
            threads = set()
            shard = T._shard
            monkeypatch.setattr(T, "_shard", lambda *a: threads.add(threading.get_ident()) or shard(*a))
            steps = {batch: self.one_step(monkeypatch, batch) for batch in (8, 5)}
        assert len(threads) == 2
        return steps

    def assert_in_turn_steps_keep_the_bits(self, monkeypatch, concurrent_steps):
        """This thread runs both halves in turn, with no worker, and the
        loss and every gradient keep the bits of the concurrent steps."""
        monkeypatch.setattr(T, "_shard_worker", lambda: pytest.fail("a shard worker was asked for"))
        for batch, (two_loss, two_grads, two_shards) in concurrent_steps.items():
            loss, grads, shards = self.one_step(monkeypatch, batch)
            assert shards == two_shards == 2 and loss == two_loss, batch
            for name, g in grads.items():
                assert g.tobytes() == two_grads[name].tobytes(), (batch, name)

    @pytest.mark.parametrize("condition", ["one_cpu", "sharded_call_running"])
    def test_the_step_is_bit_identical_however_its_halves_run(self, monkeypatch, concurrent_steps, condition):
        """On one CPU, and while another sharded call holds the lock."""
        monkeypatch.setattr(T, "_usable_cpus", lambda: 1 if condition == "one_cpu" else 2)
        with T._running if condition == "sharded_call_running" else contextlib.nullcontext():
            self.assert_in_turn_steps_keep_the_bits(monkeypatch, concurrent_steps)

    def test_without_blas_thread_calls_the_step_is_bit_identical(self, monkeypatch, concurrent_steps):
        """Two threads would then oversubscribe the cores."""
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(T, "_blas_threads", lambda: None)
        self.assert_in_turn_steps_keep_the_bits(monkeypatch, concurrent_steps)

    def test_cli_runs_are_byte_identical(self, tmp_path, capsys):
        """Two `mrscene train` runs on 14 training samples (batches of 8
        and 6, both sharded) write the same checkpoint and loss log."""
        data = tmp_path / "data"
        assert main(["generate-data", "--out", str(data), "--seed", "3", "--n", "24",
                     "--profile", "bigearthnet-shaped", "--classes", "4"]) == 0
        digests = []
        for run in ("a", "b"):
            assert main(["train", "--data", str(data), "--out", str(tmp_path / run),
                         "--epochs", "2", "--seed", "1", "--batch-size", "8"]) == 0
            digests.append([hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest()
                            for name in ("checkpoint-final.mac", "loss_log.txt")])
        capsys.readouterr()
        assert digests[0] == digests[1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs and os.sched_setaffinity")
    def test_a_run_pinned_to_one_cpu_writes_the_same_bytes(self, tmp_path):
        """`python -m mrscene train` in a child process pinned to one CPU,
        which runs each batch's halves in turn, writes the checkpoint and
        loss log of a run on every CPU, which runs them at once."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

        def mrscene(*args, pin=None):
            proc = subprocess.run([sys.executable, "-m", "mrscene", *args], env=env, preexec_fn=pin,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr

        data = tmp_path / "data"
        mrscene("generate-data", "--out", str(data), "--seed", "3", "--n", "16",
                "--profile", "bigearthnet-shaped", "--classes", "4")
        cpu = min(os.sched_getaffinity(0))
        for run, pin in (("every", None), ("one", lambda: os.sched_setaffinity(0, {cpu}))):
            mrscene("train", "--data", str(data), "--out", str(tmp_path / run),
                    "--epochs", "2", "--seed", "1", "--batch-size", "8", pin=pin)
        for name in ("checkpoint-final.mac", "loss_log.txt"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "every" / name).read_bytes(), name

    def test_non_finite_loss_in_the_workers_shard(self):
        """A NaN pixel in the second half of the batch, which the worker
        runs; no RuntimeWarning escapes it."""
        model = Model(ModelConfig(n_classes=4, subset_shapes=PROFILES["bigearthnet-shaped"].subset_shapes), seed=0)
        samples = bigearthnet_samples(8)
        samples[6].subsets[0][0, 0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match=r"epoch 1, batch 0"):
            train(model, samples, TrainConfig(epochs=1, batch_size=8, seed=0, shuffle=False))

    def test_train_and_evaluate_add_at_most_one_thread(self):
        model = Model(ModelConfig(n_classes=4, subset_shapes=PROFILES["bigearthnet-shaped"].subset_shapes), seed=0)
        samples = bigearthnet_samples(4)
        threads = threading.active_count()
        for _ in range(3):
            train(model, samples, TrainConfig(epochs=1, batch_size=4, seed=0))
            evaluate_model(model, samples, batch_size=4)
        assert threading.active_count() <= threads + 1

    def test_tiny_batches_start_no_worker(self, monkeypatch):
        monkeypatch.setattr(T, "_shard_worker", lambda: pytest.fail("a shard worker was asked for"))
        model, samples = tiny_model_and_samples()
        threads = threading.active_count()
        train(model, samples, TrainConfig(epochs=1, batch_size=8, seed=0))
        evaluate_model(model, samples, batch_size=8)
        assert threading.active_count() == threads
