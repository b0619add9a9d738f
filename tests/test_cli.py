"""CLI subcommands, exit codes, and output contracts."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrscene.cli import main


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def assert_one_error_line(err: str, field: str):
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny dataset plus a short training run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["generate-data", "--out", str(data), "--seed", "42", "--n", "32",
                 "--profile", "tiny", "--classes", "4"]) == 0
    assert main(["train", "--data", str(data), "--out", str(run),
                 "--epochs", "2", "--seed", "1", "--batch-size", "8"]) == 0
    return {"root": root, "data": data, "run": run,
            "checkpoint": run / "checkpoint-final.mac"}


class TestGenerateData:
    def test_repeat_invocation_byte_identical(self, tmp_path, capsys):
        args = ["generate-data", "--seed", "7", "--n", "10", "--profile", "tiny"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_split_counts_for_64(self, tmp_path, capsys):
        assert main(["generate-data", "--out", str(tmp_path / "d"), "--seed", "42",
                     "--n", "64", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "'train': 38" in out and "'val': 13" in out and "'test': 13" in out

    def test_zero_samples_exits_2(self, tmp_path, capsys):
        assert main(["generate-data", "--out", str(tmp_path / "d"), "--seed", "1", "--n", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_profile_exits_2(self, tmp_path, capsys):
        assert main(["generate-data", "--out", str(tmp_path / "d"), "--seed", "1",
                     "--n", "4", "--profile", "planetary"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf", "1e39", "3e38"])
    def test_bad_noise_exits_2(self, tmp_path, capsys, noise):
        """Also a finite noise whose draws would overflow float32 pixels to
        infinity, which used to write them with a cast warning."""
        assert main(["generate-data", "--out", str(tmp_path / "d"), "--seed", "1",
                     "--n", "5", "--noise", noise]) == 2
        assert_one_error_line(capsys.readouterr().err, "noise")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("split", ["nan,0.5,0.5", "1,1,1", "0.5,0.5"])
    def test_bad_split_exits_2(self, tmp_path, capsys, split):
        assert main(["generate-data", "--out", str(tmp_path / "d"), "--seed", "1",
                     "--n", "10", "--split", split]) == 2
        assert_one_error_line(capsys.readouterr().err, "split")
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_writes_logs_and_echoes_config(self, workspace, capsys):
        log = (workspace["run"] / "loss_log.txt").read_text().splitlines()
        assert len(log) == 2  # one line per epoch
        assert workspace["checkpoint"].exists()

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_invalid_flag_value_exits_2(self, workspace, tmp_path, capsys):
        assert main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "o"),
                     "--epochs", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, workspace, tmp_path, capsys, lr):
        out = tmp_path / "o"
        assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                     "--epochs", "1", "--lr", lr]) == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not (out / "checkpoint-final.mac").exists()

    def test_diverged_training_exits_3_without_checkpoint(self, workspace, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                     "--epochs", "1", "--batch-size", "64", "--lr", "1e39"]) == 3
        assert_one_error_line(capsys.readouterr().err, "non-finite parameter")
        assert not list(out.glob("*.mac"))

    def test_divergence_in_epoch_2_exits_3_keeping_the_loss_log(self, workspace, tmp_path, capsys):
        """The overflowed parameters of epoch 1 make epoch 2's loss
        non-finite; the forward through them prints no numpy warning."""
        out = tmp_path / "o"
        assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                     "--epochs", "2", "--batch-size", "64", "--lr", "1e39"]) == 3
        assert_one_error_line(capsys.readouterr().err, "epoch 2, batch 0")
        assert len((out / "loss_log.txt").read_text().splitlines()) == 1
        assert not list(out.glob("*.mac"))

    def test_diverged_training_prints_only_its_error_line(self, workspace, tmp_path):
        """In a fresh interpreter with default warning filters, the
        overflowing optimizer step adds no numpy warning to stderr."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mrscene.cli", "train", "--data", str(workspace["data"]),
             "--out", str(tmp_path / "o"), "--epochs", "1", "--batch-size", "64", "--lr", "1e39"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 3
        assert_one_error_line(proc.stderr, "non-finite parameter")

    @pytest.mark.parametrize("via_config", [False, True])
    def test_negative_checkpoint_every_exits_2(self, workspace, tmp_path, capsys, via_config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"checkpoint_every": -1}}))
        out = tmp_path / "o"
        option = ["--config", str(cfg)] if via_config else ["--checkpoint-every", "-1"]
        assert main(["train", "--data", str(workspace["data"]), "--out", str(out), "--epochs", "1"] + option) == 2
        assert_one_error_line(capsys.readouterr().err, "checkpoint_every")
        assert not out.exists()

    def test_config_file_with_mismatched_classes_exits_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"n_classes": 9}}))
        assert main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "o"),
                     "--config", str(cfg), "--epochs", "1"]) == 2
        assert "n_classes" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,field", [
        ({"train": {"learning_rate": "0.1"}}, "learning_rate"),
        ({"train": {"epochs": "2"}}, "epochs"),
        ({"train": {"batch_size": 2.5}}, "batch_size"),
        ({"train": {"epochs": True}}, "epochs"),
        ({"model": {"hidden_width": "8"}}, "hidden_width"),
        ({"model": {"branches": 5}}, "branches"),
        ({"model": {"branches": [{"layers": [["3", 32, False]], "fc_out": 8}]}},
         "kernel"),
        ({"model": [1]}, "model"),
        ({"model": {"hidden_widht": 8}}, "hidden_widht"),
        ({"train": {"threshold": 0.3}}, "threshold"),
        ({"modle": {}}, "modle"),
        ({"model": {"per_position_lstm": True}}, "per_position_lstm"),
        *(({"train": {"optimizer": value}}, "train.optimizer") for value in ("sgd", True, 1, None)),
        # 10**12 x 128 float64 values (1 PiB) exceed the address space; 10**19 exceeds numpy's largest dimension
        *(({"model": {"hidden_width": width}}, f"of shape ({width}, 128) cannot be allocated")
          for width in (10**12, 10**19)),
    ])
    def test_config_file_field_of_wrong_type_exits_2(self, workspace, tmp_path, capsys, payload, field):
        """Each payload exits 2 with one error line naming what is at fault."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "o"
        assert main(["train", "--data", str(workspace["data"]), "--out", str(out),
                     "--config", str(cfg)]) == 2
        assert_one_error_line(capsys.readouterr().err, field)
        assert not out.exists()

    def test_config_file_with_the_former_optimizer_field_trains(self, workspace, tmp_path, capsys):
        """Older config files name the optimizer, which is always Adam;
        the field is dropped, so the echo does not carry it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"optimizer": "adam"}}))
        assert main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "o"),
                     "--config", str(cfg), "--epochs", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "optimizer" not in captured.out

    def test_config_file_with_the_former_band_indices(self, workspace, tmp_path, capsys):
        """Older config files name each branch's bands: one name per band of
        the subset trains as without them, and the echo drops them; a list
        of another length exits 2 naming the field."""
        from mrscene.model import ModelConfig

        shapes = json.loads((workspace["data"] / "manifest.json").read_text())["subset_shapes"]
        branches = ModelConfig(n_classes=4, subset_shapes=shapes).to_dict()["branches"]
        named = [{**b, "band_indices": [f"B{i}" for i in range(bands)]} for b, (bands, _, _) in zip(branches, shapes)]
        args = ["train", "--data", str(workspace["data"]), "--epochs", "2", "--seed", "1", "--batch-size", "8",
                "--config", str(tmp_path / "cfg.json")]
        (tmp_path / "cfg.json").write_text(json.dumps({"model": {"branches": named}}))
        assert main(args + ["--out", str(tmp_path / "named")]) == 0
        assert "band_indices" not in capsys.readouterr().out
        assert (tmp_path / "named" / "loss_log.txt").read_bytes() == (workspace["run"] / "loss_log.txt").read_bytes()
        named[1]["band_indices"] = ["B0"]
        (tmp_path / "cfg.json").write_text(json.dumps({"model": {"branches": named}}))
        assert main(args + ["--out", str(tmp_path / "short")]) == 2
        assert_one_error_line(capsys.readouterr().err, "model.branches[1].band_indices")
        assert not (tmp_path / "short").exists()

    def test_the_filter_schedule_binds_config_files_not_checkpoints(self, workspace, tmp_path, capsys):
        """A model to train follows the paper's filter schedule (32 filters
        first, double then halve, 64 last); a checkpoint of a model that
        does not still loads."""
        from mrscene.checkpoint import write_checkpoint
        from mrscene.kbranch import BranchSpec, ConvLayerSpec
        from mrscene.model import Model, ModelConfig

        shapes = json.loads((workspace["data"] / "manifest.json").read_text())["subset_shapes"]
        config = ModelConfig(n_classes=4, subset_shapes=shapes,
                             branches=[BranchSpec([ConvLayerSpec(3, 4)], fc_out=5) for _ in shapes])
        (tmp_path / "cfg.json").write_text(json.dumps({"model": {"branches": config.to_dict()["branches"]}}))
        assert main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "o"),
                     "--config", str(tmp_path / "cfg.json")]) == 2
        assert_one_error_line(capsys.readouterr().err, "32 filters")
        write_checkpoint(tmp_path / "small.mac", Model(config).parameters, {}, 0, {"model": config.to_dict()})
        assert main(["evaluate", "--data", str(workspace["data"]), "--checkpoint", str(tmp_path / "small.mac")]) == 0
        capsys.readouterr()

    def test_the_pooling_rule_binds_config_files_not_checkpoints(self, workspace, tmp_path, capsys):
        """A model to train does not pool in its lowest-resolution branch;
        a checkpoint of a model that does still loads."""
        from mrscene.checkpoint import write_checkpoint
        from mrscene.model import Model, ModelConfig

        shapes = json.loads((workspace["data"] / "manifest.json").read_text())["subset_shapes"]
        config = ModelConfig(n_classes=4, subset_shapes=shapes, n_patches=4)
        config.branches[-1].layers[0].pool = True
        (tmp_path / "cfg.json").write_text(json.dumps({"model": {"n_patches": 4,
                                                                  "branches": config.to_dict()["branches"]}}))
        assert main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "o"),
                     "--config", str(tmp_path / "cfg.json")]) == 2
        assert_one_error_line(capsys.readouterr().err, "must not pool")
        write_checkpoint(tmp_path / "pooled.mac", Model(config).parameters, {}, 0, {"model": config.to_dict()})
        assert main(["evaluate", "--data", str(workspace["data"]), "--checkpoint", str(tmp_path / "pooled.mac")]) == 0
        capsys.readouterr()

    def test_threshold_is_stored_in_the_model_and_used_by_evaluate(self, workspace, tmp_path, capsys):
        from mrscene.checkpoint import read_checkpoint

        run = tmp_path / "run"
        assert main(["train", "--data", str(workspace["data"]), "--out", str(run),
                     "--epochs", "1", "--seed", "1", "--batch-size", "8", "--threshold", "0.3"]) == 0
        echo = json.loads(capsys.readouterr().out.splitlines()[0][len("config: "):])
        assert echo["model"]["threshold"] == 0.3 and "threshold" not in echo["train"]
        assert read_checkpoint(run / "checkpoint-final.mac").config["model"]["threshold"] == 0.3
        args = ["--data", str(workspace["data"]), "--checkpoint", str(run / "checkpoint-final.mac")]
        assert main(["evaluate"] + args) == 0
        stored = capsys.readouterr().out
        assert "threshold: 0.3\n" in stored
        assert main(["evaluate"] + args + ["--threshold", "0.3"]) == 0
        assert capsys.readouterr().out == stored
        assert main(["predict"] + args) == 0
        stored = capsys.readouterr().out
        assert main(["predict"] + args + ["--threshold", "0.3"]) == 0
        assert capsys.readouterr().out == stored

    def test_default_learning_rate_echoed_in_checkpoint(self, workspace):
        from mrscene.checkpoint import read_checkpoint

        echo = read_checkpoint(workspace["checkpoint"]).config
        assert echo["train"]["learning_rate"] == 1e-3


class TestEvaluatePredictAttn:
    def test_evaluate_emits_key_value_block(self, workspace, capsys):
        assert main(["evaluate", "--data", str(workspace["data"]),
                     "--checkpoint", str(workspace["checkpoint"])]) == 0
        out = capsys.readouterr().out
        assert "config:" in out
        values = dict(line.split("=") for line in out.splitlines() if "=" in line and "config" not in line)
        assert set(values) == {"recall", "f1", "f2", "n_samples"}
        assert 0.0 <= float(values["f1"]) <= 1.0

    def test_predict_renders_none_for_empty_sets(self, workspace, capsys):
        assert main(["predict", "--data", str(workspace["data"]),
                     "--checkpoint", str(workspace["checkpoint"]), "--threshold", "0.999"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "\t" in l]
        assert lines and all(l.split("\t")[1] == "<none>" for l in lines)

    def test_predict_threshold_out_of_range_exits_2(self, workspace, capsys):
        """predict and evaluate check --threshold before printing anything."""
        for command in ("predict", "evaluate"):
            for threshold in ("1.5", "0", "nan"):
                assert main([command, "--data", str(workspace["data"]),
                             "--checkpoint", str(workspace["checkpoint"]), "--threshold", threshold]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and "threshold" in captured.err

    def test_attn_dump_rows_sum_to_one(self, workspace, capsys):
        assert main(["attn-dump", "--data", str(workspace["data"]),
                     "--checkpoint", str(workspace["checkpoint"]), "--limit", "2"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.startswith("  ")]
        assert rows
        for row in rows:
            total = sum(float(v) for v in row.split())
            assert abs(total - 1.0) < 1e-5

    def test_attn_dump_runs_sharded_batches_and_prints_their_tables(self, tmp_path, capsys, monkeypatch):
        """BigEarthNet-shaped batches of 4 and 2 run as two shards each, and
        the tables are those of an unsharded forward of each batch. One CPU
        prints the same text as two."""
        from mrscene import tensor as T
        from mrscene.checkpoint import write_checkpoint
        from mrscene.dataset import DatasetManifest, load_split
        from mrscene.model import Model, ModelConfig

        data = tmp_path / "big"
        assert main(["generate-data", "--out", str(data), "--seed", "3", "--n", "6",
                     "--profile", "bigearthnet-shaped", "--classes", "4", "--split", "0,0,1"]) == 0
        manifest = DatasetManifest.load(data / "manifest.json")
        model = Model(ModelConfig(n_classes=4, subset_shapes=manifest.subset_shapes), seed=5)
        ckpt = tmp_path / "big.mac"
        write_checkpoint(ckpt, model.parameters, {}, 0, {"model": model.config.to_dict()})
        capsys.readouterr()
        shards, printed = [], []
        run_shards = T.run_shards
        monkeypatch.setattr(T, "run_shards", lambda *a: shards.append(run_shards(*a)) or shards[-1])
        for cpus in (2, 1):
            monkeypatch.setattr(T, "_usable_cpus", lambda: cpus)
            assert main(["attn-dump", "--data", str(data), "--checkpoint", str(ckpt), "--batch-size", "4"]) == 0
            printed.append(capsys.readouterr().out)
        assert [len(s) for s in shards] == [2] * 4
        assert printed[1] == printed[0]
        out = printed[0].splitlines()[1:]
        samples = load_split(manifest, "test", data)
        for start in (0, 4):
            with T.no_grad():
                attn = model.forward_samples(samples[start : start + 4]).attention.data
            for sample, table in zip(samples[start : start + 4], attn):
                assert out.pop(0) == f"sample {sample.id} attention (4 scores x 16 patches):"
                printed = [[float(v) for v in out.pop(0).split()] for _ in table]
                np.testing.assert_allclose(printed, table, rtol=0, atol=1e-6)
        assert out == []

    @pytest.mark.parametrize("command", ["evaluate", "predict", "attn-dump"])
    def test_zero_batch_size_exits_2(self, workspace, capsys, command):
        assert main([command, "--data", str(workspace["data"]),
                     "--checkpoint", str(workspace["checkpoint"]), "--batch-size", "0"]) == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "predict", "attn-dump"])
    def test_empty_split_exits_2(self, workspace, tmp_path, capsys, command):
        only_train = tmp_path / "only_train"
        assert main(["generate-data", "--out", str(only_train), "--seed", "3", "--n", "4",
                     "--profile", "tiny", "--classes", "4", "--split", "1,0,0"]) == 0
        assert main([command, "--data", str(only_train), "--checkpoint", str(workspace["checkpoint"]),
                     "--split", "test"]) == 2
        assert "'test'" in capsys.readouterr().err

    def test_checkpoint_dataset_mismatch_exits_2(self, workspace, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["generate-data", "--out", str(other), "--seed", "3", "--n", "8",
                     "--profile", "tiny", "--classes", "6"]) == 0
        assert main(["evaluate", "--data", str(other),
                     "--checkpoint", str(workspace["checkpoint"])]) == 2
        assert "n_classes" in capsys.readouterr().err

    def test_checkpoint_with_non_finite_value_exits_2(self, workspace, tmp_path, capsys):
        from mrscene.checkpoint import read_checkpoint, write_checkpoint
        from mrscene.tensor import Tensor

        stored = read_checkpoint(workspace["checkpoint"])
        stored.params["classifier.bias"][1] = np.nan
        bad = tmp_path / "nan.mac"
        write_checkpoint(bad, {name: Tensor(v) for name, v in stored.params.items()},
                         stored.optimizer_state, stored.epoch, stored.config)
        assert main(["evaluate", "--data", str(workspace["data"]), "--checkpoint", str(bad)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, "'classifier.bias'")
        assert captured.out == ""

    def test_checkpoint_with_repeated_entry_exits_2(self, workspace, tmp_path, capsys):
        """A second 'classifier.bias' entry, made by renaming an extra
        entry of the same name length in the written bytes."""
        from mrscene.checkpoint import read_checkpoint, write_checkpoint
        from mrscene.tensor import Tensor

        stored = read_checkpoint(workspace["checkpoint"])
        params = {name: Tensor(v) for name, v in stored.params.items()}
        params["classifier.bia$"] = Tensor(np.zeros_like(stored.params["classifier.bias"]))
        bad = tmp_path / "twice.mac"
        write_checkpoint(bad, params, stored.optimizer_state, stored.epoch, stored.config)
        blob = bad.read_bytes()
        assert blob.count(b"classifier.bia$") == 1
        bad.write_bytes(blob.replace(b"classifier.bia$", b"classifier.bias"))
        assert main(["evaluate", "--data", str(workspace["data"]), "--checkpoint", str(bad)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, "'classifier.bias'")
        assert captured.out == ""

    def test_corrupt_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.mac"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["evaluate", "--data", str(workspace["data"]), "--checkpoint", str(bad)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("echo", [b"\xff", b"{", b"[]", b'{"model": {"branches": 5}}'])
    def test_checkpoint_with_bad_config_echo_exits_2(self, workspace, tmp_path, capsys, echo):
        from mrscene.checkpoint import read_checkpoint

        stored = read_checkpoint(workspace["checkpoint"]).config
        tail = 4 + len(json.dumps(stored, sort_keys=True, separators=(",", ":")).encode())
        bad = tmp_path / "bad.mac"
        bad.write_bytes(workspace["checkpoint"].read_bytes()[:-tail] + struct.pack("<I", len(echo)) + echo)
        assert main(["evaluate", "--data", str(workspace["data"]), "--checkpoint", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def with_model_echo(workspace, path, **fields) -> Path:
        """The shared checkpoint, written to ``path`` with ``fields`` set
        in its model config echo."""
        from mrscene.checkpoint import read_checkpoint

        stored = read_checkpoint(workspace["checkpoint"]).config
        old_echo = json.dumps(stored, sort_keys=True, separators=(",", ":")).encode()
        echo = json.dumps({**stored, "model": {**stored["model"], **fields}}).encode()
        path.write_bytes(workspace["checkpoint"].read_bytes()[: -4 - len(old_echo)]
                         + struct.pack("<I", len(echo)) + echo)
        return path

    @pytest.mark.parametrize("per_position,code", [(False, 0), (True, 2), (0, 2)])
    def test_checkpoint_echo_of_per_position_lstm(self, workspace, tmp_path, capsys, per_position, code):
        """Older checkpoints echo the former field "per_position_lstm":
        false and still load; true, or 0 in place of false, is refused."""
        from mrscene.checkpoint import read_checkpoint

        assert "per_position_lstm" not in read_checkpoint(workspace["checkpoint"]).config["model"]
        ckpt = self.with_model_echo(workspace, tmp_path / "echo.mac", per_position_lstm=per_position)
        assert main(["evaluate", "--data", str(workspace["data"]), "--checkpoint", str(ckpt)]) == code
        assert ("per_position_lstm" in capsys.readouterr().err) == bool(code)

    @pytest.mark.parametrize("field,value,code", [
        ("band_indices", ["B02", "B03", "B04", "B08"], 0), ("band_indices", ["B02"], 2),
        ("band_indices", "B0B1B2B3", 2), ("fc_out", 0, 2),
    ])
    def test_checkpoint_echo_of_the_first_branch(self, workspace, tmp_path, capsys, field, value, code):
        """Older echoes name each branch's bands: one name per band of the
        subset evaluates as without them; another value, or fc_out 0, is
        refused."""
        from mrscene.checkpoint import read_checkpoint

        args = ["evaluate", "--data", str(workspace["data"]), "--checkpoint"]
        assert main(args + [str(workspace["checkpoint"])]) == 0
        report = capsys.readouterr().out.split("\n", 1)[1]  # after the config echo line
        branches = read_checkpoint(workspace["checkpoint"]).config["model"]["branches"]
        ckpt = self.with_model_echo(workspace, tmp_path / "echo.mac",
                                    branches=[{**branches[0], field: value}] + branches[1:])
        assert main(args + [str(ckpt)]) == code
        captured = capsys.readouterr()
        if code:
            assert_one_error_line(captured.err, field)
        else:
            assert captured.out.split("\n", 1)[1] == report

    @pytest.mark.parametrize("command", ["evaluate", "predict", "attn-dump"])
    @pytest.mark.parametrize("width", [10**12, 10**19])
    def test_checkpoint_echo_of_a_model_too_large_to_allocate_exits_2(self, workspace, tmp_path, capsys,
                                                                       command, width):
        ckpt = self.with_model_echo(workspace, tmp_path / "huge.mac", hidden_width=width)
        assert main([command, "--data", str(workspace["data"]), "--checkpoint", str(ckpt)]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, f"of shape ({width}, 128) cannot be allocated")
        assert captured.out == ""

    @pytest.mark.parametrize("command,field,value", [
        ("evaluate", "splits", 5), ("evaluate", "splits", {"test": 5}), ("evaluate", "class_names", "abc"),
        ("predict", "class_names", []),
    ])
    def test_manifest_field_of_wrong_type_exits_2(self, workspace, tmp_path, capsys, command, field, value):
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps({**manifest, field: value}))
        assert main([command, "--data", str(data), "--checkpoint", str(workspace["checkpoint"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_attn_dump_negative_limit_exits_2(self, workspace, capsys):
        assert main(["attn-dump", "--data", str(workspace["data"]),
                     "--checkpoint", str(workspace["checkpoint"]), "--limit", "-1"]) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, "limit")
        assert captured.out == ""

    @pytest.mark.parametrize("n_subsets,code", [(3, 0), (7, 2), (3.0, 2), (True, 2)])
    def test_manifest_with_legacy_n_subsets(self, workspace, tmp_path, capsys, n_subsets, code):
        """Older manifests carry n_subsets: the integer count of subset_shapes
        loads; another count, or a non-integer, is refused."""
        data = tmp_path / "data"
        shutil.copytree(workspace["data"], data)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps({**manifest, "n_subsets": n_subsets}))
        assert main(["evaluate", "--data", str(data), "--checkpoint", str(workspace["checkpoint"])]) == code
        err = capsys.readouterr().err
        if code:
            assert_one_error_line(err, "n_subsets")

    def test_attn_dump_has_no_threshold_flag(self, workspace, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["attn-dump", "--data", str(workspace["data"]),
                  "--checkpoint", str(workspace["checkpoint"]), "--threshold", "0.5"])
        assert exit_info.value.code == 2
        capsys.readouterr()


class TestGradcheckCommand:
    def test_exit_zero_and_per_module_lines(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        for label in ("conv2d", "maxpool2", "fc", "lstm_cell", "attention", "loss", "end-to-end"):
            assert f"gradcheck [{label}]: PASS" in out
        assert "overall: PASS" in out

    def test_a_kink_at_the_first_nudge_is_redrawn(self, capsys):
        """At seed 2 two kernel elements of the first nudge lie within one
        step of a kink and read 1.3e-4 against the 1e-4 tolerance; the
        second nudge passes."""
        assert main(["gradcheck", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck [end-to-end]: PASS" in out and "redraws 1," in out
        assert "overall: PASS" in out

    @pytest.mark.parametrize("flags,field", [(["--seed", "-1"], "seed")])
    def test_invalid_flag_exits_2(self, capsys, flags, field):
        assert main(["gradcheck"] + flags) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, field)
        assert captured.out == ""

    def test_package_runs_as_a_module(self):
        """``python -m mrscene`` is the CLI, without an installed script."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "mrscene", "gradcheck", "--seed", "-1"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert_one_error_line(proc.stderr, "seed")

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        import mrscene.gradcheck as gc
        from mrscene.gradcheck import GradcheckEntry, GradcheckReport

        def fake_run_all(seed=0):
            report = GradcheckReport(label="end-to-end")
            report.entries.append(GradcheckEntry("classifier.weight", 0.5, 10))
            return [report]

        monkeypatch.setattr(gc, "run_all", fake_run_all)
        assert main(["gradcheck"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out


class TestFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["train", "--data", "d", "--out", "o", "--optimizer", "adam"], "--optimizer"),
        (["gradcheck", "--step", "1e-5"], "--step"),
    ])
    def test_removed_flag_is_a_usage_error(self, capsys, argv, flag):
        """Adam is the only optimizer and the gradient check's step is fixed."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and flag in err and "Traceback" not in err

    def test_train_flags_are_the_train_config_fields(self):
        """``_resolve_configs`` copies each train flag into the TrainConfig
        field of its destination's name."""
        from dataclasses import fields

        from mrscene.cli import build_parser
        from mrscene.trainer import TrainConfig

        (subcommands,) = [a for a in build_parser()._actions if a.choices and "train" in a.choices]
        dests = {a.dest for a in subcommands.choices["train"]._actions} - {"help"}
        assert dests - {"data", "out", "config", "threshold"} == {f.name for f in fields(TrainConfig)} - {"shuffle"}
