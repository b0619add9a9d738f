"""Command-line entry point.

Subcommands: generate-data, train, evaluate, predict, attn-dump, gradcheck.
Exit codes: 0 success, 1 gradient-check failure, 2 usage, config or format
error, 3 diverged training (the loss log of the completed epochs is kept).
Every report embeds the resolved run configuration for reproducibility.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import gradcheck as gradcheck_mod
from .checkpoint import load_parameters, read_checkpoint
from .dataset import DatasetManifest, generate_synthetic, load_split
from .errors import ConfigError, MrsceneError, TrainingDivergedError, UsageError, json_object
from .head import check_threshold, predict
from .kbranch import check_paper_architecture
from .model import Model, ModelConfig
from .trainer import TrainConfig, evaluate_model, train


def _parse_fractions(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--split must be comma-separated numbers, got {text!r}") from exc


def _load_file_config(path) -> dict:
    if path is None:
        return {}
    try:
        payload = json_object(Path(path).read_bytes(), f"config file {path}", ConfigError)
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    for section, value in payload.items():
        if section not in ("model", "train") or not isinstance(value, dict):
            raise ConfigError(f"config file {path}: {section!r} is not a 'model' or 'train' object")
    return payload


def _load_manifest(data_dir) -> DatasetManifest:
    path = Path(data_dir) / "manifest.json"
    if not path.exists():
        raise UsageError(f"no manifest.json under {data_dir}")
    return DatasetManifest.load(path)


def _model_config(payload, manifest: DatasetManifest, source: str) -> ModelConfig:
    """The validated model config of ``payload``; ConfigError unless its
    input geometry and class count are the dataset's."""
    model_cfg = ModelConfig.from_dict(payload)
    for field in ("subset_shapes", "n_classes"):
        ours, theirs = getattr(model_cfg, field), getattr(manifest, field)
        if ours != theirs:
            raise ConfigError(f"{source} model.{field} = {ours} does not match dataset manifest value {theirs}")
    model_cfg.validate()
    return model_cfg


def _resolve_configs(args, manifest: DatasetManifest):
    """Merge defaults, config file, and flags (flags win)."""
    file_cfg = _load_file_config(args.config)
    model_payload = {"subset_shapes": manifest.subset_shapes, "n_classes": manifest.n_classes,
                     **file_cfg.get("model", {})}
    train_payload = file_cfg.get("train", {})

    flags = {f.name: getattr(args, f.name, None) for f in fields(TrainConfig)}  # flag dests are field names
    train_payload.update({name: value for name, value in flags.items() if value is not None})
    if args.threshold is not None:
        model_payload["threshold"] = args.threshold

    model_cfg = _model_config(model_payload, manifest, "config")
    check_paper_architecture(model_cfg.branches)  # binds a model to train, not a checkpoint's
    train_cfg = TrainConfig.from_dict(train_payload)
    train_cfg.validate()
    echo = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict(), "data": str(args.data)}
    return model_cfg, train_cfg, echo


def _load_samples(manifest: DatasetManifest, split: str, data_dir) -> list:
    samples = load_split(manifest, split, data_dir)
    if not samples:
        raise UsageError(f"split {split!r} of {data_dir} holds no samples")
    return samples


def _format_echo(echo: dict) -> str:
    return "config: " + json.dumps(echo, sort_keys=True)


def cmd_generate_data(args) -> int:
    manifest = generate_synthetic(
        args.out, seed=args.seed, n_samples=args.n, profile=args.profile,
        noise=args.noise, n_classes=args.classes, split_fractions=_parse_fractions(args.split),
    )
    counts = {name: len(ids) for name, ids in manifest.splits.items()}
    print(f"wrote {args.n} samples ({args.profile}, seed {args.seed}) to {args.out}")
    print(f"splits: {counts}")
    return 0


def cmd_train(args) -> int:
    manifest = _load_manifest(args.data)
    model_cfg, train_cfg, echo = _resolve_configs(args, manifest)
    print(_format_echo(echo))
    train_samples = _load_samples(manifest, "train", args.data)
    model = Model(model_cfg, seed=train_cfg.seed)
    result = train(model, train_samples, train_cfg, out_dir=args.out, run_config=echo)
    print(f"trained {train_cfg.epochs} epochs; final loss {result.loss_trajectory[-1]:.6f}")
    print(f"checkpoint: {result.final_checkpoint}")
    if manifest.splits.get("val"):
        val_samples = load_split(manifest, "val", args.data)
        report = evaluate_model(model, val_samples, threshold=model_cfg.threshold,
                                batch_size=train_cfg.batch_size)
        print("validation metrics:")
        print(report.format())
        print(report.key_value_block())
    return 0


def _load_checkpoint_run(args):
    """What evaluate, predict and attn-dump read: the dataset manifest, the
    checkpoint's model and config echo, the samples of ``--split`` and the
    decision threshold, ``--threshold`` or else the one the model stores."""
    manifest = _load_manifest(args.data)
    data = read_checkpoint(args.checkpoint)
    if "model" not in data.config:
        raise ConfigError(f"{args.checkpoint}: checkpoint carries no model config echo")
    model = Model(_model_config(data.config["model"], manifest, f"checkpoint {args.checkpoint}"), seed=0)
    load_parameters(model, data.params)
    threshold = getattr(args, "threshold", None)  # attn-dump has no --threshold
    threshold = model.config.threshold if threshold is None else check_threshold(threshold)
    return manifest, model, data.config, _load_samples(manifest, args.split, args.data), threshold


def cmd_evaluate(args) -> int:
    _, model, echo, samples, threshold = _load_checkpoint_run(args)
    report = evaluate_model(model, samples, threshold=threshold, batch_size=args.batch_size)
    print(_format_echo(echo))
    print(f"split: {args.split}  threshold: {threshold}")
    print(report.format())
    print(report.key_value_block())
    return 0


def cmd_predict(args) -> int:
    manifest, model, echo, samples, threshold = _load_checkpoint_run(args)
    chosen = predict(model.predict_probabilities(samples, args.batch_size), threshold)
    print(_format_echo(echo))
    for sample, row in zip(samples, chosen):
        names = [manifest.class_names[j] for j in np.flatnonzero(row)]
        print(f"{sample.id}\t{', '.join(names) if names else '<none>'}")
    return 0


def cmd_attn_dump(args) -> int:
    if args.limit < 0:
        raise UsageError(f"limit must be >= 0, got {args.limit}")
    _, model, echo, samples, _ = _load_checkpoint_run(args)
    samples = samples[: args.limit or None]
    attn = model.infer(samples, args.batch_size).attention.data
    print(_format_echo(echo))
    for sample, table in zip(samples, attn):
        print(f"sample {sample.id} attention ({attn.shape[1]} scores x {attn.shape[2]} patches):")
        for row in table:
            print("  " + " ".join(f"{v:.6f}" for v in row))
    return 0


def cmd_gradcheck(args) -> int:
    reports = gradcheck_mod.run_all(seed=args.seed)
    for report in reports:
        print(report.format())
    ok = all(r.passed for r in reports)
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrscene",
        description="Multi-attention CNN+BiLSTM multi-label scene classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--profile", default="tiny", help="tiny or bigearthnet-shaped")
    p.add_argument("--noise", type=float, default=0.1, help="pixel noise sigma")
    p.add_argument("--classes", type=int, default=None, help="override class count")
    p.add_argument("--split", default="0.6,0.2,0.2", help="train,val,test fractions")
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory for checkpoints and logs")
    p.add_argument("--config", default=None, help="JSON run configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None, help="decision threshold, stored in the model")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None)
    p.set_defaults(func=cmd_train)

    for name, func, help_text in (
        ("evaluate", cmd_evaluate, "metrics of a checkpoint on a split"),
        ("predict", cmd_predict, "per-sample label predictions"),
        ("attn-dump", cmd_attn_dump, "per-sample attention score tables"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--split", default="test")
        p.add_argument("--batch-size", dest="batch_size", type=int, default=32)
        if name == "attn-dump":
            p.add_argument("--limit", type=int, default=0, help="dump at most this many samples")
        else:
            p.add_argument("--threshold", type=float, default=None,
                           help="decision threshold (default: the checkpoint's)")
        p.set_defaults(func=func)

    p = sub.add_parser("gradcheck", help="finite-difference verification of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest in ("data", "out", "checkpoint", "config"):  # "" would be the working directory
            if getattr(args, dest, None) == "":
                raise UsageError(f"--{dest} must name a path, got an empty string")
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MrsceneError, OSError) as exc:  # usage, config, format and shape errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
