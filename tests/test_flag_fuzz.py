"""The CLI's exit-code contract over every flag: whatever value a flag
takes, a command exits 0, 1, 2 or 3, prints no traceback, leaves no
temporary file behind and writes only artifacts that load again.

The flags come from ``cli.build_parser()``, so a new flag is fuzzed without
being listed here. Each case changes one flag of a valid, cheap command
line and runs ``cli.main`` in-process, in a directory of its own.
"""

import contextlib
import io
import shutil
from pathlib import Path

import pytest

from mrscene.checkpoint import read_checkpoint
from mrscene.cli import build_parser, main
from mrscene.dataset import DatasetManifest, load_split, read_sample

# drawn for every flag
VALUES = ["0", "-1", str(2**70), "nan", "inf", "-inf", "-0.0", "", "abc", "ñé∞"]
# drawn for path flags as well, each made afresh in the case's directory
PATH_KINDS = ["<missing>", "<directory>", "<truncated>", "<other-format>"]
PATH_DESTS = {"data", "out", "checkpoint", "config"}
# flags whose valid values scale a run's work: (subcommand, dest) -> (least
# valid value, the small valid values drawn); their other draws are invalid
WORK_SCALING = {("generate-data", "n"): (1, ["1", "5"]), ("train", "epochs"): (1, ["1", "2"]),
                ("gradcheck", "seed"): (0, [])}


def subcommand_flags():
    """(subcommand, option string, dest) of every flag the parser declares."""
    (subcommands,) = [a for a in build_parser()._actions if a.choices and "train" in a.choices]
    return [(name, action.option_strings[0], action.dest)
            for name, parser in subcommands.choices.items()
            for action in parser._actions if action.option_strings and action.dest != "help"]


def drawn_values(command, dest):
    values = VALUES + (PATH_KINDS if dest in PATH_DESTS else [])
    if (command, dest) in WORK_SCALING:
        least, small = WORK_SCALING[command, dest]
        values = [v for v in values if not (v.lstrip("-").isdigit() and int(v) >= least)] + small
    return values


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """A 20-sample tiny set and a checkpoint trained on it for one epoch."""
    root = tmp_path_factory.mktemp("fuzz")
    data, run = root / "data", root / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate-data", "--out", str(data), "--seed", "5", "--n", "20",
                     "--profile", "tiny", "--classes", "4"]) == 0
        assert main(["train", "--data", str(data), "--out", str(run), "--epochs", "1",
                     "--seed", "1", "--batch-size", "8"]) == 0
    return {"data": data, "checkpoint": run / "checkpoint-final.mac", "root": root}


def base_argv(command, prepared) -> dict:
    """A valid command line, as option -> value, that runs in well under a second."""
    checkpoint_run = {"--data": str(prepared["data"]), "--checkpoint": str(prepared["checkpoint"])}
    return {
        "generate-data": {"--out": "out", "--n": "5", "--classes": "4"},
        "train": {"--data": str(prepared["data"]), "--out": "out", "--epochs": "1", "--batch-size": "8"},
        "evaluate": checkpoint_run, "predict": checkpoint_run, "attn-dump": checkpoint_run,
        "gradcheck": {},
    }[command]


def path_value(kind, dest, prepared, case: Path) -> str:
    """A path of ``kind`` for the flag ``dest``, made under ``case``: a
    truncated copy of the file (or dataset) the flag reads, or a file of
    another of the program's formats."""
    path = case / "input"
    if kind == "<directory>":
        path.mkdir()
    elif kind in ("<truncated>", "<other-format>"):
        manifest = prepared["data"] / "manifest.json"
        checkpoint = prepared["checkpoint"].read_bytes()
        if dest == "data":
            shutil.copytree(prepared["data"], path)
            if kind == "<truncated>":
                for sample in path.glob("*.mrs"):
                    sample.write_bytes(sample.read_bytes()[: sample.stat().st_size // 2])
            else:
                (path / "manifest.json").write_bytes(checkpoint[:4096])
        else:
            own = {"checkpoint": checkpoint, "config": b'{"train": {"epochs": 1}}'}.get(dest, checkpoint)
            other = manifest.read_bytes() if dest == "checkpoint" else checkpoint
            path.write_bytes(own[: len(own) // 2] if kind == "<truncated>" else other)
    return str(path)


def snapshot(root: Path) -> dict:
    return {p: (p.stat().st_mtime_ns, p.stat().st_size) for p in root.rglob("*") if p.is_file()}


def unloadable_artifacts(before: dict, after: dict) -> list:
    """The files a run wrote that do not load again, with their errors."""
    failures = []
    for path in sorted(p for p in after if before.get(p) != after[p]):
        try:
            if path.suffix == ".mac":
                read_checkpoint(path)
            elif path.suffix == ".mrs":
                read_sample(path)
            elif path.name == "manifest.json":
                manifest = DatasetManifest.load(path)
                for split in manifest.splits:
                    load_split(manifest, split, path.parent)
            else:
                path.read_text(encoding="utf-8")
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            failures.append(f"{path.name}: {exc!r}")
    return failures


def run(argv) -> tuple:
    """(exit code, stderr) of ``main(argv)``; an escaping exception is
    reported as its type and message in place of an exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - the contract admits none
            code = f"escaped {exc!r}"
    return code, err.getvalue()


@pytest.mark.parametrize("command", ["generate-data", "train", "evaluate", "predict", "attn-dump", "gradcheck"])
def test_every_flag_value_keeps_the_exit_code_contract(prepared, tmp_path, monkeypatch, command):
    flags = [(option, dest) for name, option, dest in subcommand_flags() if name == command]
    assert flags
    failures = []
    for i, (option, dest) in enumerate(flags):
        for j, value in enumerate(drawn_values(command, dest)):
            case = tmp_path / f"{i}-{j}"
            case.mkdir()
            monkeypatch.chdir(case)
            if value in PATH_KINDS:
                value = path_value(value, dest, prepared, case)
            argv = [command] + [f"{o}={v}" for o, v in {**base_argv(command, prepared), option: value}.items()]
            before = snapshot(case)
            code, err = run(argv)
            after = snapshot(case)
            problems = ([f"exit {code}"] if code not in (0, 1, 2, 3) else []) \
                + (["traceback on stderr"] if "Traceback" in err else []) \
                + [f"left {p.name}" for p in after if p.suffix == ".tmp"] \
                + unloadable_artifacts(before, after)
            if problems:
                failures.append(f"{argv}: {problems}")
    assert not failures, "\n".join(failures)
    assert not list(prepared["root"].rglob("*.tmp"))
