"""The CLI's exit-code contract over every flag: whatever value a flag
takes, a command exits 0, 1, 2 or 3, prints no traceback, leaves no
temporary file behind and writes only artifacts that load again.

The flags come from ``cli.build_parser()``, so a new flag is fuzzed without
being listed here. Each case changes one flag, or a seeded draw of two, of a
valid, cheap command line and runs ``cli.main`` in-process, in a directory
of its own. An empty path flag is a usage error: exit 2, nothing written.
"""

import contextlib
import io
import random
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
# drawn as well for a flag of a pair, by its type, so that more pairs pass
# the checks of both values and run
PAIR_VALUES = {int: ["1", "3"], float: ["0.5"]}
PAIRS_PER_COMMAND = 100


def subcommand_flags(command) -> list:
    """The argparse actions of every flag the parser declares for ``command``."""
    (subcommands,) = [a for a in build_parser()._actions if a.choices and "train" in a.choices]
    return [action for action in subcommands.choices[command]._actions
            if action.option_strings and action.dest != "help"]


def drawn_values(command, dest):
    values = VALUES + (PATH_KINDS if dest in PATH_DESTS else [])
    if (command, dest) in WORK_SCALING:
        least, small = WORK_SCALING[command, dest]
        values = [v for v in values if not (v.lstrip("-").isdigit() and int(v) >= least)] + small
    return values


def pair_values(command, action) -> list:
    """The values a flag of a pair draws: its one-flag draws and, unless it
    scales the run's work, small values of its type and its default."""
    values = drawn_values(command, action.dest)
    if (command, action.dest) not in WORK_SCALING:
        values += PAIR_VALUES.get(action.type, []) + ([] if action.default is None else [str(action.default)])
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
    path = case / f"input-{dest}"
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


def case_failures(command, overrides: dict, prepared, case: Path) -> list:
    """Run ``command``'s base command line with ``overrides`` (option ->
    (dest, drawn value)) in ``case``; the breaches of the contract, as one
    line, or none: an exit code outside 0-3, a traceback, a leftover
    temporary file or an artifact that does not load, and after an empty
    path flag any exit but 2, a stderr without exactly one error line, or
    any file written."""
    options = {option: path_value(value, dest, prepared, case) if value in PATH_KINDS else value
               for option, (dest, value) in overrides.items()}
    argv = [command] + [f"{o}={v}" for o, v in {**base_argv(command, prepared), **options}.items()]
    before = snapshot(case)
    code, err = run(argv)
    after = snapshot(case)
    problems = ([f"exit {code}"] if code not in (0, 1, 2, 3) else []) \
        + (["traceback on stderr"] if "Traceback" in err else []) \
        + [f"left {p.name}" for p in after if p.suffix == ".tmp"] \
        + unloadable_artifacts(before, after)
    if any(value == "" and dest in PATH_DESTS for dest, value in overrides.values()):
        problems += ([f"exit {code} for an empty path"] if code != 2 else []) \
            + ([] if sum("error:" in line for line in err.splitlines()) == 1 else [f"stderr {err!r}"]) \
            + (["wrote files for an empty path"] if after != before else [])
    return [f"{argv}: {problems}"] if problems else []


COMMANDS = ["generate-data", "train", "evaluate", "predict", "attn-dump", "gradcheck"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_flag_value_keeps_the_exit_code_contract(prepared, tmp_path, monkeypatch, command):
    flags = subcommand_flags(command)
    assert flags
    failures = []
    for i, action in enumerate(flags):
        for j, value in enumerate(drawn_values(command, action.dest)):
            case = tmp_path / f"{i}-{j}"
            case.mkdir()
            monkeypatch.chdir(case)
            failures += case_failures(command, {action.option_strings[0]: (action.dest, value)}, prepared, case)
    assert not failures, "\n".join(failures)
    assert not list(prepared["root"].rglob("*.tmp"))


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "gradcheck"])  # gradcheck has one flag
def test_flag_pairs_keep_the_exit_code_contract(prepared, tmp_path, monkeypatch, command):
    """A seeded draw of two flags at once, each with a value from
    ``pair_values``: together they are held to the one-flag cases' checks."""
    flags = subcommand_flags(command)
    rng = random.Random(f"flag-pairs {command}")
    failures = []
    for i in range(PAIRS_PER_COMMAND):
        case = tmp_path / str(i)
        case.mkdir()
        monkeypatch.chdir(case)
        pair = {a.option_strings[0]: (a.dest, rng.choice(pair_values(command, a))) for a in rng.sample(flags, 2)}
        failures += case_failures(command, pair, prepared, case)
    assert not failures, "\n".join(failures)
    assert not list(prepared["root"].rglob("*.tmp"))
