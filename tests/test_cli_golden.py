"""Golden CLI output: the complete stdout and exit code of fixed
invocations, pinned byte for byte.

The expected stdout of case ``name`` is ``tests/data/cli_golden/<name>.txt``.
After an intended output change, rewrite those files with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from triortho.cli import main

DATA_DIR = pathlib.Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "cli_golden"

SIMULATE = ["simulate-hadamard", "--builtin", "15-1-3", "--seeds", "3"]
INJECT = ["inject-faults", "--builtin", "15-1-3"]
TOLERATED = ["--fault", "cnot_data:X:7", "--fault", "measurement:FLIP:4"]
# Two aliased data errors decode into a logical X on the |+> input.
UNTOLERATED = ["--input", "+", "--fault", "data_post_h:X:0", "--fault", "data_post_h:X:1"]
COST = ["cost-curve", "--targets", "1e-10,1e-13"]
# No --targets: the 15-target default grid, 1e-6 down to 1e-20.
COST_DEFAULT = ["cost-curve"]
# d2_matrix.txt holds conftest's D2_ROWS; the model has non-uniform class weights.
DISTILL = [
    "distill", "--file", str(DATA_DIR / "d2_matrix.txt"),
    "--model", str(DATA_DIR / "distill_model.json"), "--seed", "7", "--trials", "20000",
]

BUILD_CODE = ["build-code", "--builtin", "15-1-3", "--distances"]
VERIFY_CCZ = ["verify-ccz", "--builtin", "15-1-3"]
SEARCH = ["search", "--n", "8", "--k", "1", "--m-even", "3", "--budget", "50000", "--seed", "0"]

# name -> (argv without --format, exit code)
CASES = {
    "simulate_plus": (SIMULATE + ["--input", "+"], 0),
    "simulate_bits": (SIMULATE + ["--input", "1"], 0),
    "inject_tolerated": (INJECT + TOLERATED, 0),
    "inject_untolerated": (INJECT + UNTOLERATED, 1),
    "cost_curve": (COST, 0),
    "cost_curve_default": (COST_DEFAULT, 0),
    "distill": (DISTILL, 0),
    "build_code": (BUILD_CODE, 0),
    "verify_ccz": (VERIFY_CCZ, 0),
    # An explicit level below 3 is verified again at 3: the same output.
    "verify_ccz_level2": (VERIFY_CCZ + ["--level", "2"], 0),
    "search": (SEARCH, 0),
}

FORMATS = ("text", "json")

SUBCOMMANDS = (
    "check-matrix", "build-code", "search", "verify-ccz",
    "simulate-hadamard", "inject-faults", "distill", "cost-curve",
)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


def _golden_path(name, fmt):
    return GOLDEN_DIR / f"{name}.{fmt}.txt"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, fmt):
    argv, expected_status = CASES[name]
    status, out = _run(argv + ["--format", fmt])
    assert status == expected_status
    assert out == _golden_path(name, fmt).read_text(encoding="ascii")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_lists_format(command):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert f"usage: triortho {command}" in buf.getvalue()
    assert "--format {text,json}" in buf.getvalue()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case, (args, _status) in sorted(CASES.items()):
        for form in FORMATS:
            _golden_path(case, form).write_text(_run(args + ["--format", form])[1], encoding="ascii")
            sys.stderr.write(f"wrote {_golden_path(case, form)}\n")
