"""Command-line interface: exit codes, text output, JSON schemas, files."""

import json
import os
import stat
import time

import pytest

from triortho.cli import main
from triortho.codes import TriorthogonalMatrix, builtin_15_1_3
from triortho.distill import MC_CHUNK, ErrorModel, monte_carlo
from triortho.gf2 import BitMatrix, format_matrix, parse_matrix, read_matrix

from conftest import D2_ROWS, SMALL8_ROWS, SMALL8_SEARCH


@pytest.fixture
def builtin_file(tmp_path):
    path = tmp_path / "g15.txt"
    path.write_text(format_matrix(builtin_15_1_3().matrix))
    return str(path)


@pytest.fixture
def d2_file(tmp_path):
    path = tmp_path / "d2.txt"
    path.write_text("\n".join(D2_ROWS) + "\n")
    return str(path)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"p": 1e-2, "class_weights": [1 / 7] * 7}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckMatrix:
    def test_pass_text(self, capsys, builtin_file):
        code, out, _ = run(capsys, ["check-matrix", "--file", builtin_file, "--level", "3"])
        assert code == 0
        assert out.splitlines() == ["PASS level=3 rows=5 cols=15"]

    def test_fail_text_prints_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("110\n011\n")
        code, out, _ = run(capsys, ["check-matrix", "--file", str(bad), "--level", "2"])
        assert code == 1
        assert out.splitlines() == ["FAIL level=2 rows=(0, 1)"]

    def test_json_schema(self, capsys, builtin_file):
        code, out, _ = run(
            capsys, ["check-matrix", "--file", builtin_file, "--level", "3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "command": "check-matrix",
            "file": builtin_file,
            "level": 3,
            "rows": 5,
            "cols": 15,
            "pass": True,
            "violation": None,
        }

    def test_json_violation(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("110\n011\n")
        code, out, _ = run(
            capsys, ["check-matrix", "--file", str(bad), "--level", "2", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["violation"] == [0, 1]

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, ["check-matrix", "--file", str(tmp_path / "nope.txt")])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_explicit_level_past_guard_is_refused(self, capsys, tmp_path):
        # 13 block-diagonal copies of 111/110: 26 rows, whose levels 2..13
        # hold more than 2**25 tuples.  The refusal comes before any of them.
        blocks = tmp_path / "blocks.txt"
        rows = [
            "000" * b + row + "000" * (12 - b) for b in range(13) for row in ("111", "110")
        ]
        blocks.write_text("\n".join(rows) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["check-matrix", "--file", str(blocks), "--level", "26"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == (
            "error: orthogonality check needs more than 2**25 row tuples "
            "(enumeration guard) by level 13; give a --level below 13\n"
        )
        code, out, _ = run(capsys, ["check-matrix", "--file", str(blocks), "--level", "12"])
        assert code == 0
        assert out == "PASS level=12 rows=26 cols=39\n"

    def test_level_past_row_count_is_vacuous(self, capsys, tmp_path):
        # No tuple of more than 2 rows exists, so the check stops at level 2
        # and prints the level it was given.
        two_rows = tmp_path / "two.txt"
        two_rows.write_text("1111\n0011\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, ["check-matrix", "--file", str(two_rows), "--level", "20000"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == "PASS level=20000 rows=2 cols=4\n"


class TestBuildCode:
    def test_text_with_distances(self, capsys):
        code, out, _ = run(capsys, ["build-code", "--builtin", "15-1-3", "--distances"])
        assert code == 0
        assert out.splitlines() == [
            "n=15 k=1 level=3 x_stabilizers=4 z_stabilizers=10 gauge_pairs=6",
            "d_x=7 d_z=3 distance=3",
        ]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, ["build-code", "--builtin", "15-1-3", "--distances", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == {
            "command": "build-code",
            "n": 15,
            "k": 1,
            "level": 3,
            "x_stabilizers": 4,
            "z_stabilizers": 10,
            "gauge_pairs": 6,
            "d_x": 7,
            "d_z": 3,
        }

    def test_builtin_level_is_verified(self, capsys, builtin_file):
        # [[15,1,3]] passes level 3 only, and a built-in source says so as a
        # file holding the same rows does.
        for source in (["--builtin", "15-1-3"], ["--file", builtin_file]):
            code, out, err = run(capsys, ["build-code", *source, "--level", "4"])
            assert code == 1
            assert out == ""
            assert err == "error: rows (0, 1, 2, 3) have odd product weight at level 4\n"
        _, probed, _ = run(capsys, ["build-code", "--builtin", "15-1-3"])
        code, out, _ = run(capsys, ["build-code", "--builtin", "15-1-3", "--level", "3"])
        assert code == 0
        assert out == probed

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_duplicate_even_row_counts_once(self, capsys, tmp_path, fmt):
        # A repeated even row adds no X stabilizer: the counts stay those of
        # the built-in rows, so n = k + x_stabilizers + z_stabilizers.
        rows = builtin_15_1_3().matrix.rows
        path = tmp_path / "dup.txt"
        path.write_text(format_matrix(BitMatrix([*rows, rows[0]])))
        _, builtin, _ = run(capsys, ["build-code", "--builtin", "15-1-3", "--format", fmt])
        code, out, _ = run(capsys, ["build-code", "--file", str(path), "--format", fmt])
        assert code == 0
        assert out == builtin
        if fmt == "json":
            payload = json.loads(out)
            n, k, x, z = (payload[key] for key in ("n", "k", "x_stabilizers", "z_stabilizers"))
            assert (x, n) == (4, k + x + z)

    def test_file_source(self, capsys, d2_file):
        code, out, _ = run(capsys, ["build-code", "--file", d2_file, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["n"], payload["k"]) == (14, 1)
        assert payload["d_x"] is None


class TestSearch:
    def test_found_writes_reproducible_matrix(self, capsys, tmp_path):
        out_path = tmp_path / "found.txt"
        argv = [
            "search",
            "--n", str(SMALL8_SEARCH["n"]),
            "--k", str(SMALL8_SEARCH["k"]),
            "--m-even", str(SMALL8_SEARCH["m_even"]),
            "--budget", str(SMALL8_SEARCH["budget"]),
            "--seed", str(SMALL8_SEARCH["seed"]),
            "--out", str(out_path),
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.splitlines() == ["# seed=0 budget=50000", "found"]
        text = out_path.read_text()
        assert "seed=0 budget=50000 n=8 k=1 m_even=3" in text
        assert tuple(r.to_string() for r in parse_matrix(text).rows) == SMALL8_ROWS

    def test_not_found_exits_one(self, capsys):
        code, out, _ = run(
            capsys, ["search", "--n", "4", "--k", "2", "--m-even", "3", "--budget", "1000"]
        )
        assert code == 1
        assert out.splitlines()[-1] == "not found"

    def test_json_found(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "search", "--n", "8", "--k", "1", "--m-even", "3",
                "--budget", "50000", "--seed", "0", "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert tuple(payload["rows"]) == SMALL8_ROWS
        assert payload["seed"] == 0


class TestVerifyCcz:
    def test_text_phases(self, capsys):
        code, out, _ = run(capsys, ["verify-ccz", "--builtin", "15-1-3"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[0] == "(0,0,0) -> +1"
        assert lines[7] == "(1,1,1) -> -1"
        assert lines[8] == "PASS"
        assert all(line.endswith("+1") for line in lines[1:7])

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["verify-ccz", "--builtin", "15-1-3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"] is True
        assert len(payload["checks"]) == 8
        last = payload["checks"][-1]
        assert last["labels"] == ["1", "1", "1"]
        assert last["phase"] == -1
        assert last["ok"] is True

    @pytest.mark.parametrize("level", [[], ["--level", "2"]], ids=["probed", "level-2"])
    def test_level_two_matrix_is_refused(self, capsys, tmp_path, level):
        path = tmp_path / "l2.txt"
        path.write_text(TestDistillNeedsLevelThree.LEVEL2_ROWS)
        code, out, err = run(capsys, ["verify-ccz", "--file", str(path), *level])
        assert (code, out) == (1, "")
        assert err == "error: rows (0, 1, 2) have odd product weight at level 3\n"


class TestSimulateHadamard:
    def test_text_multi_seed(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "simulate-hadamard", "--builtin", "15-1-3",
                "--input", "+", "--seeds", "2", "--seed", "7",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# seed=7 rounds=2 input=+"
        assert lines[-1] == "PASS"
        assert all("ok=True" in line for line in lines[1:-1])

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate-hadamard", "--builtin", "15-1-3", "--seed", "3", "--format", "json"],
        )
        assert code == 0
        header, round_line = out.splitlines()
        head = json.loads(header)
        assert head == {
            "command": "simulate-hadamard",
            "input": "0",
            "n": 15,
            "k": 1,
            "seed": 3,
            "rounds": 1,
        }
        payload = json.loads(round_line)
        assert payload["matches_ideal"] is True
        assert payload["gauge_restored"] is True
        assert payload["seed"] == 3
        assert payload["decode_success"] is True

    def test_byte_identical_reruns(self, capsys):
        argv = ["simulate-hadamard", "--builtin", "15-1-3", "--input", "-", "--seed", "11"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestInjectFaults:
    def test_single_fault_tolerated(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "inject-faults", "--builtin", "15-1-3",
                "--fault", "data_post_h:X:3", "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(payload_line(out))
        assert payload["faults"] == ["data_post_h:X:3"]
        assert payload["residual_sites"] == 0
        assert payload["tolerated"] is True

    def test_weight_two_logical_flip_not_tolerated(self, capsys):
        # Two aliased data errors decode into a logical X; against the
        # |+> input the residual weight is the full X distance.
        code, out, _ = run(
            capsys,
            [
                "inject-faults", "--builtin", "15-1-3", "--input", "+",
                "--fault", "data_post_h:X:0", "--fault", "data_post_h:X:1",
            ],
        )
        assert code == 1
        assert out.splitlines()[-1] == "residual_sites=7 tolerated=False"

    def test_bad_fault_string(self, capsys):
        code, _, err = run(
            capsys, ["inject-faults", "--builtin", "15-1-3", "--fault", "oops"]
        )
        assert code == 1
        assert err.startswith("error:")


def payload_line(out: str) -> str:
    lines = out.splitlines()
    assert len(lines) == 1
    return lines[0]


class TestDistill:
    def test_json_and_files(self, capsys, tmp_path, d2_file, model_file):
        out_json = tmp_path / "stats.json"
        per_trial = tmp_path / "trials.csv"
        argv = [
            "distill", "--file", d2_file, "--model", model_file,
            "--trials", "5000", "--seed", "11",
            "--out", str(out_json), "--per-trial", str(per_trial),
            "--format", "json",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 5000
        assert payload["seed"] == 11
        assert payload["n"] == 14
        assert payload["order2_pair_events"] == 49
        assert payload["predicted_failure"] == pytest.approx(1e-4, rel=1e-9)
        assert json.loads(out_json.read_text()) == payload

        lines = per_trial.read_text().splitlines()
        assert lines[0] == "trial,accepted,logical_failure"
        assert len(lines) == 5001
        accepted = sum(int(line.split(",")[1]) for line in lines[1:])
        assert accepted == payload["accepted"]

    def test_per_trial_rows_span_chunks(self, capsys, tmp_path, d2_file, model_file):
        # The CSV is written a chunk at a time; its rows run on across the
        # chunk boundary and match the library's flags.
        trials = MC_CHUNK + 3
        per_trial = tmp_path / "trials.csv"
        argv = [
            "distill", "--file", d2_file, "--model", model_file,
            "--trials", str(trials), "--seed", "5", "--per-trial", str(per_trial),
        ]
        assert run(capsys, argv)[0] == 0
        source = TriorthogonalMatrix.from_matrix(read_matrix(d2_file))
        stats = monte_carlo(source, ErrorModel.uniform(1e-2), trials, 5, collect_trials=True)
        rows = (f"{i},{int(a)},{int(f)}\n" for i, (a, f) in enumerate(stats.trial_flags))
        assert per_trial.read_text() == "".join(["trial,accepted,logical_failure\n", *rows])

    def test_text_determinism(self, capsys, d2_file, model_file):
        argv = [
            "distill", "--file", d2_file, "--model", model_file,
            "--trials", "5000", "--seed", "4",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        assert first.splitlines()[0] == "# seed=4 trials=5000 p=0.01"

    def test_missing_model_file(self, capsys, d2_file, tmp_path):
        code, _, err = run(
            capsys,
            ["distill", "--file", d2_file, "--model", str(tmp_path / "nope.json")],
        )
        assert code == 1
        assert err.startswith("error:")

    def test_malformed_model_file(self, capsys, d2_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"class_probs": [0.1, 0.1]}', encoding="ascii")
        code, _, err = run(capsys, ["distill", "--file", d2_file, "--model", str(bad)])
        assert code == 1
        assert err.startswith("error:")


    def test_matrix_without_odd_rows(self, capsys, tmp_path, model_file):
        even_only = tmp_path / "even.txt"
        even_only.write_text("1111\n0011\n")
        code, out, err = run(
            capsys, ["distill", "--file", str(even_only), "--model", model_file]
        )
        assert code == 1
        assert out == ""
        assert err == "error: matrix has no odd rows, so distillation has no outputs\n"


class TestDistillNeedsLevelThree:
    # Orthogonal at level 2, but the three rows together have odd overlap.
    LEVEL2_ROWS = "010011\n101011\n110010\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("level", [[], ["--level", "2"]], ids=["probed", "level-2"])
    def test_level_two_matrix_is_refused(self, capsys, tmp_path, model_file, level, fmt):
        path = tmp_path / "l2.txt"
        path.write_text(self.LEVEL2_ROWS)
        assert main(["check-matrix", "--file", str(path), "--level", "2"]) == 0
        capsys.readouterr()
        argv = ["distill", "--file", str(path), "--model", model_file, "--trials", "1000"]
        code, out, err = run(capsys, argv + level + ["--format", fmt])
        assert code == 1
        assert out == ""
        assert err == "error: rows (0, 1, 2) have odd product weight at level 3\n"


class TestCostCurve:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, ["cost-curve", "--targets", "1e-13"])
        assert code == 0
        assert out == (
            "target_error,jones,triortho_k_opt,k_star\n"
            "1e-13,505.08579328118884,434.9499090845322,100\n"
        )

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, ["cost-curve", "--targets", "1e-13", "--out", str(path)])
        assert code == 0
        assert out == f"wrote {path}\n"
        assert path.read_text().splitlines()[1] == (
            "1e-13,505.08579328118884,434.9499090845322,100"
        )

    def test_default_grid_size(self, capsys):
        code, out, _ = run(capsys, ["cost-curve"])
        assert code == 0
        assert len(out.splitlines()) == 16

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, ["cost-curve", "--targets", "1e-13,1e-9", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["target_error"] for row in payload["rows"]] == [1e-13, 1e-9]
        assert payload["rows"][0]["k_star"] == 100

    def test_depth_one_blank_row(self, capsys):
        code, out, _ = run(
            capsys, ["cost-curve", "--targets", "1e-9", "--max-depth", "1"]
        )
        assert code == 0
        assert out.splitlines()[1] == "1e-09,,,"

    def test_custom_menu_file(self, capsys, tmp_path):
        from triortho.cost import default_menu, menu_to_json

        path = tmp_path / "menu.json"
        jones_menu = [spec for spec in default_menu() if spec.family != "triortho"]
        path.write_text(json.dumps(menu_to_json(jones_menu)))
        code, out, _ = run(
            capsys, ["cost-curve", "--targets", "1e-13", "--menu", str(path)]
        )
        assert code == 0
        assert out.splitlines()[1] == "1e-13,505.08579328118884,,"

    def test_menu_negative_degree_is_an_error(self, capsys, tmp_path):
        from triortho.cost import jones_toffoli, menu_to_json

        entry = menu_to_json([jones_toffoli()])[0]
        entry["error_poly"] = [[28.0, -1]]
        path = tmp_path / "menu.json"
        path.write_text(json.dumps([entry]))
        code, out, err = run(capsys, ["cost-curve", "--targets", "1e-13", "--menu", str(path)])
        assert code == 1
        assert out == ""
        assert err == "error: jones-toffoli: bad polynomial term 28.0 p^-1\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--targets", "1e-13", "--physical-t-error", "5"], "physical_t_error"),
            (["--targets", "1e-13,2e-2"], "target_error"),
        ],
        ids=["physical-error-above-one", "target-above-physical-error"],
    )
    def test_bad_error_rates_are_errors_without_a_column(self, capsys, tmp_path, args, message):
        # A menu that fills no column still has its inputs checked.
        from triortho.cost import fifteen_to_one, menu_to_json

        path = tmp_path / "menu.json"
        path.write_text(json.dumps(menu_to_json([fifteen_to_one()])))
        code, out, err = run(capsys, ["cost-curve", "--menu", str(path), *args])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message} must be in")

    def test_overflowing_menu_is_an_error_naming_the_entry(self, capsys, tmp_path):
        # boom's output, 1e198, overflows sq's p^2 one level later.
        from triortho.cost import ProtocolSpec, jones_toffoli, menu_to_json

        boom = ProtocolSpec("boom", 0.5, ((1e200, 1),), ((1.0, 0),), "T", "T")
        sq = ProtocolSpec("sq", 2.0, ((1.0, 2),), ((1.0, 0),), "T", "T")
        path = tmp_path / "menu.json"
        path.write_text(json.dumps(menu_to_json([boom, sq, jones_toffoli()])))
        code, out, err = run(capsys, ["cost-curve", "--targets", "1e-13", "--menu", str(path)])
        assert code == 1
        assert out == ""
        assert err == "error: sq: float overflow at input error 1e+198\n"


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bogus"])
        assert excinfo.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["distill", "--builtin", "15-1-3"])
        assert excinfo.value.code == 2

    def test_mutually_exclusive_sources(self, capsys, builtin_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["build-code", "--builtin", "15-1-3", "--file", builtin_file])
        assert excinfo.value.code == 2

    @staticmethod
    def assert_below_limit_is_refused(capsys, argv, flag, value, low=1):
        # A usage error naming the limit: exit 2, nothing on stdout.
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [flag, value])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag}: must be at least {low}, got {value}" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_simulate_hadamard_needs_a_round(self, capsys, seeds, fmt):
        # No PASS and no header without at least one round.
        argv = ["simulate-hadamard", "--builtin", "15-1-3", "--format", fmt]
        self.assert_below_limit_is_refused(capsys, argv, "--seeds", seeds)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["distill", "--builtin", "15-1-3", "--model", "model.json"], "--trials", "0"),
            (["distill", "--builtin", "15-1-3", "--model", "model.json"], "--trials", "-5"),
            (["search", "--n", "8", "--k", "1", "--m-even", "3"], "--budget", "0"),
            (["search", "--n", "8", "--k", "1", "--m-even", "3"], "--budget", "-4"),
            (["cost-curve"], "--max-depth", "0"),
        ],
        ids=["trials-0", "trials-minus-5", "budget-0", "budget-minus-4", "max-depth-0"],
    )
    def test_counts_must_be_positive(self, capsys, argv, flag, value, fmt):
        # No rates from zero trials, no search without a candidate and no
        # table of stacks without a level.
        self.assert_below_limit_is_refused(capsys, argv + ["--format", fmt], flag, value)

    @pytest.mark.parametrize("level", ["1", "0", "-2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check-matrix", "--file", "g15.txt"],
            ["build-code", "--builtin", "15-1-3"],
            ["build-code", "--file", "g15.txt", "--format", "json"],
            ["distill", "--builtin", "15-1-3", "--model", "model.json"],
        ],
        ids=["check-matrix", "build-code-builtin", "build-code-file", "distill"],
    )
    def test_level_below_two_is_refused(self, capsys, argv, level):
        # Orthogonality levels start at the pairwise overlaps.
        self.assert_below_limit_is_refused(capsys, argv, "--level", level, low=2)


class TestWrittenFileMode:
    # Every --out style file gets the mode open() gives a new file,
    # 0o666 less the umask, not the 0600 of a private temporary file.
    @pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
    def umask(self, request):
        old = os.umask(request.param)
        yield request.param
        os.umask(old)

    def _assert_modes(self, capsys, argv, paths, umask):
        code, _, _ = run(capsys, argv)
        assert code == 0
        for path in paths:
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path

    def test_cost_curve_out(self, capsys, tmp_path, umask):
        path = tmp_path / "curve.csv"
        argv = ["cost-curve", "--targets", "1e-13", "--out", str(path)]
        self._assert_modes(capsys, argv, [path], umask)

    def test_distill_out_and_per_trial(self, capsys, tmp_path, d2_file, model_file, umask):
        out_json = tmp_path / "stats.json"
        per_trial = tmp_path / "trials.csv"
        argv = [
            "distill", "--file", d2_file, "--model", model_file, "--trials", "100",
            "--out", str(out_json), "--per-trial", str(per_trial),
        ]
        self._assert_modes(capsys, argv, [out_json, per_trial], umask)

    def test_search_out(self, capsys, tmp_path, umask):
        path = tmp_path / "found.txt"
        argv = [
            "search", "--n", str(SMALL8_SEARCH["n"]), "--k", str(SMALL8_SEARCH["k"]),
            "--m-even", str(SMALL8_SEARCH["m_even"]), "--budget", str(SMALL8_SEARCH["budget"]),
            "--seed", str(SMALL8_SEARCH["seed"]), "--out", str(path),
        ]
        self._assert_modes(capsys, argv, [path], umask)
