import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sumlab.cli import cli_dispatch


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_dispatch(argv)
    return code, buf.getvalue()


def write_set(tmp_path, name, dim, points):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": dim, "points": points}))
    return str(path)


@pytest.fixture
def square(tmp_path):
    return write_set(tmp_path, "a.json", 2, [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]])


@pytest.fixture
def singleton(tmp_path):
    return write_set(tmp_path, "b.json", 2, [["0", "0"]])


def test_construct_matches_library(tmp_path):
    code, out = run_cli(["construct", "stanchescu", "--d", "3", "--k", "2"])
    assert code == 0
    blob = json.loads(out)
    assert blob["dim"] == 3 and len(blob["points"]) == 8
    assert blob["meta"]["construction"] == "stanchescu"
    assert blob["meta"]["params"] == {"d": 3, "k": 2}


def test_construct_lengths(tmp_path):
    code, out = run_cli(["construct", "freiman-aps", "--d", "2", "--lengths", "3,3"])
    assert code == 0
    assert len(json.loads(out)["points"]) == 6


def test_sum_diff_dim(square, singleton):
    code, out = run_cli(["sum", "--input", square, "--b", singleton])
    assert code == 0 and len(json.loads(out)["points"]) == 4
    code, out = run_cli(["diff", "--input", square, "--b", square])
    assert code == 0 and len(json.loads(out)["points"]) == 9
    code, out = run_cli(["dim", "--input", square])
    assert json.loads(out)["affine_dimension"] == 2


def test_lines(square):
    code, out = run_cli(["lines", "--input", square, "--direction", "0,1"])
    blob = json.loads(out)
    assert blob["count"] == 2 and blob["class_sizes"] == [2, 2]
    code, out = run_cli(["lines", "--input", square])
    assert json.loads(out)["count"] == 2


def test_compress(square, singleton):
    code, out = run_cli(
        ["compress", "--input", square, "--normal", "1,0", "--offset", "0",
         "--direction", "1,-1", "--b", singleton]
    )
    blob = json.loads(out)
    assert code == 0
    assert [["0", "2"]] == [p for p in blob["result"]["points"] if p[1] == "2"]
    assert blob["sum_after"] <= blob["sum_before"]


def test_reduce_and_denormalize(square, singleton):
    code, out = run_cli(["reduce", "--input", square, "--b", singleton, "--direction", "0,1"])
    blob = json.loads(out)
    assert code == 0
    assert blob["normalized_frame"] is True
    assert blob["a"]["points"] == [["0", "0"], ["0", "1"], ["0", "2"], ["1", "0"]]
    assert len(blob["trace"]["steps"]) == 4

    code, out = run_cli(
        ["reduce", "--input", square, "--b", singleton, "--direction", "0,1", "--denormalize"]
    )
    blob2 = json.loads(out)
    assert blob2["normalized_frame"] is False
    assert len(blob2["a"]["points"]) == 4


def test_reduce_denormalizes_an_empty_b(square, tmp_path):
    empty = write_set(tmp_path, "empty.json", 2, [])
    code, out = run_cli(["reduce", "--input", square, "--b", empty, "--direction", "0,1", "--denormalize"])
    assert code == 0 and json.loads(out)["b"] == {"dim": 2, "points": []}


def test_compress_takes_an_empty_set_to_an_empty_set(square, tmp_path, capsys):
    empty = write_set(tmp_path, "empty.json", 2, [])
    flags = ["--normal", "0,1", "--offset", "0", "--direction", "0,1"]
    code, out = run_cli(["compress", "--input", empty, *flags])
    blob = json.loads(out)
    assert code == 0 and blob["result"] == {"dim": 2, "points": []} and blob["map"] == []
    # the report counts |A + B|, and set arithmetic has no empty operands
    code, out = run_cli(["compress", "--input", square, "--b", empty, *flags])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == "error: set arithmetic requires nonempty operands\n"


def test_bounds():
    code, out = run_cli(["bounds", "--claim", "MAIN", "--d", "4", "--n", "100"])
    assert code == 0 and json.loads(out)["value"] == "1843/3"
    code, out = run_cli(["bounds", "--claim", "ASYM_THM", "--d", "2", "--n", "50", "--m", "10"])
    blob = json.loads(out)
    assert blob["error_constant"] == "16"
    assert blob["subtracted_radical"]["coefficient"] == "8"
    code, out = run_cli(["bounds", "--claim", "LEMMA_BASE_2D", "--n", "50", "--m", "10"])
    blob = json.loads(out)
    assert code == 0 and blob["subtracted_radical"] == {"coefficient": "5", "sqrt_of": "n"}
    assert "error_constant" not in blob


def test_bounds_eps_and_cd():
    code, out = run_cli(["bounds", "--claim", "LINES_4D", "--d", "4", "--n", "10", "--eps", "1/10", "--cd", "2"])
    blob = json.loads(out)
    assert code == 0 and blob["value"] == "187/3" and blob["params"]["eps"] == "1/10"


@pytest.mark.parametrize("flag, missing", [("--eps", "c_d"), ("--cd", "eps")])
def test_bounds_lines_4d_refuses_half_of_its_constant_pair(capsys, flag, missing):
    code, out = run_cli(["bounds", "--claim", "LINES_4D", "--d", "3", "--n", "10", flag, "1/2"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: LINES_4D takes eps and c_d together; missing {missing}\n"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--eps", " 1/10"), ("--eps", "1e1"), ("--eps", "0.1"), ("--cd", "2.0"), ("--cd", "2 "),
        ("--eps", "1/10\n"), ("--eps", "\u0661/10"), ("--eps", "\uff11/\uff11\uff10"), ("--cd", "2\n"),
    ],
)
def test_bounds_rejects_lax_rationals(flag, value):
    argv = {"--eps": "1/10", "--cd": "2", flag: value}
    code, _ = run_cli(["bounds", "--claim", "LINES_4D", "--d", "4", "--n", "10", *sum(argv.items(), ())])
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--claim", "TWOPLANES_1", "--d", "1", "--n", "5", "--a1", "2"],
        ["--claim", "DLINES", "--d", "0", "--n", "5"],
        ["--claim", "LINES_4D", "--d", "1", "--n", "5", "--eps", "1/2", "--cd", "3"],
    ],
    ids=["TWOPLANES_1-d1", "DLINES-d0", "LINES_4D-d1"],
)
def test_bounds_low_dimension_is_input_error(capsys, argv):
    code, out = run_cli(["bounds", *argv])
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_out_is_input_error(tmp_path, capsys):
    # exit 1 means a counterexample, so a report that cannot be written is an input error
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out = run_cli(["bounds", "--claim", "MAIN", "--d", "3", "--n", "10", "--out", str(target)])
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--claim", "GS_LINES", "--d", "3", "--n", "9", "--m", "4", "--r1", "3", "--r2", "2"],
        ["--claim", "LEMMA_BASE_2D", "--d", "5", "--n", "4", "--m", "3"],
    ],
    ids=["GS_LINES-d3", "LEMMA_BASE_2D-d5"],
)
def test_bounds_planar_claim_off_the_plane_is_input_error(capsys, argv):
    code, out = run_cli(["bounds", *argv])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: {argv[1]} is a planar claim; got d = {argv[3]}\n"
    # the same flags at d = 2 evaluate the planar formula
    code, out = run_cli(["bounds", *argv[:3], "2", *argv[4:]])
    assert code == 0 and json.loads(out)["params"]["d"] == "2"


@pytest.mark.parametrize("value", ["1_0", " 2", "+2", "2\n", "\u0662", "2,\uff13"])
@pytest.mark.parametrize(
    "command",
    [
        ["compress", "--normal", "1,0", "--offset", "{}", "--direction", "1,-1"],
        ["compress", "--normal", "1,0", "--offset", "0", "--direction", "1,{}"],
        ["lines", "--direction", "0,{}"],
        ["search", "--mode", "exhaustive", "--d", "2", "--n", "3", "--box", "{}", "--seed", "1"],
        ["verify", "--suite", "constructions", "--seed", "1", "--dims", "{}"],
    ],
    ids=["offset", "direction", "lines-direction", "box", "dims"],
)
def test_number_text_is_strict(square, capsys, command, value):
    argv = [arg.format(value) for arg in command]
    if argv[0] in ("compress", "lines"):
        argv += ["--input", square]
    code, out = run_cli(argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", ["1_0", " 2", "+2"])
@pytest.mark.parametrize(
    "command",
    [
        ["bounds", "--claim", "MAIN", "--d", "{}", "--n", "10"],
        ["bounds", "--claim", "MAIN", "--d", "2", "--n", "{}"],
        ["bounds", "--claim", "TWOPLANES_1", "--d", "3", "--n", "10", "--a1", "{}"],
        ["construct", "stanchescu", "--d", "2", "--k", "{}"],
        ["search", "--mode", "exhaustive", "--d", "2", "--n", "3", "--box", "2", "--seed", "{}"],
        # comb(2, 1) = 2 subsets, within a budget of 2 or 10
        ["search", "--mode", "exhaustive", "--d", "1", "--n", "1", "--box", "1", "--seed", "1", "--budget", "{}"],
        ["search", "--mode", "random", "--d", "2", "--n", "3", "--box", "2", "--seed", "1", "--trials", "{}"],
        ["verify", "--suite", "constructions", "--seed", "{}", "--dims", "2"],
    ],
    ids=["bounds-d", "bounds-n", "bounds-a1", "construct-k", "search-seed", "search-budget", "search-trials", "verify-seed"],
)
def test_integer_flags_are_strict(capsys, command, value):
    code, out = run_cli([arg.format(value) for arg in command])
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        ["compress", "--normal", "1.0,0", "--offset", "0", "--direction", "1,-1"],
        ["compress", "--normal", "1,0", "--offset", "0.0", "--direction", "1,-1"],
        ["compress", "--normal", "1,0", "--offset", "0", "--direction", "1,-1.0"],
        ["lines", "--direction", "0.0,1"],
        ["reduce", "--direction", "0,1.5"],
    ],
)
def test_float_direction_normal_offset_exit_code(square, command):
    code, _ = run_cli([*command, "--input", square])
    assert code == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["compress", "--input", "A3", "--normal", "0,1", "--offset", "0", "--direction", "0,1"],
            "compression dimension mismatch",
            id="compress-dim",
        ),
        pytest.param(
            ["compress", "--input", "SQUARE", "--normal", "0,1,0", "--offset", "0", "--direction", "0,1"],
            "hyperplane and direction dimensions differ",
            id="compress-spec-dims",
        ),
        pytest.param(
            ["reduce", "--input", "A1", "--direction", "1"],
            "reduction needs ambient dimension at least 2",
            id="reduce-d1",
        ),
        pytest.param(
            ["reduce", "--input", "A3", "--b", "SQUARE", "--direction", "0,0,1"],
            "operand dimension mismatch",
            id="reduce-b-dim",
        ),
        pytest.param(["lines", "--input", "A3", "--direction", "1,0"], "direction dimension mismatch", id="lines-dim"),
        pytest.param(["lines", "--input", "EMPTY", "--direction", "1,0"], "empty set", id="lines-empty"),
        pytest.param(["lines", "--input", "POINT"], "need at least two points", id="lines-cover-one-point"),
        pytest.param(["construct", "freiman-aps", "--d", "0", "--lengths", "1"], "need d >= 1", id="freiman-aps-d0"),
        pytest.param(
            ["construct", "stanchescu", "--d", "3"], "construction stanchescu needs --k", id="stanchescu-no-k"
        ),
        pytest.param(
            ["search", "--d", "0", "--n", "1", "--box", "1", "--mode", "exhaustive", "--seed", "0"],
            "need d >= 1 and n >= 1",
            id="search-d0",
        ),
        pytest.param(
            ["verify", "--dims", "1", "--seed", "0"], "dims must be a nonempty subset of {2,...,6}", id="verify-dims"
        ),
        pytest.param(["verify", "--trials", "0", "--seed", "0"], "trials must be >= 1", id="verify-trials"),
        pytest.param(
            ["dim", "--input", "NO_COORDINATES"], "points must have at least one coordinate", id="dim-no-coords"
        ),
    ],
)
def test_library_refusals_are_input_errors(tmp_path, capsys, argv, message):
    inputs = {
        "SQUARE": (2, [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]),
        "A3": (3, [["0", "0", "0"], ["1", "0", "0"]]),
        "A1": (1, [["0"], ["1"]]),
        "EMPTY": (2, []),
        "POINT": (2, [["0", "0"]]),
        "NO_COORDINATES": (1, [[]]),
    }
    argv = [write_set(tmp_path, f"{arg}.json", *inputs[arg]) if arg in inputs else arg for arg in argv]
    code, out = run_cli(argv)
    assert code == 3 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_claims_json_and_exit(tmp_path):
    code, out = run_cli(["construct", "stanchescu", "--d", "3", "--k", "2", "--out", str(tmp_path / "s.json")])
    assert code == 0
    code, out = run_cli(
        ["claims", "--claim", "MAIN", "--as-conjecture", "--input", str(tmp_path / "s.json")]
    )
    blob = json.loads(out)
    assert code == 0
    assert blob["verdict"] == "CONSISTENT" and blob["margin"] == "0"


def test_claims_csv(square):
    code, out = run_cli(
        ["claims", "--claim", "FHU_DIFF", "--input", square, "--format", "csv"]
    )
    lines = out.strip().splitlines()
    assert lines[0] == "claim,d,n,lhs,rhs,margin,verdict"
    assert lines[1].startswith("FHU_DIFF,2,4,9,9,0,")


def test_claims_direction_of_another_dimension_exit_code(tmp_path, capsys):
    # a usage error, not a VACUOUS report
    run_cli(["construct", "stanchescu", "--d", "3", "--k", "3", "--out", str(tmp_path / "s.json")])
    code, out = run_cli(["claims", "--claim", "TWOPLANES_1", "--direction", "1,0", "--input", str(tmp_path / "s.json")])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("error: l has dimension 2, but A has dimension 3")


def test_claims_counterexample_exit_code(square, monkeypatch):
    # no honest instance of a proven inequality can fail, so the exit-1
    # branch is exercised against a stubbed verdict
    import sumlab.cli as cli
    from sumlab.bounds import ClaimReport
    from fractions import Fraction

    def fake_check(claim, a, b=None, l=None, as_conjecture=False):
        zero = Fraction(0)
        return ClaimReport(claim, "stub", True, False, zero, zero, zero, "COUNTEREXAMPLE")

    monkeypatch.setattr(cli, "check_claim", fake_check)
    code, out = run_cli(["claims", "--claim", "MAIN", "--input", square])
    assert code == 1


def test_search_cli():
    code, out = run_cli(
        ["search", "--mode", "exhaustive", "--d", "2", "--n", "4", "--box", "3",
         "--seed", "5", "--require-full-dim"]
    )
    blob = json.loads(out)
    assert code == 0 and blob["best_value"] == 9

    code, _ = run_cli(
        ["search", "--mode", "random", "--d", "2", "--n", "5", "--box", "4",
         "--seed", "5", "--trials", "20", "--claim", "MAIN", "--as-conjecture"]
    )
    assert code == 0


def test_search_counterexample_exit_code():
    # the 4-cube breaks MAIN read as a conjecture (tests/test_search.py)
    code, out = run_cli(
        ["search", "--mode", "exhaustive", "--d", "4", "--n", "16", "--box", "1", "--seed", "0",
         "--claim", "MAIN", "--as-conjecture", "--require-full-dim"]
    )
    assert code == 1 and len(json.loads(out)["violations"]) == 1


def test_search_requires_seed():
    code, _ = run_cli(["search", "--mode", "exhaustive", "--d", "2", "--n", "4", "--box", "3"])
    assert code == 3


def test_search_budget_exit():
    code, _ = run_cli(
        ["search", "--mode", "exhaustive", "--d", "2", "--n", "9", "--box", "9",
         "--seed", "1", "--budget", "1000"]
    )
    assert code == 3


@pytest.mark.parametrize("threads", ["0", "-2", "1", "2"])
def test_search_threads_flag_is_usage_error(threads):
    # the exhaustive walk runs in one process and search has no --threads flag
    with pytest.raises(SystemExit) as info:
        cli_dispatch(["search", "--mode", "exhaustive", "--d", "2", "--n", "4", "--box", "3",
                      "--seed", "5", "--threads", threads])
    assert info.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli_dispatch(["claims", "--claim", "NOT_A_CLAIM", "--input", "x.json"])
    assert info.value.code == 2


def test_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["dim", "--input", str(bad)])
    assert code == 3
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"dim": 1, "points": [["1"], ["1"]]}))
    code, _ = run_cli(["dim", "--input", str(dup)])
    assert code == 3


@pytest.mark.parametrize("command", ["dim", "diff"])
@pytest.mark.parametrize("dim, points", [(1, [5]), (2, [["1", None]]), (2, ["12"]), (2, [[True, 2]])])
def test_non_point_json_is_input_error(tmp_path, capsys, command, dim, points):
    path = write_set(tmp_path, "bad.json", dim, points)
    second = ["--b", path] if command == "diff" else []
    code, _ = run_cli([command, "--input", path, *second])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_requires_seed():
    code, _ = run_cli(["verify", "--suite", "constructions"])
    assert code == 3


def test_verify_deterministic_bytes():
    code1, out1 = run_cli(["verify", "--suite", "constructions", "--seed", "42", "--trials", "5"])
    code2, out2 = run_cli(["verify", "--suite", "constructions", "--seed", "42", "--trials", "5"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_matches_golden_report():
    # the committed file pins the report bytes, not only their repeatability
    code, out = run_cli(["verify", "--suite", "all", "--seed", "42"])
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "golden" / "verify_all_seed42.json").read_bytes()


GOLDEN = Path(__file__).parent / "golden"

# name -> argv; run from tests/golden so the input_sha256 keys are stable relative paths
GOLDEN_RUNS = {
    "search_exhaustive_d2_n5": [
        "search", "--mode", "exhaustive", "--d", "2", "--n", "5", "--box", "3",
        "--seed", "0", "--require-full-dim",
    ],
    "search_random_d3_main": [
        "search", "--mode", "random", "--d", "3", "--n", "10", "--box", "4",
        "--trials", "200", "--seed", "42", "--claim", "MAIN", "--as-conjecture",
    ],
    "reduce_a3": ["reduce", "--input", "inputs/a3.json", "--b", "inputs/b3.json", "--direction", "0,0,1"],
    "reduce_a3_denormalize": [
        "reduce", "--input", "inputs/a3.json", "--b", "inputs/b3.json", "--direction", "0,0,1",
        "--denormalize",
    ],
    "compress_a2_b2": [
        "compress", "--input", "inputs/a2.json", "--b", "inputs/b2.json",
        "--normal", "1,2", "--offset", "1/2", "--direction", "1,-1",
    ],
    # n.v = 3: the anchors gain a denominator that neither the points nor the offset carry
    "compress_a2_b2_nv3": [
        "compress", "--input", "inputs/a2.json", "--b", "inputs/b2.json",
        "--normal", "1,2", "--offset", "1/3", "--direction", "1,1",
    ],
    # a whole set built by set arithmetic on rational input, with denominators 2, 3 and 6
    "diff_a2_b2": ["diff", "--input", "inputs/a2.json", "--b", "inputs/b2.json"],
    "lines_a3_cover": ["lines", "--input", "inputs/a3.json"],
    "lines_a2_partition": ["lines", "--input", "inputs/a2.json", "--direction", "1,0"],
    "diagnose_a3": ["diagnose", "--input", "inputs/a3.json"],
    # d=4: the shadow along the cover direction has rank 3
    "diagnose_a4": ["diagnose", "--input", "inputs/a4.json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_matches_golden_report(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out = run_cli(GOLDEN_RUNS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_diagnose(tmp_path):
    run_cli(["construct", "stanchescu", "--d", "4", "--k", "3", "--out", str(tmp_path / "s.json")])
    code, out = run_cli(["diagnose", "--input", str(tmp_path / "s.json")])
    blob = json.loads(out)
    assert code == 0
    assert blob["fits_two_hyperplanes"] is True
    assert blob["size_imbalance"] == 0


def test_console_entrypoint_subprocess(square):
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "sumlab", "dim", "--input", square],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["affine_dimension"] == 2


def test_no_timestamp_by_default(square):
    _, out = run_cli(["dim", "--input", square])
    assert "timestamp" not in json.loads(out)
    _, out = run_cli(["dim", "--input", square, "--timestamps"])
    assert "timestamp" in json.loads(out)
