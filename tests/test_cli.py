import json
import math
from pathlib import Path

import numpy as np
import pytest

from quantilab.analysis import rows_from_csv
from quantilab.cli import build_parser, main
from quantilab.quantizer import Grid
from quantilab.solver import exp_optimal_grid

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_star_output(capsys):
    code, out, _ = run_cli(capsys, "theta-star", "--dist", "gaussian", "--d", "1",
                           "--r", "2", "--s", "1")
    assert code == 0
    assert out.strip() == "0.816496581"


def test_counterexample_output(capsys):
    code, out, _ = run_cli(capsys, "counterexample")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("lhs = -0.004900")
    assert lines[1] == "rhs = -0.998046875"
    assert lines[2] == "identity violated: yes"


def test_grid_command_one_point_exponential(capsys):
    code, out, _ = run_cli(capsys, "grid", "--dist", "exponential", "--lambda", "1",
                           "--n", "1", "--r", "2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)


def test_grid_command_at_an_extreme_rate(capsys):
    # points ~1e-13 apart, which an absolute merge tolerance would collapse
    code, out, err = run_cli(capsys, "grid", "--dist", "exponential", "--lambda", "1e13",
                             "--n", "2", "--r", "2")
    assert code == 0 and err == ""
    pts = np.array([float(tok) for tok in out.split()])
    np.testing.assert_allclose(pts, exp_optimal_grid(2, 2.0, 1e13).points, rtol=1e-12)


def test_grid_command_with_a_subunit_exponent(capsys):
    code, out, err = run_cli(capsys, "grid", "--dist", "exponential", "--n", "200",
                             "--r", "0.5")
    assert code == 0 and err == ""
    pts = np.array([float(tok) for tok in out.split()])
    np.testing.assert_allclose(pts, exp_optimal_grid(200, 0.5).points, rtol=0, atol=1e-8)


def test_exp_grid_json_and_text_agree(capsys):
    code, out_json, _ = run_cli(capsys, "exp-grid", "--n", "3", "--r", "2",
                                "--format", "json")
    assert code == 0
    code, out_text, _ = run_cli(capsys, "exp-grid", "--n", "3", "--r", "2")
    assert code == 0
    np.testing.assert_array_equal(
        json.loads(out_json), [float(v) for v in out_text.split()]
    )


def test_dilate_and_distortion_round_trip(tmp_path, capsys):
    grid_file = tmp_path / "grid.txt"
    code, out, _ = run_cli(capsys, "grid", "--dist", "gaussian", "--n", "2",
                           "--r", "2", "-o", str(grid_file))
    assert code == 0 and grid_file.is_file()
    code, out, _ = run_cli(capsys, "dilate", "--grid-file", str(grid_file),
                           "--theta", "0.5", "--mu", "0")
    assert code == 0
    dilated = Grid.from_text(out)
    original = Grid.from_text(grid_file.read_text())
    np.testing.assert_allclose(dilated.points, 0.5 * original.points)

    code, out, _ = run_cli(capsys, "distortion", "--dist", "gaussian",
                           "--grid-file", str(grid_file), "--r", "2")
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-9)


def test_table2_csv_parses_losslessly(capsys):
    code, out, _ = run_cli(capsys, "table2", "--s", "1", "--format", "csv")
    assert code == 0
    rows = rows_from_csv(out)
    assert [row.n for row in rows] == [20, 50, 100, 300]
    assert rows[0].a_hat == pytest.approx(0.6765013, abs=1e-6)


def test_table1_csv_parses_losslessly(capsys, shared_cache, monkeypatch):
    monkeypatch.setenv("QUANTILAB_CACHE_DIR", str(shared_cache.root))
    code, out, _ = run_cli(capsys, "table1", "--s", "1", "--format", "csv")
    assert code == 0
    rows = rows_from_csv(out)
    assert [row.n for row in rows] == [20, 50, 100, 300]
    assert rows[0].a_hat == pytest.approx(0.8250096, abs=1e-6)
    assert abs(rows[0].b_hat) < 1e-9


@pytest.mark.parametrize("s", ["1", "4"])
@pytest.mark.parametrize("table", ["table1", "table2"])
def test_table_csv_matches_the_pinned_output(capsys, shared_cache, table, s):
    # byte for byte, as CI compares them: table1's b_hat is round-off
    # (the Gaussian grids are symmetric), so it pins the solver's last bits
    code, out, _ = run_cli(capsys, table, "--s", s, "--cache-dir", str(shared_cache.root))
    assert code == 0
    assert out.encode() == (DATA / f"{table}_s{s}.csv").read_bytes()


def test_table_json_rows_match_the_pinned_csv(capsys, shared_cache):
    code, out, _ = run_cli(capsys, "table2", "--s", "4", "--format", "json",
                           "--cache-dir", str(shared_cache.root))
    assert code == 0
    rows = json.loads(out)
    assert all(row["status"] == "ok" for row in rows)
    keys = ("n", "a_hat", "b_hat", "eps_rmse", "eps_maxabs")
    lines = [",".join(keys)] + [
        ",".join([str(row["n"])] + [f"{row[k]:.9g}" for k in keys[1:]]) for row in rows
    ]
    assert "\n".join(lines) + "\n" == (DATA / "table2_s4.csv").read_text()


def test_table_text_prints_a_header_and_one_line_per_size(capsys, shared_cache):
    code, out, _ = run_cli(capsys, "table2", "--s", "4", "--format", "text",
                           "--cache-dir", str(shared_cache.root))
    assert code == 0
    header, *lines = out.splitlines()
    assert header.split() == ["n", "a_hat", "b_hat", "eps_rmse", "eps_maxabs"]
    pinned = rows_from_csv((DATA / "table2_s4.csv").read_text())
    assert [line.split()[0] for line in lines] == [str(row.n) for row in pinned]
    # a_hat is printed to 9 significant digits, as in the CSV
    assert [float(line.split()[1]) for line in lines] == [row.a_hat for row in pinned]
    assert all(len(line.split()) == 5 for line in lines)


def test_repeat_runs_are_byte_identical(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QUANTILAB_CACHE_DIR", str(tmp_path))
    args = ("grid", "--dist", "gaussian", "--n", "3", "--r", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)  # second run hits the cache
    assert first == second
    monkeypatch.delenv("QUANTILAB_CACHE_DIR")
    _, third, _ = run_cli(capsys, *args)
    assert third == first


def test_repeated_main_calls_share_one_parser(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("QUANTILAB_CACHE_DIR", raising=False)
    cache, out_file = tmp_path / "cache", tmp_path / "grid.json"
    code, out, _ = run_cli(capsys, "grid", "--n", "3", "--cache-dir", str(cache),
                           "--format", "json", "-o", str(out_file))
    assert code == 0 and out == ""
    written = out_file.read_text()
    cached = {path: path.read_bytes() for path in cache.iterdir()}
    assert cached
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--dist", "gamma", "--n", "3"])  # missing --a
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: the gamma family needs --a\n")
    # no flag of the first call carries over: text on stdout, no file, no cache
    code, out, err = run_cli(capsys, "grid", "--n", "3")
    assert code == 0 and err == ""
    np.testing.assert_array_equal([float(v) for v in out.split()], json.loads(written))
    assert out_file.read_text() == written
    assert {path: path.read_bytes() for path in cache.iterdir()} == cached
    assert build_parser() is build_parser()


def test_empirical_check_json(capsys):
    code, out, _ = run_cli(capsys, "empirical-check", "--dist", "exponential",
                           "--n", "200", "--r", "2", "--s", "1", "--bins", "8",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 200
    assert payload["max_discrepancy"] <= 0.05


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "n = 30\nbins = 10\ntheta_star = 1.14285714\nmax_discrepancy = 0.0333333333\n"),
        (
            "json",
            '{\n  "n": 30,\n  "bins": 10,\n  "theta_star": 1.1428571428571428,\n'
            '  "max_discrepancy": 0.03333333333333334\n}\n',
        ),
    ],
)
def test_empirical_check_output_is_pinned(capsys, fmt, expected):
    code, out, _ = run_cli(capsys, "empirical-check", "--dist", "gamma", "--a", "2",
                           "--n", "30", "--r", "1.5", "--s", "2", "--format", fmt)
    assert code == 0 and out == expected


def test_constants_json_contains_bundle(capsys):
    code, out, _ = run_cli(capsys, "constants", "--dist", "exponential",
                           "--r", "2", "--s", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q_r"] == pytest.approx(2.25)
    assert payload["q_inf"] == pytest.approx(1.0, rel=1e-8)
    assert payload["theta_star"] == pytest.approx(2.0 / 3.0)


def test_constants_json_divergent_query_is_strict_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--dist", "exponential",
                           "--r", "2", "--s", "4", "--theta", "1.0",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)  # strict JSON: no bare Infinity tokens
    assert payload["q_inf"] == "inf"
    assert payload["condition_integral"] == "inf"
    assert payload["theta_admissible"] is False


def test_constants_just_above_the_condition_threshold(capsys):
    # theta = 4/3 + 1 ulp: finite but huge; the closed form needs no panels
    code, out, err = run_cli(capsys, "constants", "--dist", "exponential",
                             "--r", "2", "--s", "4", "--theta", "1.3333333333333335")
    assert code == 0 and err == ""
    values = dict(line.split(" = ") for line in out.strip().split("\n"))
    cond = float(values["condition_integral"])
    assert math.isfinite(cond) and cond > 1e15


def test_constants_for_a_gamma_shape_beyond_the_float_range_of_its_gamma(capsys):
    # math.gamma(200) overflows; c_fr and the constants built on it do not
    code, out, err = run_cli(capsys, "constants", "--dist", "gamma", "--a", "200",
                             "--r", "2", "--s", "1", "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert all(math.isfinite(payload[key]) for key in ("c_fr", "q_r", "q_inf", "theta_star"))


def test_exp_grid_has_no_root_tolerance_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exp-grid", "--n", "3", "--root-tol", "1e-12"])
    assert exc.value.code == 2


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--dist", "gamma", "--n", "2"])  # missing --a
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("constants", "--dist", "gamma", "--a", "2", "--d", "2", "--r", "2", "--s", "1"),
        ("theta-star", "--dist", "gamma", "--a", "2", "--d", "2", "--r", "2", "--s", "1"),
        ("theta-star", "--dist", "exponential", "--d", "3", "--r", "2", "--s", "1"),
    ],
    ids=["constants-gamma", "theta-star-gamma", "theta-star-exponential"],
)
def test_dimension_flag_is_refused_for_non_gaussian_laws(capsys, argv):
    # these laws are one-dimensional: --d 2 must not print the d = 1 answer
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: --d applies to the gaussian family only, not {argv[2]}\n")


def test_numeric_failures_exit_1(capsys):
    code = main(["theta-star", "--dist", "gamma", "--a", "3", "--r", "1", "--s", "5"])
    assert code == 1
    assert "numeric failure" in capsys.readouterr().err


def test_gamma_optimum_at_the_origin_exits_1_with_one_line(capsys):
    code, out, err = run_cli(
        capsys, "grid", "--dist", "gamma", "--a", "0.3", "--r", "0.3", "--n", "5"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("quantilab: numeric failure: ") and "origin" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("exp-grid", "--n", "3", "--r", "200"),  # math.gamma(200) overflows
        ("constants", "--r", "2", "--s", "400"),  # so does a float power in q_inf
    ],
    ids=["exp-grid-r200", "constants-s400"],
)
def test_float_overflow_exits_1_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("quantilab: numeric failure: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("grid", "--n", "0", "--r", "2"),
        ("grid", "--n", "3", "--r", "2", "--d", "2"),
        ("distortion", "--grid-file", "{empty}"),
        ("distortion", "--grid-file", "{missing}"),
        # a dimension the command does not support is a usage error
        ("constants", "--r", "2", "--s", "1", "--d", "2"),
        ("distortion", "--d", "2", "--grid-file", "{grid}"),
    ],
    ids=["n-zero", "d-two", "empty-grid-file", "missing-grid-file", "constants-d-two",
         "distortion-d-two"],
)
def test_input_errors_exit_2_with_one_line(capsys, tmp_path, argv):
    empty, grid = tmp_path / "empty.txt", tmp_path / "grid.txt"
    empty.write_text("")
    grid.write_text(Grid([0.2, 0.9, 1.7]).to_text())
    paths = {"empty": empty, "missing": tmp_path / "missing.txt", "grid": grid}
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("quantilab: error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, name",
    [
        (("constants", "--r", "nan", "--s", "1"), "r"),
        (("constants", "--r", "2", "--s", "1", "--j-const", "nan"), "j_const"),
        (("theta-star", "--r", "2", "--s", "nan"), "s"),
        (("grid", "--n", "5", "--r", "nan"), "r"),
        (("grid", "--n", "5", "--r", "inf"), "r"),
        (("grid", "--n", "5", "--grad-tol", "nan"), "grad_tol"),
        (("grid", "--n", "5", "--m", "nan"), "m"),
        (("grid", "--n", "5", "--sigma2", "inf"), "sigma2"),
        (("grid", "--dist", "gamma", "--a", "nan", "--n", "5"), "a"),
        (("exp-grid", "--n", "5", "--lambda", "inf"), "lam"),
        (("dilate", "--grid-file", "{grid}", "--theta", "nan"), "theta"),
        (("distortion", "--grid-file", "{grid}", "--r", "nan"), "r"),
    ],
    ids=["constants-r", "constants-j-const", "theta-star-s", "grid-r-nan", "grid-r-inf", "grid-grad-tol",
         "grid-m", "grid-sigma2", "grid-a", "exp-grid-lambda", "dilate-theta",
         "distortion-r"],
)
def test_non_finite_inputs_exit_2_naming_the_parameter(capsys, tmp_path, argv, name):
    grid_file = tmp_path / "grid.txt"
    grid_file.write_text(Grid([0.2, 0.9, 1.7]).to_text())
    code, out, err = run_cli(capsys, *(a.format(grid=grid_file) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"quantilab: error: {name} must be finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("grid", "--n", "20", "--r", "2"),
        ("grid", "--n", "12", "--r", "4", "--format", "json"),
        ("distortion", "--grid-file", "{grid}", "--r", "3"),
        ("constants", "--r", "2", "--s", "1"),
        ("constants", "--r", "4", "--s", "2", "--theta", "0.9", "--format", "json"),
        ("theta-star", "--r", "2", "--s", "4"),
        ("empirical-check", "--n", "100", "--r", "2", "--s", "1"),
    ],
    ids=["grid", "grid-json", "distortion", "constants", "constants-json",
         "theta-star", "empirical-check"],
)
@pytest.mark.parametrize("lam", ["1", "2.5"])
def test_gamma_shape_one_prints_what_exponential_prints(capsys, tmp_path, argv, lam):
    grid_file = tmp_path / "grid.txt"
    grid_file.write_text(Grid([0.2, 0.9, 1.7, 3.1]).to_text())
    argv = [a.format(grid=grid_file) for a in argv]
    expo = run_cli(capsys, *argv, "--dist", "exponential", "--lambda", lam)
    gamma = run_cli(capsys, *argv, "--dist", "gamma", "--a", "1", "--lambda", lam)
    assert expo[0] == 0 and expo[1]
    assert gamma == expo
