"""Command-line interface: exit codes, output modes, reproducibility."""

import json

import jsonschema
import numpy as np
import pytest

import hoffbound.cli as cli
from hoffbound import OracleResult, save_matrix_csv

from helpers import planted_mixed_matrix, report_schema


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix_csv(path, -np.eye(3))
    return str(path)


def test_parser_defaults():
    args = cli.build_parser().parse_args(["compute", "--input", "m.csv"])
    assert args.samples == 64
    assert args.seed == 0
    assert args.format == "auto"
    assert args.output == "text"
    for gone in ("skip_oracle", "opt_tol", "feas_tol"):
        assert not hasattr(args, gone)


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "compute" in capsys.readouterr().out


def test_text_output(csv_path, capsys):
    rc = cli.main(["compute", "--input", csv_path, "--samples", "4"])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "branch:" in out
    assert "total upper bound:" in out
    assert "sandwich check: consistent" in out


def test_text_output_says_whether_the_partition_lp_ran(csv_path, tmp_path, capsys):
    # -eye(3) is proven all slack before the LP; a planted mixed split is not
    assert cli.main(["compute", "--input", csv_path, "--samples", "0"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "partition LP: not run, the split was proven before it" in out
    assert "margin t" not in out
    path = tmp_path / "mixed.csv"
    save_matrix_csv(path, planted_mixed_matrix(3, 30, 8))
    assert cli.main(["compute", "--input", str(path), "--samples", "0"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "margin t of the certified LP iterate: " in out
    assert "iterations to the certified split" in out
    assert "not run" not in out


def test_json_output_matches_schema(csv_path, capsys):
    rc = cli.main(["compute", "--input", csv_path, "--output", "json",
                   "--samples", "4"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, report_schema())
    assert payload["branch"] == "case_N"
    assert payload["sandwich"]["ok"] is True


def test_zero_samples_disables_oracle(csv_path, capsys):
    rc = cli.main(["compute", "--input", csv_path, "--output", "json",
                   "--samples", "0"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"] is None
    assert payload["sandwich"] is None


def test_canonical_json_is_reproducible(csv_path, capsys):
    argv = ["compute", "--input", csv_path, "--output", "json", "--canonical",
            "--samples", "8", "--seed", "5"]
    assert cli.main(argv) == cli.EXIT_OK
    first = capsys.readouterr().out
    assert cli.main(argv) == cli.EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    assert '"timings"' not in first


def test_mtx_input(tmp_path, capsys):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 2\n3\n4\n")
    rc = cli.main(["compute", "--input", str(path), "--output", "json",
                   "--samples", "4"])
    assert rc == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounds"]["total"] == pytest.approx(0.2, abs=1e-6)


def test_missing_input_exits_with_error(tmp_path, capsys):
    rc = cli.main(["compute", "--input", str(tmp_path / "absent.csv")])
    assert rc == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_invalid_compute_arguments_exit_with_error(csv_path, capsys):
    rc = cli.main(["compute", "--input", csv_path, "--samples", "-1"])
    assert rc == cli.EXIT_ERROR
    assert "--samples must be at least 0" in capsys.readouterr().err
    # the tolerances are constants, not options, and --samples 0 is the one
    # way to skip the oracle
    for extra in (["--output", "xml"], ["--format", "bogus"],
                  ["--feas-tol", "1e-9"], ["--opt-tol", "1e-8"],
                  ["--skip-oracle"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--input", csv_path, *extra])
        assert exc.value.code == 2


def test_corrupt_input_exits_with_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,junk\n")
    rc = cli.main(["compute", "--input", str(path)])
    assert rc == cli.EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_matrix_whose_norm_overflows_exits_with_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    save_matrix_csv(path, 1e160 * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]))
    rc = cli.main(["compute", "--input", str(path)])
    assert rc == cli.EXIT_ERROR
    assert "overflows" in capsys.readouterr().err


def test_tiny_nonzero_matrix_exits_with_error(tmp_path, capsys):
    # once reported as the zero matrix with a total of 0, though H0 is 1e301
    path = tmp_path / "tiny.csv"
    save_matrix_csv(path, np.array([[1e-301]]))
    rc = cli.main(["compute", "--input", str(path)])
    assert rc == cli.EXIT_ERROR
    assert "too small" in capsys.readouterr().err


def test_sandwich_violation_exit_code(csv_path, capsys, monkeypatch):
    def inflated(inst, num_samples, seed, *, x_hat=None, cfg=None):
        return OracleResult(lower_bound=1e9, best_u=None,
                            samples_used=1, screened_feasible=0, pruned=0,
                            failed=0, seed=seed)

    monkeypatch.setattr(cli, "lower_bound_monte_carlo", inflated)
    rc = cli.main(["compute", "--input", csv_path, "--samples", "1"])
    assert rc == cli.EXIT_SANDWICH
