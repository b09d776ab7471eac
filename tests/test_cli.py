"""Command-line interface: exit codes, output modes, reproducibility."""

import json

import jsonschema
import numpy as np
import pytest

import hoffbound.cli as cli
from hoffbound import (
    AuditResult,
    OracleResult,
    ProblemInstance,
    bound_h0,
    canonical_report_json,
    lower_bound_monte_carlo,
    report_to_dict,
    save_matrix_csv,
)

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
    out, err = capsys.readouterr()
    assert "branch:" in out
    assert "total upper bound:" in out
    assert "audit: passed\n" in out
    assert "sandwich check: consistent" in out
    assert err == ""


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
    for name in ("absent.csv", "absent.mtx"):
        rc = cli.main(["compute", "--input", str(tmp_path / name)])
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


def _failed_audit(inst, report):
    return AuditResult(ok=False, failures=("case_N: forged failure",), metrics={})


def test_canonical_stdout_is_the_plain_calls_payload(csv_path, capsys):
    # the audit adds a line to the text output and nothing to the JSON
    assert cli.main(["compute", "--input", csv_path, "--output", "json",
                     "--canonical", "--samples", "8", "--seed", "5"]) == cli.EXIT_OK
    inst = ProblemInstance.from_matrix(-np.eye(3))
    report = bound_h0(inst)
    oracle = lower_bound_monte_carlo(inst, num_samples=8, seed=5,
                                     x_hat=report.partition.x_hat)
    plain = canonical_report_json(report_to_dict(report, oracle))
    assert capsys.readouterr().out == plain + "\n"


def test_a_failed_audit_prints_the_report_and_exits_with_its_code(
        csv_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "audit_report", _failed_audit)
    rc = cli.main(["compute", "--input", csv_path, "--samples", "4"])
    assert rc == cli.EXIT_AUDIT == 3
    captured = capsys.readouterr()
    assert "total upper bound:" in captured.out
    assert "sandwich check: consistent" in captured.out
    assert "audit: FAILED\n" in captured.out
    assert "case_N: forged failure" in captured.err
    # the JSON report is printed too, with the same bytes as a passing run
    argv = ["compute", "--input", csv_path, "--output", "json", "--canonical"]
    assert cli.main(argv) == cli.EXIT_AUDIT
    failed = capsys.readouterr().out
    monkeypatch.undo()
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == failed


def test_a_failed_audit_takes_precedence_over_the_sandwich(csv_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "audit_report", _failed_audit)
    monkeypatch.setattr(cli, "lower_bound_monte_carlo", lambda inst, num_samples, seed, **_:
                        OracleResult(lower_bound=1e9, best_u=None, samples_used=1,
                                     screened_feasible=0, pruned=0, failed=0, seed=seed))
    rc = cli.main(["compute", "--input", csv_path, "--samples", "1"])
    assert rc == cli.EXIT_AUDIT
    err = capsys.readouterr().err
    assert "case_N: forged failure" in err
    assert "sampled lower bound exceeds the certified upper bound" in err
