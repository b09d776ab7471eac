"""Matrix file parsing, report payloads, canonical JSON."""

import bz2
import dataclasses
import gzip
import json

import jsonschema
import numpy as np
import pytest

from hoffbound import (
    DimensionError,
    OracleResult,
    ParseError,
    UnsupportedFormat,
    bound_h0,
    canonical_report_json,
    load_matrix,
    lower_bound_monte_carlo,
    report_to_dict,
    save_matrix_csv,
)
from hoffbound.io import _jsonable

from helpers import C4, instance, planted_mixed_matrix, report_schema


# --- CSV -------------------------------------------------------------------

def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((5, 3)) * np.array([1e-200, 1.0, 1e120])
    path = tmp_path / "m.csv"
    save_matrix_csv(path, A)
    assert np.array_equal(load_matrix(path), A)


def test_csv_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# header comment\n1,2\n\n# middle\n3,4\n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_ragged_rows_name_the_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DimensionError, match="line 2"):
        load_matrix(path)


def test_csv_bad_number_names_line_and_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,abc\n")
    with pytest.raises(ParseError, match="line 1, column 2"):
        load_matrix(path)


def test_csv_without_data_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# nothing here\n\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_matrix(path)


# --- Matrix Market -----------------------------------------------------------

def _write(tmp_path, text):
    path = tmp_path / "m.mtx"
    path.write_text(text)
    return path


def test_mtx_array_is_column_major(tmp_path):
    p = _write(tmp_path, "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    assert np.array_equal(load_matrix(p), [[1.0, 3.0], [2.0, 4.0]])


def test_mtx_coordinate_sums_duplicates(tmp_path):
    p = _write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                         "2 2 3\n1 1 1.5\n1 1 0.5\n2 2 -1\n")
    assert np.array_equal(load_matrix(p), [[2.0, 0.0], [0.0, -1.0]])


def test_mtx_symmetric_mirrors_entries(tmp_path):
    for text in (
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 3\n2 1 5\n",
        # array layout: the lower triangle, column by column
        "%%MatrixMarket matrix array real symmetric\n2 2\n3\n5\n0\n",
    ):
        assert np.array_equal(load_matrix(_write(tmp_path, text)), [[3.0, 5.0], [5.0, 0.0]])


def test_mtx_skew_symmetric(tmp_path):
    for text in (
        "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 7\n",
        # array layout: the strict lower triangle, column by column
        "%%MatrixMarket matrix array real skew-symmetric\n2 2\n7\n",
    ):
        assert np.array_equal(load_matrix(_write(tmp_path, text)), [[0.0, -7.0], [7.0, 0.0]])


def test_mtx_integer_field(tmp_path):
    p = _write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n"
                         "1 2 1\n1 2 9\n")
    assert np.array_equal(load_matrix(p), [[0.0, 9.0]])


@pytest.mark.parametrize("header", [
    "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n",
    "%%MatrixMarket matrix array complex general\n1 1\n1 0\n",
])
def test_mtx_unsupported_fields(tmp_path, header):
    with pytest.raises(UnsupportedFormat):
        load_matrix(_write(tmp_path, header))


def test_mtx_rejects_out_of_range_indices(tmp_path):
    p = _write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                         "2 2 1\n3 1 1.0\n")
    with pytest.raises(DimensionError, match="out of range"):
        load_matrix(p)


def test_mtx_rejects_truncated_array(tmp_path):
    p = _write(tmp_path, "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")
    with pytest.raises(DimensionError):
        load_matrix(p)


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 x\n",
    "%%MatrixMarket matrix array real general\n1 1\nx\n",
])
def test_mtx_bad_value_names_the_line(tmp_path, text):
    with pytest.raises(ParseError, match="[Ll]ine 3"):
        load_matrix(_write(tmp_path, text))


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix array real general\n0 2\n",
    "%%MatrixMarket matrix coordinate real general\n2 0 0\n",
    "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n1\n2\n3\n",
    "%%MatrixMarket matrix coordinate real skew-symmetric\n2 3 1\n1 3 5\n",
])
def test_mtx_rejects_unusable_shapes(tmp_path, text):
    with pytest.raises(DimensionError, match="2x3|0x2|2x0"):
        load_matrix(_write(tmp_path, text))


def test_mtx_rejects_missing_banner(tmp_path):
    with pytest.raises(ParseError, match="MatrixMarket header"):
        load_matrix(_write(tmp_path, "%%NotMarket stuff\n1 1\n1\n"))


# --- format detection ----------------------------------------------------------

def test_auto_detection_sniffs_contents(tmp_path):
    p1 = tmp_path / "a.txt"
    p1.write_text("%%MatrixMarket matrix array real general\n1 1\n42\n")
    assert load_matrix(p1).tolist() == [[42.0]]
    p2 = tmp_path / "b.txt"
    p2.write_text("1,2\n3,4\n")
    assert load_matrix(p2).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_auto_detection_rejects_binary_files(tmp_path):
    p = tmp_path / "m.mtx.bz2"
    with bz2.open(p, "wt") as handle:
        handle.write("%%MatrixMarket matrix array real general\n1 2\n3\n4\n")
    with pytest.raises(ParseError, match="not a text file"):
        load_matrix(p)
    assert load_matrix(p, fmt="mtx").tolist() == [[3.0, 4.0]]


def test_explicit_mtx_format_reads_gzip(tmp_path):
    p = tmp_path / "m.mtx.gz"
    with gzip.open(p, "wt") as handle:
        handle.write("%%MatrixMarket matrix array real general\n1 2\n3\n4\n")
    assert load_matrix(p, fmt="mtx").tolist() == [[3.0, 4.0]]


def test_explicit_format_overrides_extension(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("%%MatrixMarket matrix array real general\n1 1\n7\n")
    assert load_matrix(p, fmt="mtx").tolist() == [[7.0]]
    with pytest.raises(ValueError):
        load_matrix(p, fmt="bogus")


@pytest.mark.parametrize("name", ["missing", "."], ids=["missing", "directory"])
def test_auto_detection_of_an_unreadable_file_raises_parse_error(tmp_path, name):
    # neither has a known extension, so the header is sniffed and cannot be
    # read
    p = tmp_path / name
    with pytest.raises(ParseError, match=str(tmp_path)):
        load_matrix(p)


def test_parse_error_hierarchy():
    assert issubclass(DimensionError, ParseError)
    assert issubclass(UnsupportedFormat, ParseError)


# --- report payloads ---------------------------------------------------------------

def test_payload_shape_and_schema_for_each_branch():
    schema = report_schema()
    for A in (np.zeros((2, 2)), -np.eye(3), np.array([[1.0], [-1.0]]),
              np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])):
        inst = instance(A)
        rep = bound_h0(inst)
        orc = lower_bound_monte_carlo(inst, num_samples=4, seed=0)
        for payload in (report_to_dict(rep), report_to_dict(rep, orc)):
            jsonschema.validate(payload, schema)
            jsonschema.validate(json.loads(canonical_report_json(payload)), schema)
            assert payload["version"] == "1"
            assert set(payload) == {"version", "branch", "partition", "bounds",
                                    "oracle", "sandwich", "diagnostics"}


def test_canonical_payload_carries_the_partition_lp_work():
    # one-sided splits are proven before the LP, so take a planted mixed
    # split, whose LP takes interior-point steps
    rep = bound_h0(instance(planted_mixed_matrix(3, 30, 8)))
    part = json.loads(canonical_report_json(report_to_dict(rep)))["partition"]
    assert part["lp"]["iterations"] == rep.partition.lp["iterations"] > 0


def test_payload_without_oracle_has_null_sandwich():
    rep = bound_h0(instance(-np.eye(3)))
    payload = report_to_dict(rep)
    assert payload["oracle"] is None
    assert payload["sandwich"] is None


def test_sandwich_block_flags_violations():
    inst = instance(-np.eye(3))
    rep = bound_h0(inst)
    fake = OracleResult(lower_bound=rep.total + 1.0, best_u=None,
                        samples_used=1, screened_feasible=0, pruned=0,
                        failed=0, seed=0)
    payload = report_to_dict(rep, fake)
    assert payload["sandwich"]["ok"] is False
    honest = lower_bound_monte_carlo(inst, num_samples=4, seed=0)
    assert report_to_dict(rep, honest)["sandwich"]["ok"] is True


def test_schema_rejects_unknown_keys():
    rep = bound_h0(instance(-np.eye(3)))
    payload = report_to_dict(rep)
    payload["extra"] = 1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, report_schema())
    # a stale diagnostic, such as the partition LP's former feas_tol
    payload = report_to_dict(rep)
    payload["diagnostics"]["feas_tol"] = 1e-9
    with pytest.raises(jsonschema.ValidationError, match="feas_tol"):
        jsonschema.validate(payload, report_schema())
    # the leaves that restated a witness, another field or a constant: a
    # report in their old shape fails
    inst = instance(C4)
    rep = bound_h0(inst)
    oracle = lower_bound_monte_carlo(inst, num_samples=4, seed=0)
    jsonschema.validate(report_to_dict(rep, oracle), report_schema())
    residuals = dict.fromkeys(
        ["tight_rows_inf", "center_eq_inf", "slack_margin", "weight_margin"], 0.5)
    for parent, key, value in [
        (("diagnostics",), "opt_tol", 1e-8),
        (("partition",), "min_slack_N", 1.0),
        (("partition",), "min_y_hat", 0.5),
        (("partition",), "residuals", residuals),
        (("bounds", "case_N"), "min_margin", 1.0),
        (("bounds", "stitch"), "min_margin", 1.0),
        (("sandwich",), "upper", rep.total),
        (("sandwich",), "lower", oracle.lower_bound),
    ]:
        payload = report_to_dict(rep, oracle)
        node = payload
        for name in parent:
            node = node[name]
        node[key] = value
        with pytest.raises(jsonschema.ValidationError, match=key):
            jsonschema.validate(payload, report_schema())


# --- canonical JSON ------------------------------------------------------------------

def test_canonical_json_is_a_fixed_point():
    rep = bound_h0(instance(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])))
    js = canonical_report_json(report_to_dict(rep))
    assert js == json.dumps(json.loads(js), sort_keys=True, separators=(",", ":"))


def test_canonical_json_drops_timings():
    rep = bound_h0(instance(-np.eye(3)))
    assert "timings" in rep.diagnostics
    js = canonical_report_json(report_to_dict(rep))
    assert '"timings"' not in js


def test_canonical_json_is_bit_stable_across_recomputation():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])

    def run():
        inst = instance(A)
        rep = bound_h0(inst)
        orc = lower_bound_monte_carlo(inst, num_samples=8, seed=2,
                                      x_hat=rep.partition.x_hat)
        return canonical_report_json(report_to_dict(rep, orc))

    assert run() == run()


def test_canonical_json_round_trips_values():
    rep = bound_h0(instance(-np.eye(3)))
    payload = json.loads(canonical_report_json(report_to_dict(rep)))
    assert payload["bounds"]["total"] == rep.total


@dataclasses.dataclass(frozen=True)
class _Inner:
    value: np.float64
    hidden: np.ndarray = dataclasses.field(metadata={"json": False})


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    indices: tuple
    flags: dict


def test_jsonable_gives_plain_json_values_of_the_same_types():
    # numpy scalars and tuples of numpy ints take the isinstance chain, plain
    # values the exact-type fast path; either way every leaf is a plain type
    obj = {
        "float": np.float64(0.1),
        "int": np.int64(-3),
        "bool": np.bool_(True),
        "plain": (1.5, 2, False, None, "s"),
        "ints": (0, 4),
        "np_ints": (np.int64(1), np.int64(2)),
        "array": np.arange(4.0).reshape(2, 2),
        "nested": _Outer(
            inner=_Inner(value=np.float64(2.5), hidden=np.ones(3)),
            indices=(np.int64(7),),
            flags={1: np.bool_(False), (2, 3): [np.float64(1e-300)]},
        ),
    }
    expected = {
        "float": 0.1,
        "int": -3,
        "bool": True,
        "plain": [1.5, 2, False, None, "s"],
        "ints": [0, 4],
        "np_ints": [1, 2],
        "array": [0.0, 1.0, 2.0, 3.0],
        "nested": {
            "inner": {"value": 2.5},
            "indices": [7],
            "flags": {"1": False, "(2, 3)": [1e-300]},
        },
    }
    out = _jsonable(obj)
    assert out == expected

    def types(x):
        if isinstance(x, dict):
            return {k: types(v) for k, v in x.items()}
        if isinstance(x, list):
            return [types(v) for v in x]
        return type(x)

    assert types(out) == types(expected)
    assert json.dumps(out, sort_keys=True) == json.dumps(expected, sort_keys=True)

