"""Matrix loading and report serialization.

Input formats are a deliberately small set: delimited text (CSV) and the
Matrix Market exchange format, real or integer entries only.  Parse errors
carry line (and, for CSV, column) positions; dimension mismatches raise a
dedicated error so callers can distinguish malformed files from ragged data.

Serialized reports come in two flavors: the full payload, which includes
wall-clock timings, and a canonical form with volatile keys stripped, which
is byte-identical across repeated runs with the same inputs and seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

import numpy as np

from .bounds import BoundReport
from .core import HoffboundError
from .oracle import OracleResult

__all__ = [
    "DimensionError",
    "ParseError",
    "UnsupportedFormat",
    "canonical_report_json",
    "load_matrix",
    "report_to_dict",
    "save_matrix_csv",
]

REPORT_VERSION = "1"
VOLATILE_KEYS = ("timings",)


class ParseError(HoffboundError):
    """Input file could not be parsed."""


class DimensionError(ParseError):
    """Parsed data has inconsistent or unusable dimensions."""


class UnsupportedFormat(ParseError):
    """The file is recognized but uses an unsupported variant."""


def load_matrix(path: str | Path, fmt: str = "auto") -> np.ndarray:
    """Load a dense matrix from ``path``.

    ``fmt`` may be ``"csv"``, ``"mtx"``, or ``"auto"``; auto detection goes
    by extension first and falls back to sniffing the header line.
    """
    path = Path(path)
    if fmt == "auto":
        suffix = path.suffix.lower()
        if suffix == ".csv":
            fmt = "csv"
        elif suffix in (".mtx", ".mm"):
            fmt = "mtx"
        else:
            try:
                head = path.open("r").readline()
            except OSError as exc:
                raise ParseError(f"{path}: {exc}") from exc
            fmt = "mtx" if head.startswith("%%MatrixMarket") else "csv"
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "mtx":
        return _load_mtx(path)
    raise ValueError(f"unknown format {fmt!r}")


def _load_csv(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    width: int | None = None
    try:
        handle = path.open("r", newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with handle:
        for lineno, record in enumerate(csv.reader(handle), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            if record[0].lstrip().startswith("#"):
                continue
            parsed = []
            for colno, cell in enumerate(record, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}, column {colno}: "
                        f"could not parse {cell.strip()!r} as a number"
                    ) from None
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise DimensionError(
                    f"{path}: line {lineno} has {len(parsed)} fields, "
                    f"expected {width}"
                )
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows found")
    return np.asarray(rows, dtype=float)


def _load_mtx(path: Path) -> np.ndarray:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError(f"{path}: missing %%MatrixMarket header")

    header = lines[0].split()
    if len(header) != 5 or header[1].lower() != "matrix":
        raise ParseError(f"{path}: malformed header {lines[0]!r}")
    layout, field, symmetry = (tok.lower() for tok in header[2:5])
    if layout not in ("array", "coordinate"):
        raise UnsupportedFormat(f"{path}: unsupported layout {layout!r}")
    if field not in ("real", "integer"):
        raise UnsupportedFormat(f"{path}: unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        raise UnsupportedFormat(f"{path}: unsupported symmetry {symmetry!r}")

    body: list[tuple[int, str]] = [
        (no, ln.strip())
        for no, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise ParseError(f"{path}: missing size line")

    size_no, size_line = body[0]
    size_tok = size_line.split()
    entries = body[1:]

    def parse_num(token: str, lineno: int) -> float:
        try:
            return float(token)
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: could not parse {token!r} as a number"
            ) from None

    if layout == "array":
        if len(size_tok) != 2:
            raise ParseError(f"{path}: line {size_no}: expected 'rows cols'")
        m, n = (int(t) for t in size_tok)
        if m < 1 or n < 1:
            raise DimensionError(f"{path}: dimensions must be positive, got {m}x{n}")
        values = [parse_num(tok, no) for no, ln in entries for tok in ln.split()]
        if symmetry == "general":
            expected = m * n
        else:
            if m != n:
                raise DimensionError(
                    f"{path}: {symmetry} matrices must be square, got {m}x{n}"
                )
            expected = m * (m + 1) // 2 if symmetry == "symmetric" else m * (m - 1) // 2
        if len(values) != expected:
            raise DimensionError(
                f"{path}: expected {expected} array values, found {len(values)}"
            )
        A = np.zeros((m, n))
        idx = 0
        if symmetry == "general":
            for j in range(n):
                for i in range(m):
                    A[i, j] = values[idx]
                    idx += 1
        elif symmetry == "symmetric":
            for j in range(n):
                for i in range(j, m):
                    A[i, j] = values[idx]
                    A[j, i] = values[idx]
                    idx += 1
        else:
            for j in range(n):
                for i in range(j + 1, m):
                    A[i, j] = values[idx]
                    A[j, i] = -values[idx]
                    idx += 1
        return A

    if len(size_tok) != 3:
        raise ParseError(f"{path}: line {size_no}: expected 'rows cols nnz'")
    m, n, nnz = (int(t) for t in size_tok)
    if m < 1 or n < 1:
        raise DimensionError(f"{path}: dimensions must be positive, got {m}x{n}")
    if len(entries) != nnz:
        raise DimensionError(
            f"{path}: header promises {nnz} entries, found {len(entries)}"
        )
    A = np.zeros((m, n))
    for no, ln in entries:
        tok = ln.split()
        if len(tok) != 3:
            raise ParseError(f"{path}: line {no}: expected 'i j value'")
        i, j = int(tok[0]) - 1, int(tok[1]) - 1
        if not (0 <= i < m and 0 <= j < n):
            raise DimensionError(
                f"{path}: line {no}: index ({tok[0]}, {tok[1]}) out of range "
                f"for a {m}x{n} matrix"
            )
        val = parse_num(tok[2], no)
        A[i, j] += val
        if symmetry != "general" and i != j:
            A[j, i] += val if symmetry == "symmetric" else -val
    return A


def save_matrix_csv(path: str | Path, A: np.ndarray) -> None:
    """Write a matrix as CSV with full round-trip precision."""
    A = np.asarray(A, dtype=float)
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        for row in A:
            writer.writerow([repr(float(v)) for v in row])


def _float_or_none(x: float | None) -> float | None:
    return None if x is None else float(x)


def _vector(v: np.ndarray | None) -> list[float] | None:
    return None if v is None else [float(x) for x in np.asarray(v).ravel()]


def report_to_dict(
    report: BoundReport,
    oracle: OracleResult | None = None,
    sandwich_rtol: float = 1e-6,
) -> dict[str, Any]:
    """JSON-ready payload for a bound report and optional oracle result.

    When an oracle result is attached, the sandwich block records whether
    the sampled lower bound stays below the certified total within the
    relative tolerance.
    """
    cert = report.partition
    partition = None
    if cert is not None:
        partition = {
            "B": list(cert.B),
            "N": list(cert.N),
            "t": float(cert.t),
            "x_hat": _vector(cert.x_hat),
            "y_hat": _vector(cert.y_hat),
            "min_slack_N": _float_or_none(cert.min_slack_N),
            "min_y_hat": _float_or_none(cert.min_y_hat),
            "residuals": _jsonable(cert.residuals),
        }

    bounds: dict[str, Any] = {
        "case_N": None,
        "case_B": None,
        "stitch": None,
        "total": float(report.total),
    }
    if report.case_n is not None:
        bounds["case_N"] = {
            "value": float(report.case_n.value),
            "x_bar": _vector(report.case_n.x_bar),
            "min_margin": float(report.case_n.min_margin),
        }
    if report.case_b is not None:
        bounds["case_B"] = {
            "value": float(report.case_b.value),
            "y_bar": _vector(report.case_b.y_bar),
            "sigma": _float_or_none(report.case_b.sigma),
        }
    if report.stitch is not None:
        bounds["stitch"] = {
            "value": float(report.stitch.value),
            "z_bar": _vector(report.stitch.z_bar),
            "min_margin": float(report.stitch.min_margin),
        }

    oracle_block = None
    sandwich = None
    if oracle is not None:
        oracle_block = {
            "lower_bound": float(oracle.lower_bound),
            "best_u": _vector(oracle.best_u),
            "samples_used": int(oracle.samples_used),
            "skipped": int(oracle.skipped),
            "seed": int(oracle.seed),
        }
        slack = report.total + sandwich_rtol * (1.0 + report.total)
        sandwich = {
            "ok": bool(oracle.lower_bound <= slack),
            "upper": float(report.total),
            "lower": float(oracle.lower_bound),
            "tolerance": float(slack - report.total),
        }

    return {
        "version": REPORT_VERSION,
        "branch": report.branch,
        "partition": partition,
        "bounds": bounds,
        "oracle": oracle_block,
        "sandwich": sandwich,
        "diagnostics": _jsonable(report.diagnostics),
    }


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.ravel()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _strip_volatile(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {
            k: _strip_volatile(v) for k, v in obj.items() if k not in VOLATILE_KEYS
        }
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def canonical_report_json(payload: dict[str, Any]) -> str:
    """Deterministic serialization: volatile keys out, keys sorted.

    Floats go through Python's shortest round-trip repr, so two payloads
    built from bit-identical numbers serialize to identical bytes.
    """
    return json.dumps(_strip_volatile(payload), sort_keys=True, separators=(",", ":"))
