"""Matrix loading and report serialization.

Input formats are a deliberately small set: delimited text (CSV) and the
Matrix Market exchange format, real or integer entries only.  Matrix Market
files are read by ``scipy.io.mminfo`` and ``scipy.io.mmread`` (so a gzip or
bzip2 file is read as well); scipy's errors become this module's typed ones.
Parse errors carry line (and, for CSV, column) positions; dimension
mismatches raise a dedicated error so callers can distinguish malformed
files from ragged data.

Serialized reports come in two flavors: the full payload, which includes
wall-clock timings, and a canonical form with the timings left out, which
is byte-identical across repeated runs with the same inputs and seed.
"""

from __future__ import annotations

import csv
import dataclasses
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

# Relative slack of the sandwich check: the lower bound may exceed the total
# by this much times 1 + total.
SANDWICH_RTOL = 1e-6


class ParseError(HoffboundError):
    """Input file could not be parsed."""


class DimensionError(ParseError):
    """Parsed data has inconsistent or unusable dimensions."""


class UnsupportedFormat(ParseError):
    """The file is recognized but uses an unsupported variant."""


_MTX_BANNER = b"%%MatrixMarket"

# scipy's Matrix Market errors that mean the body does not fit the size line
_MTX_SIZE_ERRORS = (
    ("index out of bounds", "index out of range"),
    ("Truncated file", "fewer entries than the size line declares"),
    ("file too long", "more entries than the size line declares"),
)


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
                with path.open("rb") as handle:
                    head = handle.read(len(_MTX_BANNER))
            except OSError as exc:
                raise ParseError(f"{path}: {exc}") from exc
            fmt = "mtx" if head == _MTX_BANNER else "csv"
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
        try:
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
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not a text file ({exc.reason})") from None
    if not rows:
        raise ParseError(f"{path}: no data rows found")
    return np.asarray(rows, dtype=float)


def _load_mtx(path: Path) -> np.ndarray:
    # imported here: scipy.io adds ~20 ms to `import hoffbound`, and only
    # file loading needs it
    import scipy.io

    try:
        m, n, _, _, field, symmetry = scipy.io.mminfo(path)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: bad MatrixMarket header: {exc}") from None
    if field not in ("real", "integer"):
        raise UnsupportedFormat(f"{path}: unsupported field type {field!r}")
    # mmread kills the process (SIGFPE) on an array file with a zero dimension
    if m < 1 or n < 1:
        raise DimensionError(f"{path}: dimensions must be positive, got {m}x{n}")
    if symmetry != "general" and m != n:
        raise DimensionError(f"{path}: {symmetry} matrices must be square, got {m}x{n}")
    try:
        A = scipy.io.mmread(path)
    except (ValueError, OverflowError) as exc:
        reason = next((r for k, r in _MTX_SIZE_ERRORS if k in str(exc)), None)
        if reason is not None:
            raise DimensionError(f"{path}: {reason} ({exc})") from None
        raise ParseError(f"{path}: {exc}") from None
    return np.asarray(A.toarray() if hasattr(A, "toarray") else A, dtype=float)


def save_matrix_csv(path: str | Path, A: np.ndarray) -> None:
    """Write a matrix as CSV with full round-trip precision."""
    A = np.asarray(A, dtype=float)
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        for row in A:
            writer.writerow([repr(float(v)) for v in row])


def report_to_dict(
    report: BoundReport,
    oracle: OracleResult | None = None,
    sandwich_rtol: float = SANDWICH_RTOL,
) -> dict[str, Any]:
    """JSON-ready payload for a bound report and optional oracle result.

    The partition, the bound components and the oracle result are serialized
    field by field from their dataclasses, without the fields marked
    ``metadata={"json": False}``: the partition's ``block`` and ``A_N``,
    which the audit rebuilds from the instance, and its ``solution``, whose
    point the bound built from it stores.  Every witness a bound rests on is
    serialized: ``x_hat``, ``y_hat``, ``x_bar``, ``y_bar`` with ``sigma``
    and ``b``, the stitch's ``w_bar`` in null(A_B) with
    ``D A_N w_bar >= 1``, and the decomposition's ``w`` in null(A_B).
    When an oracle result is attached, the sandwich block holds one verdict,
    ``ok = oracle.lower_bound <= total + sandwich_rtol (1 + total)``, with
    ``total = bounds.total``.  ``sandwich_rtol`` only ever receives its
    default ``SANDWICH_RTOL``; it stays because ``perfbench/run.py`` passes it.
    """
    sandwich = None if oracle is None else {
        "ok": oracle.lower_bound <= report.total + sandwich_rtol * (1.0 + report.total)}
    return _jsonable({
        "version": REPORT_VERSION,
        "branch": report.branch,
        "partition": report.partition,
        "bounds": {
            "case_N": report.case_n,
            "case_B": report.case_b,
            "stitch": report.stitch,
            "decomposition": report.decomposition,
            "total": report.total,
        },
        "oracle": oracle,
        "sandwich": sandwich,
        "diagnostics": report.diagnostics,
    })


# the types _jsonable returns as they are; most leaves of a report are floats
_PLAIN = (bool, int, float, str, type(None))


def _jsonable(obj: Any) -> Any:
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if isinstance(obj, np.ndarray):
        return obj.ravel().tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if all(type(v) is int for v in obj):
            return list(obj)
        return [_jsonable(v) for v in obj]
    if hasattr(kind, "__dataclass_fields__"):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.metadata.get("json", True)
        }
    # numpy scalars, and subclasses of the plain types; bool before int,
    # since bool is an int subclass
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def canonical_report_json(payload: dict[str, Any]) -> str:
    """Deterministic serialization: ``diagnostics["timings"]`` out, keys sorted.

    Floats go through Python's shortest round-trip repr, so two payloads
    built from bit-identical numbers serialize to identical bytes.
    """
    diagnostics = {k: v for k, v in payload["diagnostics"].items() if k != "timings"}
    payload = {**payload, "diagnostics": diagnostics}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
