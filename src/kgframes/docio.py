"""JSON documents for instances and dual certificates.

Coefficients are stored exactly: every complex scalar is a [real, imag]
pair, every algebra element is its list of row-major block matrices, and
every operator is the full domain-by-codomain grid of its coefficients.
Realizations are never serialized; they are rebuilt from coefficients on
parse, so a document round-trips bit for bit.

Each block of an operator's grid is converted as one numpy array, both
ways.  A grid holds lists (or tuples) and numbers of type exactly int or
float, which is what `json.loads` produces; anything else, and any
non-finite number, is an error naming the JSON path of the first bad entry.

A document is written as one deterministic line with sorted keys and no
spaces; `python3 -m json.tool` pretty-prints it.  Documents written in the
older indented layout read the same, since only whitespace differs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

import numpy as np

from .algebra import AlgebraShape
from .errors import DocumentError
from .gframes import GFrame
from .operators import ModuleOperator

DOCUMENT_VERSION = "1"
CERTIFICATE_KIND = "dual-certificate"

_SEQUENCES = (list, tuple)
_NUMBERS = (int, float)
_GRID_TYPES = frozenset(_SEQUENCES + _NUMBERS)


# -- low-level payload helpers --------------------------------------------


def _fail(path: str, message: str) -> None:
    raise DocumentError(f"{path}: {message}")


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        _fail(path, message)


def _is_sequence(payload, length: int) -> bool:
    return type(payload) in _SEQUENCES and len(payload) == length


def _check_real(value, path: str) -> None:
    if type(value) not in _NUMBERS:
        _fail(path, f"expected a real number, got {type(value).__name__}")
    try:
        finite = math.isfinite(float(value))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        _fail(path, "expected a finite number")


def _check_positive_int(value, path: str) -> None:
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= 1,
        path,
        "expected a positive integer",
    )


def _check_matrix(payload, n: int, path: str) -> None:
    _require(_is_sequence(payload, n), path, f"expected {n} rows")
    for r, row in enumerate(payload):
        _require(_is_sequence(row, n), f"{path}[{r}]", f"expected {n} entries")
        for c, entry in enumerate(row):
            where = f"{path}[{r}][{c}]"
            _require(_is_sequence(entry, 2), where, "expected a [real, imag] pair")
            _check_real(entry[0], f"{where}[0]")
            _check_real(entry[1], f"{where}[1]")


def _locate_defect(shape: AlgebraShape, coeffs, c: int, path: str) -> None:
    """Raise the error for the first malformed entry of a coefficient grid.

    Runs only after the array conversion rejected the grid, so it must find
    a defect; the entries are visited in document order.
    """
    for i, row in enumerate(coeffs):
        _require(_is_sequence(row, c), f"{path}[{i}]", f"expected {c} coefficients")
        for j, entry in enumerate(row):
            where = f"{path}[{i}][{j}]"
            _require(
                _is_sequence(entry, shape.block_count),
                where,
                f"expected {shape.block_count} blocks",
            )
            for k, n in enumerate(shape):
                _check_matrix(entry[k], n, f"{where}[{k}]")
    raise RuntimeError(f"{path}: coefficient grid rejected, but no entry is malformed")


def _realization(grid, n: int, d: int, c: int) -> np.ndarray | None:
    """Realization block (d n, c n) from a d x c grid of n x n pair matrices.

    None if the grid is ragged, holds anything but lists, tuples, ints and
    floats, or holds a non-finite number.  The caller has checked the d x c
    outer levels.
    """
    try:
        mats = list(chain.from_iterable(grid))
        rows = list(chain.from_iterable(mats))
        pairs = list(chain.from_iterable(rows))
        numbers = list(chain.from_iterable(pairs))
        kinds = set(map(type, chain(mats, rows, pairs, numbers)))
        square = {n} == set(map(len, mats)) == set(map(len, rows))
        if not kinds <= _GRID_TYPES or not square or set(map(len, pairs)) != {2}:
            return None
        arr = np.array(numbers, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != (d * c * n * n * 2,) or not np.isfinite(arr).all():
        return None
    # a float64 [re, im] pair has the memory layout of one complex128
    entries = arr.view(complex).reshape(d, c, n, n)
    return entries.transpose(0, 2, 1, 3).reshape(d * n, c * n)


def _realizations(shape: AlgebraShape, coeffs, d: int, c: int) -> list | None:
    """One realization block per algebra block, or None if the grid is malformed."""
    if not all(_is_sequence(row, c) for row in coeffs):
        return None
    if not all(
        _is_sequence(entry, shape.block_count) for entry in chain.from_iterable(coeffs)
    ):
        return None
    blocks = []
    for k, n in enumerate(shape):
        blk = _realization([[entry[k] for entry in row] for row in coeffs], n, d, c)
        if blk is None:
            return None
        blocks.append(blk)
    return blocks


def _grid(blk: np.ndarray, n: int, d: int, c: int) -> list:
    pairs = np.stack([blk.real, blk.imag], -1)
    return pairs.reshape(d, n, c, n, 2).transpose(0, 2, 1, 3, 4).tolist()


def operator_to_payload(op: ModuleOperator) -> dict:
    d, c = op.domain_rank, op.codomain_rank
    grids = [_grid(blk, n, d, c) for n, blk in zip(op.shape, op.blocks)]
    return {
        "domain_rank": d,
        "codomain_rank": c,
        "coeffs": [
            [[grid[i][j] for grid in grids] for j in range(c)] for i in range(d)
        ],
    }


def operator_from_payload(shape: AlgebraShape, payload, path: str) -> ModuleOperator:
    _require(isinstance(payload, dict), path, "expected an object")
    for key in ("domain_rank", "codomain_rank", "coeffs"):
        _require(key in payload, path, f"missing field {key!r}")
    d = payload["domain_rank"]
    c = payload["codomain_rank"]
    _check_positive_int(d, f"{path}.domain_rank")
    _check_positive_int(c, f"{path}.codomain_rank")
    coeffs = payload["coeffs"]
    _require(
        isinstance(coeffs, (list, tuple)) and len(coeffs) == d,
        f"{path}.coeffs",
        f"expected {d} coefficient rows",
    )
    blocks = _realizations(shape, coeffs, d, c)
    if blocks is None:
        _locate_defect(shape, coeffs, c, f"{path}.coeffs")
    return ModuleOperator(shape, d, c, blocks)


def _member_payload(op: ModuleOperator) -> dict:
    return {"codomain_rank": op.codomain_rank, "coeffs": operator_to_payload(op)["coeffs"]}


def _members_from(shape: AlgebraShape, rank: int, payload, path: str) -> GFrame:
    _require(
        isinstance(payload, (list, tuple)) and len(payload) >= 1,
        path,
        "expected a non-empty list of members",
    )
    members = []
    for i, entry in enumerate(payload):
        where = f"{path}[{i}]"
        _require(isinstance(entry, dict), where, "expected an object")
        _require("codomain_rank" in entry, where, "missing field 'codomain_rank'")
        _require("coeffs" in entry, where, "missing field 'coeffs'")
        op = operator_from_payload(
            shape,
            {
                "domain_rank": rank,
                "codomain_rank": entry["codomain_rank"],
                "coeffs": entry["coeffs"],
            },
            where,
        )
        members.append(op)
    return GFrame(members)


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"$: not valid JSON ({exc.msg} at line {exc.lineno})")


# -- whole documents --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InstanceDocument:
    """Parsed instance: module, frame members, named operators."""

    shape: AlgebraShape
    module_rank: int
    frame: GFrame
    operators: dict[str, ModuleOperator] = field(default_factory=dict)


def build_document(
    shape: AlgebraShape,
    module_rank: int,
    frame: GFrame,
    operators: Mapping[str, ModuleOperator] | None = None,
) -> dict:
    doc = {
        "version": DOCUMENT_VERSION,
        "algebra": {"blocks": [int(n) for n in shape]},
        "module_rank": int(module_rank),
        "frame": [_member_payload(mem) for mem in frame.members],
        "operators": {
            name: operator_to_payload(op)
            for name, op in sorted((operators or {}).items())
        },
    }
    return doc


def parse_document(payload) -> InstanceDocument:
    return _instance_from(payload, "$")


def _instance_from(payload, root: str) -> InstanceDocument:
    """Parse an instance document found at JSON path `root`."""
    _require(isinstance(payload, dict), root, "expected a JSON object")
    version = payload.get("version")
    _require(
        version == DOCUMENT_VERSION,
        f"{root}.version",
        f"unsupported version {version!r}; this tool reads {DOCUMENT_VERSION!r}",
    )
    algebra = payload.get("algebra")
    _require(isinstance(algebra, dict), f"{root}.algebra", "expected an object")
    sizes = algebra.get("blocks")
    _require(
        isinstance(sizes, (list, tuple)) and len(sizes) >= 1,
        f"{root}.algebra.blocks",
        "expected a non-empty list of block sizes",
    )
    for k, n in enumerate(sizes):
        _check_positive_int(n, f"{root}.algebra.blocks[{k}]")
    shape = AlgebraShape(tuple(int(n) for n in sizes))
    rank = payload.get("module_rank")
    _check_positive_int(rank, f"{root}.module_rank")
    frame = _members_from(shape, rank, payload.get("frame"), f"{root}.frame")
    operators: dict[str, ModuleOperator] = {}
    ops_payload = payload.get("operators", {})
    _require(isinstance(ops_payload, dict), f"{root}.operators", "expected an object")
    for name, entry in ops_payload.items():
        op = operator_from_payload(shape, entry, f"{root}.operators.{name}")
        operators[name] = op
    return InstanceDocument(
        shape=shape, module_rank=int(rank), frame=frame, operators=operators
    )


def document_to_json(doc: dict) -> str:
    # the tree was just built by `build_document` or `build_certificate`,
    # so it holds no cycle to look for
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False)
        + "\n"
    )


def document_from_json(text: str) -> InstanceDocument:
    return parse_document(_loads(text))


# -- dual certificates ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CertificateDocument:
    """Parsed dual certificate: the instance, its dual family, the record.

    `residual` is None when the certificate records no real number;
    `tol_eq` is the recorded tolerance and `is_dual` the recorded verdict.
    """

    instance: InstanceDocument
    reference: str
    dual_frame: GFrame
    residual: float | None
    tol_eq: float
    is_dual: bool


def build_certificate(
    instance: InstanceDocument,
    reference: str,
    dual_frame: GFrame,
    certificate,
    tol_eq: float,
) -> dict:
    """Certificate payload for a dual family of `instance`'s frame.

    `certificate` is the `DualCertificate` that verified the family.
    """
    return {
        "version": DOCUMENT_VERSION,
        "kind": CERTIFICATE_KIND,
        "instance": build_document(
            instance.shape, instance.module_rank, instance.frame, instance.operators
        ),
        "reference": reference,
        "dual_frame": [_member_payload(mem) for mem in dual_frame.members],
        "certificate": {
            "construction": certificate.construction,
            "residual": certificate.residual,
            "is_dual": certificate.is_dual,
            "tol_eq": tol_eq,
        },
    }


def parse_certificate(text: str) -> CertificateDocument:
    payload = _loads(text)
    _require(isinstance(payload, dict), "$", "expected a JSON object")
    _require(
        payload.get("kind") == CERTIFICATE_KIND,
        "$.kind",
        f"expected a {CERTIFICATE_KIND} document",
    )
    instance = _instance_from(payload.get("instance"), "$.instance")
    reference = payload.get("reference", "reference")
    _require(isinstance(reference, str), "$.reference", "expected a string")
    _require(
        reference in instance.operators,
        "$.reference",
        f"instance has no operator named {reference!r}",
    )
    dual_frame = _members_from(
        instance.shape, instance.module_rank, payload.get("dual_frame"), "$.dual_frame"
    )
    record = payload.get("certificate", {})
    _require(isinstance(record, dict), "$.certificate", "expected an object")
    residual = record.get("residual")
    if type(residual) in _NUMBERS:
        try:
            residual = float(residual)
        except OverflowError:  # an int beyond the float range
            residual = math.inf
    else:
        residual = None
    tol_eq = record.get("tol_eq")
    _check_real(tol_eq, "$.certificate.tol_eq")
    _require(tol_eq > 0, "$.certificate.tol_eq", "expected a positive number")
    is_dual = record.get("is_dual")
    _require(type(is_dual) is bool, "$.certificate.is_dual", "expected true or false")
    return CertificateDocument(
        instance=instance,
        reference=reference,
        dual_frame=dual_frame,
        residual=residual,
        tol_eq=float(tol_eq),
        is_dual=is_dual,
    )

