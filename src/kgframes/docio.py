"""JSON documents for instances: algebra shape, frame members, operators.

Coefficients are stored exactly: every complex scalar is a [real, imag]
pair, every algebra element is its list of row-major block matrices, and
every operator is the full domain-by-codomain grid of its coefficients.
Realizations are never serialized; they are rebuilt from coefficients on
parse, so a document round-trips bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .algebra import AlgebraElement, AlgebraShape
from .errors import DocumentError
from .gframes import GFrame
from .operators import ModuleOperator

DOCUMENT_VERSION = "1"


# -- low-level payload helpers --------------------------------------------


def _fail(path: str, message: str) -> None:
    raise DocumentError(f"{path}: {message}")


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        _fail(path, message)


def _as_real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a real number, got {type(value).__name__}")
    value = float(value)
    if not np.isfinite(value):
        _fail(path, "expected a finite number")
    return value


def _scalar_from(payload, path: str) -> complex:
    _require(
        isinstance(payload, (list, tuple)) and len(payload) == 2,
        path,
        "expected a [real, imag] pair",
    )
    return complex(_as_real(payload[0], f"{path}[0]"), _as_real(payload[1], f"{path}[1]"))


def _scalar_to(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _matrix_from(payload, n: int, path: str) -> np.ndarray:
    _require(
        isinstance(payload, (list, tuple)) and len(payload) == n,
        path,
        f"expected {n} rows",
    )
    out = np.zeros((n, n), dtype=complex)
    for r, row in enumerate(payload):
        _require(
            isinstance(row, (list, tuple)) and len(row) == n,
            f"{path}[{r}]",
            f"expected {n} entries",
        )
        for c, entry in enumerate(row):
            out[r, c] = _scalar_from(entry, f"{path}[{r}][{c}]")
    return out


def _matrix_to(mat: np.ndarray) -> list[list[list[float]]]:
    return [[_scalar_to(complex(v)) for v in row] for row in mat]


def element_to_payload(elem: AlgebraElement) -> list:
    return [_matrix_to(blk) for blk in elem.blocks]


def element_from_payload(shape: AlgebraShape, payload, path: str) -> AlgebraElement:
    _require(
        isinstance(payload, (list, tuple)) and len(payload) == shape.block_count,
        path,
        f"expected {shape.block_count} blocks",
    )
    blocks = [
        _matrix_from(blk, n, f"{path}[{k}]")
        for k, (n, blk) in enumerate(zip(shape, payload))
    ]
    return AlgebraElement(shape, blocks)


def operator_to_payload(op: ModuleOperator) -> dict:
    return {
        "domain_rank": op.domain_rank,
        "codomain_rank": op.codomain_rank,
        "coeffs": [
            [element_to_payload(op.coeff(i, j)) for j in range(op.codomain_rank)]
            for i in range(op.domain_rank)
        ],
    }


def operator_from_payload(shape: AlgebraShape, payload, path: str) -> ModuleOperator:
    _require(isinstance(payload, dict), path, "expected an object")
    for key in ("domain_rank", "codomain_rank", "coeffs"):
        _require(key in payload, path, f"missing field {key!r}")
    d = payload["domain_rank"]
    c = payload["codomain_rank"]
    _require(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1,
        f"{path}.domain_rank",
        "expected a positive integer",
    )
    _require(
        isinstance(c, int) and not isinstance(c, bool) and c >= 1,
        f"{path}.codomain_rank",
        "expected a positive integer",
    )
    coeffs_payload = payload["coeffs"]
    _require(
        isinstance(coeffs_payload, (list, tuple)) and len(coeffs_payload) == d,
        f"{path}.coeffs",
        f"expected {d} coefficient rows",
    )
    coeffs: list[list[AlgebraElement]] = []
    for i, row in enumerate(coeffs_payload):
        _require(
            isinstance(row, (list, tuple)) and len(row) == c,
            f"{path}.coeffs[{i}]",
            f"expected {c} coefficients",
        )
        coeffs.append(
            [
                element_from_payload(shape, entry, f"{path}.coeffs[{i}][{j}]")
                for j, entry in enumerate(row)
            ]
        )
    return ModuleOperator.from_coeffs(coeffs)


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
        "frame": [
            {
                "codomain_rank": mem.codomain_rank,
                "coeffs": operator_to_payload(mem)["coeffs"],
            }
            for mem in frame.members
        ],
        "operators": {
            name: operator_to_payload(op)
            for name, op in sorted((operators or {}).items())
        },
    }
    return doc


def parse_document(payload) -> InstanceDocument:
    _require(isinstance(payload, dict), "$", "expected a JSON object")
    version = payload.get("version")
    _require(
        version == DOCUMENT_VERSION,
        "$.version",
        f"unsupported version {version!r}; this tool reads {DOCUMENT_VERSION!r}",
    )
    algebra = payload.get("algebra")
    _require(isinstance(algebra, dict), "$.algebra", "expected an object")
    sizes = algebra.get("blocks")
    _require(
        isinstance(sizes, (list, tuple)) and len(sizes) >= 1,
        "$.algebra.blocks",
        "expected a non-empty list of block sizes",
    )
    for k, n in enumerate(sizes):
        _require(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1,
            f"$.algebra.blocks[{k}]",
            "expected a positive integer",
        )
    shape = AlgebraShape(tuple(int(n) for n in sizes))
    rank = payload.get("module_rank")
    _require(
        isinstance(rank, int) and not isinstance(rank, bool) and rank >= 1,
        "$.module_rank",
        "expected a positive integer",
    )
    frame_payload = payload.get("frame")
    _require(
        isinstance(frame_payload, (list, tuple)) and len(frame_payload) >= 1,
        "$.frame",
        "expected a non-empty list of members",
    )
    members = []
    for i, entry in enumerate(frame_payload):
        path = f"$.frame[{i}]"
        _require(isinstance(entry, dict), path, "expected an object")
        _require("codomain_rank" in entry, path, "missing field 'codomain_rank'")
        _require("coeffs" in entry, path, "missing field 'coeffs'")
        op = operator_from_payload(
            shape,
            {
                "domain_rank": rank,
                "codomain_rank": entry["codomain_rank"],
                "coeffs": entry["coeffs"],
            },
            path,
        )
        members.append(op)
    frame = GFrame(members)
    operators: dict[str, ModuleOperator] = {}
    ops_payload = payload.get("operators", {})
    _require(isinstance(ops_payload, dict), "$.operators", "expected an object")
    for name, entry in ops_payload.items():
        op = operator_from_payload(shape, entry, f"$.operators.{name}")
        operators[name] = op
    return InstanceDocument(
        shape=shape, module_rank=int(rank), frame=frame, operators=operators
    )


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def document_from_json(text: str) -> InstanceDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"$: not valid JSON ({exc.msg} at line {exc.lineno})")
    return parse_document(payload)
