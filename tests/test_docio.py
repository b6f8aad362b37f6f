"""Instance documents: serialization round-trips and field-path errors."""

import json

import numpy as np
import pytest

import kgframes as kg
from kgframes.docio import build_certificate, parse_certificate
from kgframes.generators import draw_spec, generate
from helpers import pinned_example


def _document_text(seed=17):
    inst = generate(draw_spec("generic", seed, basis_compatible=True))
    doc = kg.build_document(
        inst.shape, inst.frame.domain_rank, inst.frame, {"reference": inst.k_op}
    )
    return inst, kg.document_to_json(doc)


def test_round_trip_is_bitwise():
    inst, text = _document_text()
    parsed = kg.document_from_json(text)
    assert parsed.shape.sizes == inst.shape.sizes
    assert parsed.module_rank == inst.frame.domain_rank
    assert parsed.frame.codomain_ranks == inst.frame.codomain_ranks
    for mine, theirs in zip(inst.frame.members, parsed.frame.members):
        for a, b in zip(mine.blocks, theirs.blocks):
            assert np.array_equal(a, b)
    for a, b in zip(inst.k_op.blocks, parsed.operators["reference"].blocks):
        assert np.array_equal(a, b)


def test_a_cyclic_tree_still_raises():
    tree = {"version": "1"}
    tree["self"] = tree
    with pytest.raises(RecursionError):
        kg.document_to_json(tree)


def test_serialization_is_deterministic():
    _, first = _document_text()
    _, second = _document_text()
    assert first == second
    assert first.endswith("\n")


def test_document_version_is_checked():
    _, text = _document_text()
    payload = json.loads(text)
    payload["version"] = "2"
    with pytest.raises(kg.DocumentError, match=r"^\$\.version"):
        kg.parse_document(payload)


def test_pinned_example_documents_cleanly():
    shape, frame, k_op = pinned_example()
    doc = kg.build_document(shape, 2, frame, {"reference": k_op})
    parsed = kg.document_from_json(kg.document_to_json(doc))
    report = kg.is_kg_frame(parsed.frame, parsed.operators["reference"])
    assert report.lower_c == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda p: p["algebra"].update(blocks=[]), r"\$\.algebra\.blocks"),
        (lambda p: p["algebra"].update(blocks=[2, -1]), r"\$\.algebra\.blocks\[1\]"),
        (lambda p: p.update(module_rank=0), r"\$\.module_rank"),
        (lambda p: p.update(module_rank="three"), r"\$\.module_rank"),
        (lambda p: p.update(frame=[]), r"\$\.frame"),
        (lambda p: p.pop("algebra"), r"\$\.algebra"),
        (
            lambda p: p["frame"][0].update(codomain_rank=0),
            r"\$\.frame\[0\]\.codomain_rank",
        ),
        (
            lambda p: p["operators"]["reference"].update(domain_rank=-2),
            r"\$\.operators\.reference\.domain_rank",
        ),
    ],
)
def test_field_errors_carry_their_path(mutate, path):
    _, text = _document_text()
    payload = json.loads(text)
    mutate(payload)
    with pytest.raises(kg.DocumentError, match=rf"^{path}"):
        kg.parse_document(payload)


def test_coefficient_errors_point_into_the_nested_payload():
    _, text = _document_text()
    payload = json.loads(text)
    payload["frame"][0]["coeffs"][0][0][0] = "not-a-matrix-row-list"
    with pytest.raises(kg.DocumentError, match=r"^\$\.frame\[0\]\.coeffs\[0\]\[0\]\[0\]"):
        kg.parse_document(payload)


def test_non_finite_and_boolean_numbers_are_rejected():
    _, text = _document_text()
    payload = json.loads(text)
    pair = payload["frame"][0]["coeffs"][0][0][0][0][0]
    pair[0] = float("inf")
    with pytest.raises(kg.DocumentError, match=r"coeffs"):
        kg.parse_document(payload)

    payload = json.loads(text)
    pair = payload["frame"][0]["coeffs"][0][0][0][0][0]
    pair[0] = True
    with pytest.raises(kg.DocumentError, match=r"coeffs"):
        kg.parse_document(payload)


def test_scalar_entries_must_be_pairs():
    _, text = _document_text()
    payload = json.loads(text)
    payload["frame"][0]["coeffs"][0][0][0][0][0] = [1.0, 2.0, 3.0]
    with pytest.raises(kg.DocumentError, match=r"coeffs"):
        kg.parse_document(payload)


def test_invalid_json_is_a_document_error():
    with pytest.raises(kg.DocumentError, match=r"^\$: not valid JSON"):
        kg.document_from_json("{nope")
    with pytest.raises(kg.DocumentError):
        kg.parse_document(["not", "a", "mapping"])


def test_documents_may_hold_rectangular_operators():
    inst, _ = _document_text()
    rect = inst.frame.members[0]
    doc = kg.build_document(
        inst.shape, inst.frame.domain_rank, inst.frame, {"slice": rect}
    )
    parsed = kg.document_from_json(kg.document_to_json(doc))
    assert parsed.operators["slice"].codomain_rank == rect.codomain_rank
    assert parsed.operators["slice"].domain_rank == rect.domain_rank


def test_build_document_orders_operators_by_name():
    inst, _ = _document_text()
    doc = kg.build_document(
        inst.shape,
        inst.frame.domain_rank,
        inst.frame,
        {"zeta": inst.k_op, "alpha": inst.k_op},
    )
    assert list(doc["operators"].keys()) == ["alpha", "zeta"]


def _last_scalar_path(parsed):
    """JSON path of the last member's last coefficient, last block, last entry."""
    last = len(parsed.frame.members) - 1
    member = parsed.frame.members[last]
    n = parsed.shape.sizes[-1]
    d, c = member.domain_rank - 1, member.codomain_rank - 1
    k = parsed.shape.block_count - 1
    return (last, d, c, k, n - 1), (
        rf"\$\.frame\[{last}\]\.coeffs\[{d}\]\[{c}\]\[{k}\]\[{n - 1}\]\[{n - 1}\]"
    )


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "expected a real number, got bool"),
        ("1.5", "expected a real number, got str"),
        (None, "expected a real number, got NoneType"),
        (float("nan"), "expected a finite number"),
        (float("inf"), "expected a finite number"),
        (-float("inf"), "expected a finite number"),
        (10**400, "expected a finite number"),
    ],
    ids=["bool", "string", "null", "nan", "inf", "-inf", "huge-int"],
)
def test_a_bad_last_scalar_is_named_by_its_path(value, message):
    _, text = _document_text()
    (m, i, j, k, r), path = _last_scalar_path(kg.document_from_json(text))
    payload = json.loads(text)
    payload["frame"][m]["coeffs"][i][j][k][r][r][1] = value
    # json.dumps writes nan and the infinities as the literals NaN, Infinity
    bad = json.dumps(payload)
    with pytest.raises(kg.DocumentError, match=rf"^{path}\[1\]: {message}$"):
        kg.document_from_json(bad)


@pytest.mark.parametrize(
    "mutate, suffix, message",
    [
        (lambda mat, r: mat[r].pop(), "", "expected {n} entries"),
        (lambda mat, r: mat[r][r].append(0.0), r"\[{r}\]", r"expected a \[real, imag\] pair"),
    ],
    ids=["short-row", "long-pair"],
)
def test_a_ragged_last_block_is_named_by_its_path(mutate, suffix, message):
    _, text = _document_text()
    parsed = kg.document_from_json(text)
    (m, i, j, k, r), path = _last_scalar_path(parsed)
    payload = json.loads(text)
    mutate(payload["frame"][m]["coeffs"][i][j][k], r)
    row_path = path[: path.rindex(r"\[")]
    want = rf"^{row_path}{suffix.format(r=r)}: {message.format(n=r + 1)}$"
    with pytest.raises(kg.DocumentError, match=want):
        kg.document_from_json(json.dumps(payload))


def test_integer_entries_are_accepted_and_negative_zero_survives():
    inst, text = _document_text()
    payload = json.loads(text)
    (m, i, j, k, r), _ = _last_scalar_path(kg.document_from_json(text))
    payload["frame"][m]["coeffs"][i][j][k][r][r] = [3, -0.0]
    parsed = kg.document_from_json(json.dumps(payload))
    n = parsed.shape.sizes[k]
    entry = parsed.frame.members[m].blocks[k][i * n + r, j * n + r]
    assert entry.real == 3.0 and entry.imag == 0.0
    assert np.signbit(entry.imag)

    again = kg.document_from_json(
        kg.document_to_json(
            kg.build_document(parsed.shape, parsed.module_rank, parsed.frame)
        )
    )
    for a, b in zip(parsed.frame.members[m].blocks, again.frame.members[m].blocks):
        assert a.tobytes() == b.tobytes()


def test_valid_documents_never_walk_their_entries(monkeypatch):
    from kgframes import docio

    def walk(*args):
        raise AssertionError("per-entry walk ran on a valid document")

    monkeypatch.setattr(docio, "_locate_defect", walk)
    _, text = _document_text()
    kg.document_from_json(text)


def _blocks(parsed):
    members = [m.blocks for m in parsed.frame.members]
    return members + [op.blocks for _, op in sorted(parsed.operators.items())]


@pytest.mark.parametrize("kind", ["generic", "rank_deficient_K", "tight"])
def test_one_line_layout_holds_the_indented_value(kind):
    inst = generate(draw_spec(kind, 23, basis_compatible=True))
    doc = kg.build_document(
        inst.shape, inst.frame.domain_rank, inst.frame, {"reference": inst.k_op}
    )
    text = kg.document_to_json(doc)
    indented = json.dumps(doc, sort_keys=True, indent=2)
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == json.loads(indented)
    for new, old in zip(
        _blocks(kg.document_from_json(text)), _blocks(kg.document_from_json(indented))
    ):
        for a, b in zip(new, old):
            assert a.tobytes() == b.tobytes()


def _pinned_certificate():
    shape, frame, k_op = pinned_example()
    instance = kg.document_from_json(
        kg.document_to_json(kg.build_document(shape, 2, frame, {"reference": k_op}))
    )
    result = kg.canonical_k_dual(instance.frame, k_op)
    payload = build_certificate(
        instance, "reference", result.frame, result.certificate, 1e-8
    )
    return result, payload


def test_certificates_read_the_same_in_both_layouts():
    result, payload = _pinned_certificate()
    text = kg.document_to_json(payload)
    indented = json.dumps(payload, sort_keys=True, indent=2)
    assert json.loads(text) == json.loads(indented)
    new, old = parse_certificate(text), parse_certificate(indented)
    assert new.reference == old.reference == "reference"
    assert new.residual == old.residual == result.certificate.residual
    assert new.tol_eq == old.tol_eq == 1e-8
    assert new.is_dual is old.is_dual is True
    for a, b in zip(new.dual_frame.members, old.dual_frame.members):
        for x, y in zip(a.blocks, b.blocks):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tol_eq", None, "expected a real number"),
        ("tol_eq", "1e-8", "expected a real number"),
        ("tol_eq", True, "expected a real number"),
        ("tol_eq", 0, "expected a positive number"),
        ("tol_eq", -1e-8, "expected a positive number"),
        ("tol_eq", float("inf"), "expected a finite number"),
        ("is_dual", None, "expected true or false"),
        ("is_dual", 1, "expected true or false"),
        ("is_dual", "true", "expected true or false"),
    ],
    ids=[
        "tol_eq-missing",
        "tol_eq-string",
        "tol_eq-bool",
        "tol_eq-zero",
        "tol_eq-negative",
        "tol_eq-inf",
        "is_dual-missing",
        "is_dual-int",
        "is_dual-string",
    ],
)
def test_certificate_record_errors_carry_their_path(field, value, message):
    _, payload = _pinned_certificate()
    if value is None:
        del payload["certificate"][field]
    else:
        payload["certificate"][field] = value
    with pytest.raises(kg.DocumentError, match=rf"^\$\.certificate\.{field}: {message}"):
        parse_certificate(json.dumps(payload))
