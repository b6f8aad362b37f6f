"""Command-line interface: exit codes, certificates, report determinism."""

import json
import re

import pytest

import kgframes as kg
from kgframes.cli import main
from helpers import column_member, pinned_example, single_block_shape


@pytest.fixture()
def pinned_doc(tmp_path):
    shape, frame, k_op = pinned_example()
    doc = kg.build_document(shape, 2, frame, {"reference": k_op})
    path = tmp_path / "pinned.json"
    path.write_text(kg.document_to_json(doc))
    return path


@pytest.fixture()
def deficient_doc(tmp_path):
    shape = single_block_shape()
    frame = kg.GFrame([column_member(shape, 1, 0)])
    doc = kg.build_document(
        shape, 2, frame, {"reference": kg.ModuleOperator.identity(shape, 2)}
    )
    path = tmp_path / "deficient.json"
    path.write_text(kg.document_to_json(doc))
    return path


def test_check_reports_pinned_values(pinned_doc, capsys):
    assert main(["check", str(pinned_doc)]) == 0
    out = capsys.readouterr().out
    assert "lower 1 " in out and "upper 3" in out
    assert "optimal lower scale: 1.5" in out
    assert "complete: yes" in out


def test_check_fails_on_non_frame(deficient_doc, capsys):
    assert main(["check", str(deficient_doc)]) == 2
    out = capsys.readouterr().out
    assert "frame relative to 'reference': no" in out
    assert "counterexample witness" in out


def test_check_require_tight(pinned_doc, tmp_path, capsys):
    # the pinned example is not tight, so requiring tightness fails the check
    assert main(["check", str(pinned_doc), "--require-tight"]) == 2
    capsys.readouterr()
    # without a reference operator the request is an error, not a failure
    shape, frame, _ = pinned_example()
    bare = tmp_path / "bare.json"
    bare.write_text(kg.document_to_json(kg.build_document(shape, 2, frame)))
    assert main(["check", str(bare), "--require-tight"]) == 1


def test_check_without_reference_reports_frame_only(tmp_path, capsys):
    shape, frame, _ = pinned_example()
    bare = tmp_path / "bare.json"
    bare.write_text(kg.document_to_json(kg.build_document(shape, 2, frame)))
    assert main(["check", str(bare)]) == 0
    out = capsys.readouterr().out
    assert "frame: yes (no reference operator present)" in out

    # a family missing one coordinate direction is not a frame at all
    dead = kg.GFrame(
        [column_member(shape, 1.0, 0.0), column_member(shape, 2.0, 0.0)]
    )
    broken = tmp_path / "broken.json"
    broken.write_text(kg.document_to_json(kg.build_document(shape, 2, dead)))
    assert main(["check", str(broken)]) == 2
    out = capsys.readouterr().out
    assert "frame: no (no reference operator present)" in out


def test_dual_emits_a_rechekable_certificate(pinned_doc, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["dual", str(pinned_doc), "-o", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    assert payload["kind"] == "dual-certificate"
    assert payload["certificate"]["is_dual"] is True
    assert payload["certificate"]["residual"] <= 1e-12
    assert payload["reference"] == "reference"
    capsys.readouterr()

    assert main(["dual", str(cert_path), "--recheck"]) == 0
    out = capsys.readouterr().out
    assert "reproduced: yes" in out


def test_dual_refuses_out_of_range_reference(deficient_doc, capsys):
    assert main(["dual", str(deficient_doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused:")


def test_dual_refuses_a_family_failing_its_own_check(pinned_doc, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["dual", str(pinned_doc), "--tol-eq", "1e-30", "-o", str(cert_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused:")
    assert "residual" in captured.err and "tol_eq 1e-30" in captured.err
    assert not cert_path.exists()


def test_recheck_rejects_wrong_kind(pinned_doc, capsys):
    assert main(["dual", str(pinned_doc), "--recheck"]) == 1
    err = capsys.readouterr().err
    assert "dual-certificate" in err


@pytest.fixture()
def certificate(pinned_doc, tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert main(["dual", str(pinned_doc), "-o", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda p: p.update(certificate=[1]), r"\$\.certificate"),
        (lambda p: p["dual_frame"].__setitem__(0, "member"), r"\$\.dual_frame\[0\]"),
        (lambda p: p.update(reference=7), r"\$\.reference"),
        (lambda p: p["instance"].update(module_rank=0), r"\$\.instance\.module_rank"),
    ],
    ids=["certificate", "dual_frame", "reference", "instance"],
)
def test_recheck_names_a_malformed_certificate_field(certificate, mutate, path, capsys):
    payload = json.loads(certificate.read_text())
    mutate(payload)
    certificate.write_text(json.dumps(payload))
    assert main(["dual", str(certificate), "--recheck"]) == 1
    assert re.match(rf"^error: {path}: ", capsys.readouterr().err)


def test_recheck_reads_a_boolean_residual_as_missing(certificate, capsys):
    payload = json.loads(certificate.read_text())
    payload["certificate"]["residual"] = True
    certificate.write_text(json.dumps(payload))
    assert main(["dual", str(certificate), "--recheck"]) == 2
    out = capsys.readouterr().out
    assert "recorded residual: missing" in out
    assert "dual: yes  reproduced: no" in out


def test_recheck_refuses_a_certificate_recording_no_dual(certificate, capsys):
    payload = json.loads(certificate.read_text())
    payload["certificate"]["is_dual"] = False
    certificate.write_text(json.dumps(payload))
    assert main(["dual", str(certificate), "--recheck"]) == 2
    out = capsys.readouterr().out
    assert "recorded dual: no" in out
    assert "dual: yes  reproduced: yes" in out


def test_recheck_judges_at_the_recorded_tolerance(certificate, capsys):
    payload = json.loads(certificate.read_text())
    payload["certificate"]["tol_eq"] = 1e-30
    certificate.write_text(json.dumps(payload))
    assert main(["dual", str(certificate), "--recheck"]) == 2
    assert "dual: no  reproduced: yes" in capsys.readouterr().out
    # a tolerance given on the command line overrides the recorded one
    assert main(["dual", str(certificate), "--recheck", "--tol-eq", "1e-8"]) == 0
    assert "dual: yes  reproduced: yes" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag",
    [["-o", "out.json"], ["--reference", "reference"], ["--tol-rank", "1e-10"]],
    ids=["output", "reference", "tol_rank"],
)
def test_recheck_refuses_a_flag_it_would_ignore(
    certificate, flag, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["dual", str(certificate), "--recheck", *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --recheck takes no {flag[0]}: ")
    assert not (tmp_path / "out.json").exists()


def test_dual_flags_given_their_defaults_change_nothing(pinned_doc, certificate):
    explicit = certificate.with_name("explicit.json")
    argv = ["dual", str(pinned_doc), "-o", str(explicit)]
    assert main([*argv, "--reference", "reference", "--tol-rank", "1e-10"]) == 0
    assert explicit.read_bytes() == certificate.read_bytes()


def test_a_reused_parser_carries_nothing_between_commands(
    certificate, pinned_doc, capsys
):
    from kgframes import cli

    assert cli._parser() is cli._parser()
    assert main(["dual", str(pinned_doc), "--tol-eq", "1e-30"]) == 2
    capsys.readouterr()
    # the recheck judges at the recorded tolerance, not at the last one given
    assert main(["dual", str(certificate), "--recheck"]) == 0
    assert "at tol_eq 1e-08" in capsys.readouterr().out
    assert main(["check", str(pinned_doc), "--require-tight"]) == 2
    assert "residual:" in capsys.readouterr().out
    assert main(["check", str(pinned_doc)]) == 0
    assert "residual:" not in capsys.readouterr().out


def test_verify_is_deterministic(tmp_path, capsys):
    args = [
        "verify",
        "--trials",
        "2",
        "--seed",
        "3",
        "--theorems",
        "zero_overlap,sqrt_factor",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["-o", str(first)]) == 0
    assert main(args + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    err = capsys.readouterr().err
    assert "pass  zero_overlap: 2/2" in err
    assert "wall time:" in err
    payload = json.loads(first.read_text())
    assert payload["all_passed"] is True
    assert [c["id"] for c in payload["checks"]] == ["zero_overlap", "sqrt_factor"]


def test_verify_unknown_check_id(capsys):
    assert main(["verify", "--trials", "1", "--theorems", "bogus"]) == 1
    assert "unknown check id" in capsys.readouterr().err


def test_verify_caps_flag(tmp_path, capsys):
    out = tmp_path / "capped.json"
    code = main(
        [
            "verify",
            "--trials",
            "1",
            "--seed",
            "2",
            "--theorems",
            "completeness_span",
            "--max-dims",
            "2,3,4,5",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["caps"]["max_blocks"] == 2
    assert payload["caps"]["max_block_dim"] == 3
    capsys.readouterr()
    assert main(["verify", "--max-dims", "2,3", "--trials", "1"]) == 1
    assert "--max-dims" in capsys.readouterr().err


def test_tol_psd_is_a_verify_flag_only(pinned_doc, capsys):
    # check and dual decide no positivity, so they take no PSD tolerance
    for argv in (["check", str(pinned_doc)], ["dual", str(pinned_doc)]):
        with pytest.raises(SystemExit):
            main(argv + ["--tol-psd", "1e-6"])
    capsys.readouterr()
    argv = ["verify", "--trials", "1", "--theorems", "completeness_span"]
    assert main(argv + ["--tol-psd", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["tol_psd"] == 1e-6


BAD_TOLERANCES = ("nan", "0", "-1e-8", "inf")


def _refuses_bad_tolerances(argv, flag, capsys):
    """Each bad value exits 1 with one message, before any work is done."""
    for value in BAD_TOLERANCES:
        assert main([*argv, f"{flag}={value}"]) == 1, (argv, value)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be a finite positive number\n"


def test_tol_eq_must_be_finite_and_positive(pinned_doc, capsys):
    for command in ("check", "dual"):
        _refuses_bad_tolerances([command, str(pinned_doc)], "--tol-eq", capsys)
    _refuses_bad_tolerances(["verify", "--trials", "1"], "--tol-eq", capsys)


def test_tol_rank_must_be_finite_and_positive(pinned_doc, capsys):
    for command in ("check", "dual"):
        _refuses_bad_tolerances([command, str(pinned_doc)], "--tol-rank", capsys)
    _refuses_bad_tolerances(["verify", "--trials", "2"], "--tol-rank", capsys)


def test_tol_psd_must_be_finite_and_positive(capsys):
    _refuses_bad_tolerances(["verify", "--trials", "1"], "--tol-psd", capsys)


def test_verify_refuses_bad_caps_once(capsys):
    assert main(["verify", "--trials", "1", "--max-dims", "0,1,1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: all size caps must be at least 1\n"


def test_missing_file_is_an_error(capsys):
    assert main(["check", "/nonexistent/input.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_document_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
