"""Randomized verification suite: registry, determinism, failure records."""

import dataclasses
import json

import numpy as np
import pytest

import kgframes as kg

EXPECTED_CHECK_IDS = (
    "synthesis_bound",
    "psd_frame_criterion",
    "completeness_span",
    "g_operator_roundtrip",
    "range_inclusion_criterion",
    "coisometric_parseval",
    "dual_product_criterion",
    "canonical_dual_residual",
    "zero_overlap",
    "dual_combination",
    "operator_order_chain",
    "sqrt_factor",
    "commuting_transform",
    "isometry_transform",
    "tightness_scaling",
    "identity_resolution",
    "quotient_criterion",
    "quotient_transform_criterion",
    "dual_transport",
)


def test_registry_lists_every_check():
    assert kg.list_check_ids() == EXPECTED_CHECK_IDS


def test_run_check_is_deterministic():
    for check_id in ("canonical_dual_residual", "tightness_scaling", "zero_overlap"):
        cfg = kg.SuiteConfig(seed=9)
        first = kg.run_check(cfg, check_id, 3)
        second = kg.run_check(cfg, check_id, 3)
        assert first.ok and second.ok
        assert first.measured == second.measured
        assert first.specs == second.specs


def test_small_suite_passes_and_documents_itself():
    cfg = kg.SuiteConfig(trials=2, seed=5)
    result = kg.run_theorem_suite(cfg)
    assert result.all_passed
    assert result.audited_total == 0
    assert len(result.reports) == len(EXPECTED_CHECK_IDS)
    doc = kg.result_to_document(result)
    assert doc["format_version"] == "1"
    assert doc["tool"]["name"] == "kgframes"
    assert doc["seed"] == 5 and doc["trials_per_check"] == 2
    assert doc["generator"]
    assert doc["all_passed"] is True
    assert doc["audited_counterexample_total"] == 0
    assert set(doc["tolerances"]) == {"tol_eq", "tol_psd", "tol_rank"}
    by_id = {c["id"]: c for c in doc["checks"]}
    assert set(by_id) == set(EXPECTED_CHECK_IDS)
    for check in doc["checks"]:
        assert check["trials"] == 2
        assert check["passes"] == 2
        assert check["failures"] == []
    assert by_id["identity_resolution"]["audited"] is True
    assert by_id["identity_resolution"]["audited_counterexamples"] == []


def test_measured_values_are_plain_floats_or_bools():
    config = kg.SuiteConfig(trials=3, seed=0)
    for check_id in kg.list_check_ids():
        for trial in range(3):
            measured = kg.run_check(config, check_id, trial).measured
            assert measured, check_id
            for key, value in measured.items():
                assert type(value) in (float, bool), (check_id, trial, key)


def test_document_bytes_are_deterministic():
    cfg = kg.SuiteConfig(trials=2, seed=7)
    first = kg.document_json(kg.run_theorem_suite(cfg))
    second = kg.document_json(kg.run_theorem_suite(cfg))
    assert first == second
    assert first.endswith("\n")
    payload = json.loads(first)
    assert payload["seed"] == 7


@pytest.mark.parametrize("seed", (1, 2, 3, 4, 8, 10))
def test_tightness_scaling_passes_where_a_draw_is_one_dimensional(seed):
    # these seeds draw a non-tight instance of total dimension one at least once
    cfg = kg.SuiteConfig(trials=50, seed=seed, check_ids=("tightness_scaling",))
    assert kg.run_theorem_suite(cfg).reports[0].passes == 50


def test_tightness_scaling_ends_when_the_caps_admit_dimension_one_only():
    caps = kg.Caps(1, 1, 1, 1, 1)
    cfg = kg.SuiteConfig(trials=5, caps=caps, check_ids=("tightness_scaling",))
    assert kg.run_theorem_suite(cfg).reports[0].passes == 5
    outcome = kg.run_check(cfg, "tightness_scaling", 0)
    assert outcome.measured["generic_skipped"] is True
    assert len(outcome.specs) == 1


def test_tightness_scaling_widens_a_run_of_one_dimensional_draws():
    # seed 3, trial 27 draws total dimension one on every redraw under
    # these caps, so the negative instance is widened to module rank two
    caps = kg.Caps(1, 1, 2, 2, 1)
    cfg = kg.SuiteConfig(seed=3, caps=caps, check_ids=("tightness_scaling",))
    outcome = kg.run_check(cfg, "tightness_scaling", 27)
    assert outcome.ok
    neg = outcome.specs[1]
    assert neg["module_rank"] == 2 and tuple(neg["codomain_ranks"]) == (1, 1)


def test_fault_injection_reaches_a_redrawn_negative_instance():
    seen = []

    def record(check_id, trial, inst):
        seen.append((check_id, inst.spec.kind))
        return inst

    cfg = kg.SuiteConfig(
        seed=3,
        caps=kg.Caps(1, 1, 2, 2, 1),
        check_ids=("tightness_scaling",),
        fault_injection=record,
    )
    kg.run_check(cfg, "tightness_scaling", 27)
    assert seen == [("tightness_scaling", "tight"), ("tightness_scaling", "generic")]


def test_tol_psd_reaches_the_positivity_verdicts():
    default = kg.result_to_document(kg.run_theorem_suite(kg.SuiteConfig(trials=5)))
    loose = kg.result_to_document(
        kg.run_theorem_suite(kg.SuiteConfig(trials=5, tol_psd=10.0))
    )
    assert loose["tolerances"]["tol_psd"] == 10.0
    loose["tolerances"]["tol_psd"] = default["tolerances"]["tol_psd"]
    assert loose != default


def test_seed_changes_the_draws():
    a = kg.run_check(kg.SuiteConfig(seed=1), "canonical_dual_residual", 0)
    b = kg.run_check(kg.SuiteConfig(seed=2), "canonical_dual_residual", 0)
    assert a.specs != b.specs


def test_the_canonical_dual_is_judged_against_an_independent_inverse():
    # S^-1 by np.linalg.inv shares no arithmetic with the pseudoinverse
    # from S's kept spectrum, so the two agree to roundoff, not bitwise
    config = kg.SuiteConfig(seed=0)
    distances = [
        kg.run_check(config, "canonical_dual_residual", i).measured[
            "plain_inverse_distance"
        ]
        for i in range(0, 50, 2)
    ]
    assert max(distances) <= 1e-9
    assert any(d > 0.0 for d in distances)


def test_check_subset_selection():
    cfg = kg.SuiteConfig(trials=1, seed=0, check_ids=("sqrt_factor", "zero_overlap"))
    result = kg.run_theorem_suite(cfg)
    assert tuple(r.check_id for r in result.reports) == ("sqrt_factor", "zero_overlap")


def test_unknown_check_id_rejected():
    with pytest.raises(ValueError, match="unknown check id 'no_such_check'"):
        kg.run_theorem_suite(kg.SuiteConfig(check_ids=("no_such_check",)))


def test_nonpositive_trials_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        kg.run_theorem_suite(kg.SuiteConfig(trials=0))


def _tightness_fault(check_id, trial, inst):
    if check_id == "tightness_scaling" and trial == 0:
        return dataclasses.replace(inst, k_op=inst.k_op.scale(3.0))
    return inst


def test_fault_injection_is_caught_and_recorded():
    cfg = kg.SuiteConfig(
        trials=2,
        seed=1,
        check_ids=("tightness_scaling",),
        fault_injection=_tightness_fault,
    )
    result = kg.run_theorem_suite(cfg)
    assert not result.all_passed
    report = result.reports[0]
    assert report.passes == 1
    assert len(report.failures) == 1
    record = report.failures[0]
    assert record.check_id == "tightness_scaling"
    assert record.trial == 0
    assert record.message
    assert record.specs and record.measured


def test_revalidation_reproduces_recorded_failures():
    cfg = kg.SuiteConfig(
        trials=2,
        seed=1,
        check_ids=("tightness_scaling",),
        fault_injection=_tightness_fault,
    )
    record = kg.run_theorem_suite(cfg).reports[0].failures[0]

    outcome = kg.revalidate(record, cfg)
    assert outcome["ok"] and outcome["still_fails"] and outcome["reproduced"]
    assert all(dev <= 1e-10 for dev in outcome["deviations"].values())

    # without the fault the failure disappears, and revalidation says so
    clean = kg.SuiteConfig(trials=2, seed=1, check_ids=("tightness_scaling",))
    vanished = kg.revalidate(record, clean)
    assert not vanished["still_fails"]
    assert not vanished["reproduced"]

    # tampered measurements are flagged as non-reproducible
    tampered = dict(record.measured)
    for key, value in tampered.items():
        if isinstance(value, float) and np.isfinite(value):
            tampered[key] = value + 1.0
            break
    bad_record = dataclasses.replace(record, measured=tampered)
    checked = kg.revalidate(bad_record, cfg)
    assert not checked["reproduced"]
    assert max(checked["deviations"].values()) >= 0.5


def test_failure_records_serialize_into_the_document():
    cfg = kg.SuiteConfig(
        trials=1,
        seed=1,
        check_ids=("tightness_scaling",),
        fault_injection=_tightness_fault,
    )
    doc = kg.result_to_document(kg.run_theorem_suite(cfg))
    assert doc["all_passed"] is False
    entry = doc["checks"][0]["failures"][0]
    assert entry["trial"] == 0
    assert entry["specs"][0]["kind"] == "tight"
    # the document must stay valid JSON even with non-finite measurements
    text = kg.document_json(kg.run_theorem_suite(cfg))
    json.loads(text)


def test_statements_describe_each_check():
    cfg = kg.SuiteConfig(trials=1, seed=3)
    doc = kg.result_to_document(kg.run_theorem_suite(cfg))
    for check in doc["checks"]:
        assert isinstance(check["statement"], str)
        assert len(check["statement"]) > 10
