"""Tests of the benchmark itself: each reference check rejects a wrong
answer, the tracer restores what it replaces, and every workload runs.

    python3 -m pytest kgbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import kgframes as kg  # noqa: E402
import kgframes.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _with_k_outside(check_id, trial, inst):
    """Swap the rank-deficient instance's K for the identity: K then leaves
    the range of the frame operator although trial 0 builds it inside."""
    if inst.spec.kind != "rank_deficient_K":
        return None
    eye = kg.ModuleOperator.identity(inst.shape, inst.spec.module_rank)
    return dataclasses.replace(inst, k_op=eye)


def _suite_errors(fault_injection):
    wl = workloads.VerifySuite(
        kg, trials=1, check_ids=("psd_frame_criterion",), fault_injection=fault_injection
    )
    config = wl.build(0)
    res = wl.run_pass(config)
    assert len(res.ops) == 1
    return res, wl.check(config, res)


def test_flipped_suite_verdict_is_rejected():
    res, errors = _suite_errors(None)
    assert errors == [] and not res.ops[0].failed
    res, errors = _suite_errors(_with_k_outside)
    # the suite itself still counts the trial as passed ...
    assert not res.ops[0].failed
    # ... but the verdict no longer matches how the instance was built
    assert any("disagrees with how K was built" in e for e in errors)


def test_scaled_dual_member_is_rejected():
    wl = workloads.CapQueries(kg)
    instances = wl.build(0)
    assert wl.reference(instances) == []
    inst = next(i for i in instances if i.kg and i.tight_scale is None)
    _, frame, k_op = wl._objects(inst)
    result = kg.canonical_k_dual(frame, k_op)
    assert wl.check_op(inst, "canonical_k_dual", result) == []
    members = list(result.frame.members)
    members[1] = members[1].scale(1.0 + 1e-6)
    scaled = dataclasses.replace(result, frame=kg.GFrame(members))
    errors = wl.check_op(inst, "canonical_k_dual", scaled)
    assert any("dual residual" in e for e in errors)


def test_refused_dual_is_a_correct_answer():
    wl = workloads.CapQueries(kg)
    instances = wl.build(0)
    assert wl.reference(instances) == []
    inst = next(i for i in instances if not i.kg)
    _, frame, k_op = wl._objects(inst)
    with pytest.raises(kg.DualityError) as info:
        kg.canonical_k_dual(frame, k_op)
    assert wl.check_op(inst, "canonical_k_dual", info.value) == []
    assert wl.check_op(inst, "is_kg_frame", kg.is_kg_frame(frame, k_op)) == []


def test_edited_certificate_residual_is_rejected(tmp_path):
    wl = workloads.CliDocuments(kg, str(tmp_path))
    docs = wl.build(0)
    assert wl.reference(docs) == []
    doc = next(d for d in docs if d.label == "small_generic_0")
    assert kg.cli.main(["dual", doc.path, "-o", doc.cert]) == 0
    text = open(doc.cert, encoding="utf-8").read()
    assert wl.certificate_errors(doc, text) == []
    cert = json.loads(text)
    cert["certificate"]["residual"] += 1e-6
    errors = wl.certificate_errors(doc, json.dumps(cert))
    assert any("recorded residual" in e for e in errors)


def test_tracer_restores_every_name_and_counts_agree():
    originals = (
        kg.ModuleOperator.uniform_norm,
        vars(kg.ModuleOperator)["identity"],
        kg.kganalysis.douglas,
        kg.suite.run_check,
        np.linalg.svd,
        np.linalg.norm,
    )
    wl = workloads.CapQueries(kg)
    instances = wl.build(0)[:1]
    tracer = Tracer(kg)
    with tracer.active("pass", profile=True):
        assert kg.kganalysis.douglas is not originals[2]
        res = wl.run_pass(instances, tracer)
    assert originals == (
        kg.ModuleOperator.uniform_norm,
        vars(kg.ModuleOperator)["identity"],
        kg.kganalysis.douglas,
        kg.suite.run_check,
        np.linalg.svd,
        np.linalg.norm,
    )
    counts = tracer.linalg_counts()
    assert counts == tracer.numpy_counts and counts["eigh"] > 0
    assert tracer.ops == len(res.ops) == len(workloads.CAP_QUERIES)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_operation_of_each_workload(name, tmp_path):
    if name == "verify_suite":
        wl = workloads.VerifySuite(kg, trials=1, check_ids=("canonical_dual_residual",))
        config = wl.build(3)
        res = wl.run_pass(config)
        assert len(res.ops) == 1 and wl.check(config, res) == []
    elif name == "cap_queries":
        wl = workloads.CapQueries(kg)
        instances = wl.build(3)
        assert wl.reference(instances) == []
        _, frame, k_op = wl._objects(instances[0])
        assert wl.check_op(instances[0], "is_kg_frame", kg.is_kg_frame(frame, k_op)) == []
    else:
        wl = workloads.CliDocuments(kg, str(tmp_path))
        docs = wl.build(3)
        assert wl.reference(docs) == []
        (label, argv), *_ = wl.commands(docs[0])
        code = kg.cli.main(argv)
        assert code == 0


def _bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name,trace",
    [("cap_queries", 0), ("cap_queries", 1), ("cli_documents", 0), ("verify_suite", 0)],
)
def test_shortest_run_prints_every_metric(name, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = _bench_spec()
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS or trace
    assert {m["name"]: m["unit"] for m in metrics} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_run_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cap_queries", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
