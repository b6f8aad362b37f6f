"""Acceptance criteria: ten end-to-end guarantees the package must satisfy.

Each test evaluates one criterion, appends one `[PASS]`/`[FAIL]` line to the
shared acceptance log (printed in the terminal summary), and then asserts.
"""

import time

import numpy as np
import pytest

import kgframes as kg
from kgframes.cli import main as cli_main
from kgframes.generators import (
    TIGHT_SCALES,
    clamped_square,
    draw_spec,
    generate,
    random_operator,
    random_vector,
    sub_seed,
)
from helpers import acceptance_lines, pinned_example, plain_inverse


def _verdict(number: int, name: str, ok: bool) -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {number:02d} {name}"
    acceptance_lines.append(line)
    print(line)
    return ok


def _q0_frame(seed: int):
    """Frame from a known square operator over a basis-compatible draw."""
    inst = generate(draw_spec("generic", seed, basis_compatible=True))
    rng = np.random.default_rng(sub_seed(seed, "acceptance#q0", 0))
    q0 = clamped_square(rng, inst.shape, inst.frame.domain_rank)
    frame = kg.reconstruct_from_g_operator(q0, inst.basis)
    return inst, rng, q0, frame


def test_acceptance_01_pinned_example_bounds():
    _, frame, k_op = pinned_example()
    # warm-up so the timed section measures the computation, not lazy imports
    kg.optimal_g_bounds(frame)
    kg.is_kg_frame(frame, k_op)

    start = time.perf_counter()
    bounds = kg.optimal_g_bounds(frame)
    report = kg.is_kg_frame(frame, k_op)
    elapsed = time.perf_counter() - start

    ok = (
        abs(bounds.lower - 1.0) <= 1e-9
        and abs(bounds.upper - 3.0) <= 1e-9
        and report.is_k_g_frame
        and abs(report.lower_c - 1.5) <= 1e-9
        and elapsed < 0.010
    )
    assert _verdict(1, "pinned example bounds and lower scale", ok)


def test_acceptance_02_factorization_agreement():
    shape = kg.AlgebraShape((2, 3))
    rng = np.random.default_rng(sub_seed(0, "acceptance#factorization", 0))
    trials, agreements, included_checked = 500, 0, 0
    start = time.perf_counter()
    for trial in range(trials):
        c = int(rng.integers(1, 5))
        d_t = int(rng.integers(1, 5))
        d_z = int(rng.integers(1, 5))
        z = random_operator(rng, shape, d_z, c)
        if trial % 2 == 0:
            t = random_operator(rng, shape, d_t, d_z).then(z)
        else:
            t = random_operator(rng, shape, d_t, c)
        cert = kg.douglas(t, z)
        if not cert.conditions_agree():
            break
        if kg.range_included(t, z) != cert.range_included:
            break
        agreements += 1
        if cert.range_included:
            included_checked += 1
            if cert.residual > 1e-8:
                break
            if cert.factor.uniform_norm() > cert.alpha_min + 1e-6:
                break
    elapsed = time.perf_counter() - start
    ok = agreements == trials and included_checked >= trials // 2 and elapsed < 5.0
    assert _verdict(2, "range factorization three-condition agreement", ok)


def test_acceptance_03_square_operator_recovery():
    ok = True
    for seed in range(200):
        inst, rng, q0, frame = _q0_frame(seed)
        q = kg.g_operator(frame, inst.basis)
        if kg.operator_distance(q, q0) > 1e-10:
            ok = False
            break
        s = frame.frame_operator()
        if kg.operator_distance(q.adjoint().then(q), s) > 1e-10 * (1.0 + s.uniform_norm()):
            ok = False
            break
        deviation = 0.0
        for _ in range(2):
            x = random_vector(rng, inst.shape, frame.domain_rank)
            lhs = q.apply(x)
            rhs = None
            for member, e_op in zip(frame.members, inst.basis.members):
                term = member.adjoint().apply(e_op.apply(x))
                rhs = term if rhs is None else rhs + term
            deviation = max(deviation, kg.max_vector_seminorms(lhs - rhs)[0])
        if deviation > 1e-12:
            ok = False
            break
    assert _verdict(3, "square operator recovered from its frame", ok)


def test_acceptance_04_three_route_verdict_agreement():
    variants = (
        ("generic", {"basis_compatible": True}),
        ("rank_deficient_K", {"basis_compatible": True, "k_inside": True}),
        ("rank_deficient_K", {"basis_compatible": True, "k_inside": False}),
    )
    ok = True
    for trial in range(200):
        kind, kwargs = variants[trial % 3]
        inst = generate(draw_spec(kind, trial, **kwargs))
        report = kg.is_kg_frame(inst.frame, inst.k_op)
        via_range = kg.kg_via_range(inst.frame, inst.k_op, inst.basis)
        sqrt_op = inst.frame.frame_operator().hermitian_sqrt()
        quotient = kg.quotient_bounded(inst.k_op.adjoint(), sqrt_op)
        quotient_verdict = quotient.well_defined and quotient.bounded
        if not (report.is_k_g_frame == via_range == quotient_verdict):
            ok = False
            break
        if report.is_k_g_frame and np.isfinite(report.lower_c):
            recovered = 1.0 / quotient.beta**2
            if abs(recovered - report.lower_c) > 1e-6 * abs(report.lower_c):
                ok = False
                break
    assert _verdict(4, "frame verdict agreement across three routes", ok)


def test_acceptance_05_canonical_dual_residuals():
    ok = True
    for trial in range(200):
        if trial % 2 == 0:
            inst, rng, q0, frame = _q0_frame(trial + 10_000)
            k_op = clamped_square(rng, inst.shape, frame.domain_rank)
            result = kg.canonical_k_dual(frame, k_op)
            if result.certificate.residual > 1e-8 * (1.0 + k_op.uniform_norm()):
                ok = False
                break
            prefix = k_op.then(plain_inverse(frame.frame_operator()))
            direct = kg.GFrame([prefix.then(m) for m in frame.members])
            if kg.frame_distance(result.frame, direct) > 1e-9:
                ok = False
                break
        else:
            inst = generate(
                draw_spec("rank_deficient_K", trial, k_inside=True, rich=True)
            )
            result = kg.canonical_k_dual(inst.frame, inst.k_op)
            if result.certificate.residual > 1e-8 * (1.0 + inst.k_op.uniform_norm()):
                ok = False
                break
        if not result.certificate.is_dual:
            ok = False
            break
    assert _verdict(5, "canonical dual verified for singular and regular frames", ok)


def test_acceptance_06_dual_combinations():
    ok = True
    for trial in range(200):
        inst, rng, q0, frame = _q0_frame(trial + 20_000)
        d = frame.domain_rank
        k_op = clamped_square(rng, inst.shape, d)
        xi = kg.canonical_k_dual(frame, k_op).frame
        ident = kg.ModuleOperator.identity(inst.shape, d)
        half = ident.scale(0.5)
        midpoint = kg.combine_duals(frame, xi, xi, k_op, half, half)
        t1 = clamped_square(rng, inst.shape, d).scale(0.5)
        t2 = ident - t1
        split = kg.combine_duals(frame, xi, xi, k_op, t1, t2)
        gap = clamped_square(rng, inst.shape, d).scale(1e-3)
        broken = kg.combine_duals(frame, xi, xi, k_op, t1, t2 + gap)
        if not (midpoint.certificate.is_dual and midpoint.certificate.residual <= 1e-8):
            ok = False
            break
        if not (split.certificate.is_dual and split.certificate.residual <= 1e-8):
            ok = False
            break
        if broken.certificate.residual < 1e-4:
            ok = False
            break
    assert _verdict(6, "identity-split combinations stay dual, gaps are seen", ok)


def test_acceptance_07_commuting_transform_envelope():
    ok = True
    for trial in range(200):
        inst = generate(draw_spec("commuting_pair", trial, rich=True))
        report = kg.transform_by_q(inst.frame, inst.k_op, inst.extras["q"])
        if not report.within_envelope:
            ok = False
            break
        if not (report.sandwich_ok and report.sandwich_residual <= 1e-10):
            ok = False
            break
    assert _verdict(7, "commuting transforms stay inside the scaled envelope", ok)


def test_acceptance_08_tightness_classification():
    ok = True
    for trial in range(120):
        scale = TIGHT_SCALES[trial % 3]
        inst = generate(draw_spec("tight", trial, tight_scale=scale))
        report = kg.tightness_check(inst.frame, inst.k_op)
        if not (report.tight and abs(report.scale - scale) <= 1e-8 and report.ranges_match):
            ok = False
            break
    if ok:
        for trial in range(80):
            inst = generate(draw_spec("generic", trial + 30_000, rich=True))
            report = kg.tightness_check(inst.frame, inst.k_op)
            if report.tight:
                ok = False
                break
    assert _verdict(8, "tight scales recovered exactly, generic families rejected", ok)


def test_acceptance_09_resolutions_confirmed_or_explained():
    unexplained = 0
    for trial in range(200):
        inst = generate(draw_spec("resolution", trial))
        report = kg.resolution_check(inst.frame, inst.k_op)
        if not report.sums_to_identity or not report.consistent:
            unexplained += 1
            continue
        if report.conclusion_holds is True:
            continue
        # a counterexample is acceptable only when it re-evaluates cleanly
        reeval = report.reevaluation
        if not reeval:
            unexplained += 1
            continue
        deviations = [v for k, v in reeval.items() if k.endswith("_deviation")]
        if not deviations or max(deviations) > 1e-10:
            unexplained += 1
    ok = unexplained == 0
    assert _verdict(9, "identity resolutions confirmed or explained", ok)


def test_acceptance_10_full_verification_determinism(tmp_path, capsys):
    args = ["verify", "--trials", "50", "--seed", "0"]
    first = tmp_path / "report_a.json"
    second = tmp_path / "report_b.json"

    start = time.perf_counter()
    code_a = cli_main(args + ["-o", str(first)])
    elapsed_a = time.perf_counter() - start

    start = time.perf_counter()
    code_b = cli_main(args + ["-o", str(second)])
    elapsed_b = time.perf_counter() - start
    capsys.readouterr()

    ok = (
        code_a == 0
        and code_b == 0
        and elapsed_a < 60.0
        and elapsed_b < 60.0
        and first.read_bytes() == second.read_bytes()
    )
    assert _verdict(10, "full fifty-trial verification, byte-identical", ok)
