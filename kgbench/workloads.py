"""The three workloads: inputs built from a seed, timed passes, checks.

A workload has four parts.  ``build(seed)`` makes the inputs through the
library (the part timed as set-up).  ``reference(inputs)`` computes the
expected values from the input arrays with numpy.  ``run_pass(inputs,
tracer)`` runs every operation once, closed loop, one at a time, and
returns one ``OpRecord`` per operation; only the calls into the program
are timed.  ``check(inputs, result)`` returns the reference-check failures
of one pass, judged from numpy recomputation, planted values and how each
instance was built, never from a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

import reference as ref

CAP_BLOCKS = (4, 4, 4)
CAP_RANK = 6
CAP_MEMBERS = (3,) * 8
TIGHT_SCALES = (0.25, 1.0, 4.0)

# the one suite check left out of verify_suite: its negative instance is
# tight on some seeds (see README.md), so its failures depend on the seed
EXCLUDED_CHECKS = ("tightness_scaling",)


def derive_seed(seed: int, *labels) -> int:
    text = ":".join(str(x) for x in ("kgbench", seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass
class OpRecord:
    key: tuple
    seconds: float
    failed: bool
    output: object = None


@dataclass
class PassResult:
    ops: list
    wall: float
    extra: dict = field(default_factory=dict)


def _timed(tracer, fn, *args, **kwargs):
    """Time one call into the program; an operation boundary for the tracer."""
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
        err = None
    except Exception as exc:  # the check decides whether it was a refusal
        out, err = None, exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    return dt, out, err


# -- verify_suite ------------------------------------------------------------


class VerifySuite:
    """``run_theorem_suite(SuiteConfig(trials=50, seed=S))`` plus its report."""

    name = "verify_suite"

    def __init__(self, kg, trials: int = 50, check_ids=None, fault_injection=None):
        self.kg = kg
        self.trials = trials
        self.check_ids = check_ids
        self.fault_injection = fault_injection
        self.first_report: str | None = None

    def build(self, seed: int):
        ids = self.check_ids or tuple(
            c for c in self.kg.list_check_ids() if c not in EXCLUDED_CHECKS
        )
        return self.kg.SuiteConfig(
            trials=self.trials,
            seed=seed,
            check_ids=ids,
            fault_injection=self.fault_injection,
        )

    def reference(self, config) -> list[str]:
        return []

    def run_pass(self, config, tracer=None) -> PassResult:
        suite = self.kg.suite
        inner = suite.run_check
        ops: list[OpRecord] = []

        def timed_run_check(cfg, check_id, trial):
            dt, outcome, err = _timed(tracer, inner, cfg, check_id, trial)
            if err is not None:
                raise err
            ops.append(OpRecord((check_id, trial), dt, not outcome.ok, outcome))
            return outcome

        suite.run_check = timed_run_check
        try:
            t0 = time.perf_counter()
            result = suite.run_theorem_suite(config)
            text = suite.document_json(result)
            wall = time.perf_counter() - t0
        finally:
            suite.run_check = inner
        return PassResult(ops, wall, {"result": result, "text": text})

    def check(self, config, res: PassResult) -> list[str]:
        errors: list[str] = []
        want = [(c, t) for c in config.check_ids for t in range(config.trials)]
        got = [op.key for op in res.ops]
        if got != want:
            return [f"run_check was called for {len(got)} trials, expected {len(want)} in order"]
        by_check: dict[str, list[OpRecord]] = {}
        for op in res.ops:
            by_check.setdefault(op.key[0], []).append(op)
        result = res.extra["result"]
        for rep in result.reports:
            ops = by_check[rep.check_id]
            passes = sum(not op.failed for op in ops)
            failed_trials = [op.key[1] for op in ops if op.failed]
            audited = sum(op.output.audited is not None for op in ops)
            if rep.trials != config.trials or rep.passes != passes:
                errors.append(f"{rep.check_id}: report says {rep.passes}/{rep.trials}, trials gave {passes}")
            if [f.trial for f in rep.failures] != failed_trials:
                errors.append(f"{rep.check_id}: failure records do not match the failed trials")
            if len(rep.audited_counterexamples) != audited:
                errors.append(f"{rep.check_id}: audited counterexamples do not add up")
        doc = json.loads(res.extra["text"])
        if [c["id"] for c in doc["checks"]] != list(config.check_ids):
            errors.append("report lists other checks than were run")
        if doc["all_passed"] != all(not op.failed for op in res.ops):
            errors.append("report all_passed disagrees with the trials")
        if sum(c["passes"] for c in doc["checks"]) != sum(not op.failed for op in res.ops):
            errors.append("report pass counts do not add up")
        for op in res.ops:
            if not op.failed:
                errors.extend(_planted_truths(op.key, op.output.measured))
        if self.first_report is None:
            self.first_report = res.extra["text"]
        elif res.extra["text"] != self.first_report:
            errors.append("suite report bytes differ between passes of one run")
        return errors


def _planted_truths(key, measured: dict) -> list[str]:
    check_id, trial = key
    where = f"{check_id}#{trial}"
    if check_id == "g_operator_roundtrip" and not measured["extraction_distance"] <= 1e-10:
        return [f"{where}: extraction distance {measured['extraction_distance']!r}"]
    if check_id == "identity_resolution" and not measured["sum_residual"] <= 1e-10:
        return [f"{where}: planted resolution sums off the identity"]
    if check_id == "tightness_scaling" and abs(measured["recovered_scale"] - measured["target_scale"]) > 1e-8:
        return [f"{where}: recovered scale {measured['recovered_scale']!r}"]
    if check_id == "psd_frame_criterion":
        # rich generic frame with invertible K: a K-g-frame by construction;
        # the rank-deficient instance has K inside the range on even trials
        if measured["generic_verdict"] is not True:
            return [f"{where}: rich generic frame judged not a K-g-frame"]
        if measured["deficient_verdict"] is not (trial % 2 == 0):
            return [f"{where}: rank-deficient verdict disagrees with how K was built"]
    return []


# -- cap_queries ----------------------------------------------------------------


@dataclass
class CapInstance:
    label: str
    sizes: tuple
    rank: int
    members: list  # members[i][k]: realization arrays
    k_blocks: list
    kg: bool  # a K-g-frame by construction
    tight_scale: float | None
    quotient_args: tuple = ()  # (K* blocks, sqrt S blocks)
    expect: dict = field(default_factory=dict)  # reference values


# (label, kind, instances, spec fields, K-g-frame by construction):
# 20 instances, so a pass makes 100 calls
CAP_KINDS = (
    ("generic", "generic", 5, {}, True),
    ("deficient_inside", "rank_deficient_K", 5, {"k_inside": True}, True),
    ("deficient_outside", "rank_deficient_K", 4, {"k_inside": False}, False),
    ("tight", "tight", 6, {}, True),
)


def _cap_specs(kg, seed: int):
    out = []
    for label, kind, count, fields, is_kg in CAP_KINDS:
        for j in range(count):
            scale = TIGHT_SCALES[j % len(TIGHT_SCALES)] if kind == "tight" else None
            ranks = (2, 2, 2) if kind == "tight" else CAP_MEMBERS
            extra = dict(fields, tight_scale=scale) if scale else fields
            spec = kg.GenSpec(derive_seed(seed, label, j), kind, CAP_BLOCKS, CAP_RANK, ranks, **extra)
            out.append((f"{label}_{j}", is_kg, scale, spec))
    return out


CAP_QUERIES = ("optimal_g_bounds", "is_kg_frame", "canonical_k_dual", "tightness_check", "quotient_bounded")


class CapQueries:
    """Library queries on instances at the size caps, fresh objects per call."""

    name = "cap_queries"

    def __init__(self, kg):
        self.kg = kg

    def build(self, seed: int):
        out = []
        for label, kg_expected, scale, spec in _cap_specs(self.kg, seed):
            inst = self.kg.generate(spec)
            members = [list(m.blocks) for m in inst.frame.members]
            k_blocks = list(inst.k_op.blocks)
            s_blocks = ref.frame_operator(members)
            quotient_args = ([b.conj().T for b in k_blocks], ref.sqrt_psd(s_blocks))
            out.append(CapInstance(label, spec.block_sizes, spec.module_rank, members, k_blocks, kg_expected, scale, quotient_args))
        return out

    def reference(self, instances) -> list[str]:
        """Reference values from the arrays; errors if a generated instance
        is not what its kind promises."""
        errors = []
        for inst in instances:
            s = ref.frame_operator(inst.members)
            m = ref.weighted_square(inst.k_blocks)
            c_ref, included = ref.lower_constant(s, m)
            if included != inst.kg:
                errors.append(f"{inst.label}: generated K is {'inside' if included else 'outside'} the range")
            inst.expect = {"s": s, "m": m, "bounds": ref.frame_bounds(s), "c": c_ref}
        return errors

    def _objects(self, inst: CapInstance):
        kg = self.kg
        shape = kg.AlgebraShape(inst.sizes)
        frame = kg.GFrame(
            [kg.ModuleOperator(shape, inst.rank, m[0].shape[1] // inst.sizes[0], m) for m in inst.members]
        )
        k_op = kg.ModuleOperator(shape, inst.rank, inst.rank, inst.k_blocks)
        return shape, frame, k_op

    def run_pass(self, instances, tracer=None) -> PassResult:
        kg = self.kg
        ops = []
        for inst in instances:
            for query in CAP_QUERIES:
                shape, frame, k_op = self._objects(inst)
                if query == "optimal_g_bounds":
                    args = (frame,)
                elif query == "quotient_bounded":
                    f_blocks, t_blocks = inst.quotient_args
                    args = (
                        kg.ModuleOperator(shape, inst.rank, inst.rank, f_blocks),
                        kg.ModuleOperator(shape, inst.rank, inst.rank, t_blocks),
                    )
                else:
                    args = (frame, k_op)
                dt, out, err = _timed(tracer, getattr(kg, query), *args)
                refused = query == "canonical_k_dual" and isinstance(err, kg.DualityError)
                failed = err is not None and not refused
                ops.append(OpRecord((inst.label, query), dt, failed, err if refused else out))
        return PassResult(ops, sum(op.seconds for op in ops))

    def check(self, instances, res: PassResult) -> list[str]:
        by_label = {inst.label: inst for inst in instances}
        errors = []
        for op in res.ops:
            if not op.failed:
                inst = by_label[op.key[0]]
                errors.extend(f"{inst.label}.{op.key[1]}: {e}" for e in self.check_op(inst, op.key[1], op.output))
        return errors

    def check_op(self, inst: CapInstance, query: str, out) -> list[str]:
        ex = inst.expect
        lo, up = ex["bounds"]
        t = inst.tight_scale
        if query == "optimal_g_bounds":
            errs = []
            if abs(out.upper - up) > 1e-10 * up or abs(out.lower - lo) > 1e-10 * up:
                errs.append(f"bounds ({out.lower!r}, {out.upper!r}) vs numpy ({lo!r}, {up!r})")
            if t is not None and not (ref.close(out.lower, t, 1e-10) and ref.close(out.upper, t, 1e-10)):
                errs.append(f"tight frame bounds ({out.lower!r}, {out.upper!r}) miss planted {t}")
            return errs
        if query == "is_kg_frame":
            if out.is_k_g_frame != inst.kg:
                return [f"verdict {out.is_k_g_frame} but built {'inside' if inst.kg else 'outside'} the range"]
            if not inst.kg:
                errs = [] if out.lower_c == 0.0 else [f"lower_c {out.lower_c!r} for K outside the range"]
                ce = out.counterexample
                if ce is None:
                    return errs + ["no counterexample for a refused K"]
                x = ce.vector.stacks[ce.block]
                ceiling = ref.witness_ceiling(x, ex["s"][ce.block], inst.k_blocks[ce.block])
                if not ceiling <= 1e-8:
                    errs.append(f"counterexample admits scales up to {ceiling:.3e}")
                return errs
            errs = ref.lower_bracket_errors(ex["s"], ex["m"], out.lower_c)
            if not ref.close(out.lower_c, ex["c"], 1e-8):
                errs.append(f"lower_c {out.lower_c!r} vs numpy {ex['c']!r}")
            if t is not None and not ref.close(out.lower_c, t, 1e-8):
                errs.append(f"lower_c {out.lower_c!r} misses planted {t}")
            return errs
        if query == "canonical_k_dual":
            if not inst.kg:
                return [] if isinstance(out, self.kg.DualityError) else ["dual built for a family that is not a K-g-frame"]
            if isinstance(out, Exception):
                return [f"dual refused: {out}"]
            dual = [list(m.blocks) for m in out.frame.members]
            errs = ref.dual_errors(inst.members, dual, inst.k_blocks, out.certificate.residual)
            if not out.certificate.is_dual:
                errs.append("certificate says not dual")
            return errs
        if query == "tightness_check":
            if out.tight != (t is not None):
                return [f"tight={out.tight} for a family built {'tight' if t else 'generic'}"]
            if t is not None and abs(out.scale - t) > 1e-8:
                return [f"recovered scale {out.scale!r} misses planted {t}"]
            return []
        if query == "quotient_bounded":
            errs = []
            if out.bounded != inst.kg or out.well_defined != inst.kg:
                errs.append(f"bounded={out.bounded} well_defined={out.well_defined}, built kg={inst.kg}")
            elif inst.kg and not ref.close(out.beta**2 * ex["c"], 1.0, 1e-6):
                errs.append(f"beta^2 {out.beta**2!r} is not 1/lower constant {ex['c']!r}")
            return errs
        raise ValueError(query)


# -- cli_documents ---------------------------------------------------------------


@dataclass
class CliDoc:
    label: str
    path: str
    cert: str
    kg: bool
    tight_scale: float | None
    sizes: tuple = ()
    members: list = field(default_factory=list)
    k_blocks: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)


# (label, kind, block sizes, module rank, codomain ranks, documents,
# K-g-frame by construction): with the pinned example 26 documents, so a
# pass runs 103 commands.  The seven commands on the two documents at the
# caps are the slowest; p90 then falls among the seven `dual` commands on
# the tight documents, which take about the same time, not on the step
# between the two groups.
CLI_DOCS = (
    ("caps_generic", "generic", CAP_BLOCKS, CAP_RANK, CAP_MEMBERS, 1, True),
    ("caps_refused", "rank_deficient_K", CAP_BLOCKS, CAP_RANK, CAP_MEMBERS, 1, False),
    ("small_generic", "generic", (2, 1), 3, (2, 2), 9, True),
    ("mid_deficient_inside", "rank_deficient_K", (3, 2), 4, (3, 3, 2), 7, True),
    ("mid_tight", "tight", (4, 4), 5, (2, 2, 1), 7, True),
)

_FLOAT = r"([-+0-9.e]+|inf)"


def _pinned(kg):
    """The README example: bounds (1, 3), lower scale 3/2."""
    shape = kg.AlgebraShape((1,))

    def member(*coeffs):
        col = np.array([[c] for c in coeffs], dtype=complex)
        return kg.ModuleOperator(shape, len(coeffs), 1, [col])

    frame = kg.GFrame([member(1, 0), member(0, 1), member(1, 1)])
    k_op = kg.ModuleOperator(shape, 2, 2, [np.diag([1.0, 0.0]).astype(complex)])
    return shape, 2, frame, k_op


class CliDocuments:
    """``kgframes.cli.main(argv)`` in process over documents written in set-up."""

    name = "cli_documents"

    def __init__(self, kg, workdir: str):
        self.kg = kg
        self.workdir = workdir

    def build(self, seed: int):
        kg = self.kg
        os.makedirs(self.workdir, exist_ok=True)
        items = [("pinned", *_pinned(kg), True, None)]
        for label, kind, sizes, rank, ranks, count, is_kg in CLI_DOCS:
            for j in range(count):
                extra = {"k_inside": is_kg} if kind == "rank_deficient_K" else {}
                scale = TIGHT_SCALES[j % len(TIGHT_SCALES)] if kind == "tight" else None
                if scale:
                    extra["tight_scale"] = scale
                spec = kg.GenSpec(derive_seed(seed, label, j), kind, sizes, rank, ranks, **extra)
                inst = kg.generate(spec)
                items.append((f"{label}_{j}", inst.shape, rank, inst.frame, inst.k_op, is_kg, scale))
        docs = []
        for label, shape, rank, frame, k_op, is_kg, scale in items:
            path = os.path.join(self.workdir, f"{label}.json")
            text = kg.document_to_json(kg.build_document(shape, rank, frame, {"reference": k_op}))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            docs.append(
                CliDoc(label, path, os.path.join(self.workdir, f"{label}.cert.json"), is_kg, scale,
                       tuple(shape.sizes), [list(m.blocks) for m in frame.members], list(k_op.blocks))
            )
        return docs

    def reference(self, docs) -> list[str]:
        """Reference values from the arrays; errors if a generated document
        is not what its kind promises."""
        errors = []
        for doc in docs:
            s = ref.frame_operator(doc.members)
            m = ref.weighted_square(doc.k_blocks)
            c_ref, included = ref.lower_constant(s, m)
            if included != doc.kg:
                errors.append(f"{doc.label}: generated K is {'inside' if included else 'outside'} the range")
            doc.expect = {"s": s, "bounds": ref.frame_bounds(s), "c": c_ref}
        return errors

    @staticmethod
    def commands(doc: CliDoc):
        cmds = [
            ("check", ["check", doc.path]),
            ("check_tight", ["check", doc.path, "--require-tight"]),
            ("dual", ["dual", doc.path, "-o", doc.cert]),
        ]
        if doc.kg:
            cmds.append(("recheck", ["dual", doc.cert, "--recheck"]))
        return cmds

    def run_pass(self, docs, tracer=None) -> PassResult:
        cli = self.kg.cli
        ops = []
        for doc in docs:
            if os.path.exists(doc.cert):
                os.remove(doc.cert)
            for name, argv in self.commands(doc):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    dt, code, exc = _timed(tracer, cli.main, argv)
                failed = exc is not None or code not in (0, 2)
                output = (code, out.getvalue(), err.getvalue())
                if name == "dual" and code == 0:
                    with open(doc.cert, encoding="utf-8") as fh:
                        output += (fh.read(),)
                ops.append(OpRecord((doc.label, name), dt, failed, output))
        return PassResult(ops, sum(op.seconds for op in ops))

    def check(self, docs, res: PassResult) -> list[str]:
        by_label = {doc.label: doc for doc in docs}
        errors = []
        for op in res.ops:
            if not op.failed:
                doc = by_label[op.key[0]]
                errors.extend(f"{doc.label}.{op.key[1]}: {e}" for e in self.check_op(doc, op.key[1], op.output))
        return errors

    def check_op(self, doc: CliDoc, name: str, output) -> list[str]:
        code, out, err = output[:3]
        lo, up = doc.expect["bounds"]
        t = doc.tight_scale
        if name == "check":
            errs = [] if code == (0 if doc.kg else 2) else [f"exit {code}"]
            m = re.search(rf"optimal bounds: lower {_FLOAT}  upper {_FLOAT}", out)
            v = re.search(rf"frame relative to 'reference': (yes|no)  optimal lower scale: {_FLOAT}", out)
            if m is None or v is None:
                return errs + ["bounds or verdict line missing"]
            lower, upper, c = float(m.group(1)), float(m.group(2)), float(v.group(2))
            if abs(upper - up) > 1e-10 * up or abs(lower - lo) > 1e-10 * up:
                errs.append(f"printed bounds ({lower}, {upper}) vs numpy ({lo!r}, {up!r})")
            if (v.group(1) == "yes") != doc.kg:
                errs.append(f"verdict {v.group(1)} for a document built kg={doc.kg}")
            elif doc.kg and not ref.close(c, doc.expect["c"], 1e-9):
                errs.append(f"printed lower scale {c} vs numpy {doc.expect['c']!r}")
            if doc.label == "pinned" and not (
                ref.close(lower, 1.0, 1e-12) and ref.close(upper, 3.0, 1e-12) and ref.close(c, 1.5, 1e-12)
            ):
                errs.append(f"pinned example printed ({lower}, {upper}) and {c}, not (1, 3) and 3/2")
            if not doc.kg:
                w = re.search(rf"lhs seminorm {_FLOAT}, rhs seminorm {_FLOAT}", out)
                if w is None or not float(w.group(2)) <= 1e-8 * float(w.group(1)):
                    errs.append("no counterexample witness with rhs far below lhs")
            return errs
        if name == "check_tight":
            tight = doc.kg and t is not None
            errs = [] if code == (0 if tight else 2) else [f"exit {code}"]
            m = re.search(rf"tight: (yes|no)  scale: {_FLOAT}", out)
            if m is None:
                return errs + ["tightness line missing"]
            if (m.group(1) == "yes") != (t is not None):
                errs.append(f"tight: {m.group(1)} for a document built {'tight' if t else 'generic'}")
            elif t is not None and abs(float(m.group(2)) - t) > 1e-8:
                errs.append(f"printed scale {m.group(2)} misses planted {t}")
            return errs
        if name == "dual":
            if not doc.kg:
                ok = code == 2 and err.startswith("refused:") and not os.path.exists(doc.cert)
                return [] if ok else [f"exit {code} for a family that is not a K-g-frame"]
            if code != 0:
                return [f"exit {code}"]
            return self.certificate_errors(doc, output[3])
        if name == "recheck":
            ok = code == 0 and "dual: yes  reproduced: yes" in out
            return [] if ok else [f"exit {code}: {out.strip()!r}"]
        raise ValueError(name)

    def certificate_errors(self, doc: CliDoc, text: str) -> list[str]:
        """Recompute the residual from the emitted certificate JSON alone."""
        cert = json.loads(text)
        inst = cert["instance"]
        sizes = tuple(inst["algebra"]["blocks"])
        rank = inst["module_rank"]
        frame = [ref.realization(m["coeffs"], sizes, rank, m["codomain_rank"]) for m in inst["frame"]]
        dual = [ref.realization(m["coeffs"], sizes, rank, m["codomain_rank"]) for m in cert["dual_frame"]]
        k_doc = inst["operators"][cert["reference"]]
        k_blocks = ref.realization(k_doc["coeffs"], sizes, rank, rank)
        errs = []
        same = sizes == doc.sizes and all(
            np.array_equal(a, b) for ma, mb in zip(frame, doc.members) for a, b in zip(ma, mb)
        ) and all(np.array_equal(a, b) for a, b in zip(k_blocks, doc.k_blocks))
        if not same or len(frame) != len(doc.members):
            errs.append("certificate instance differs from the input document")
        errs.extend(ref.dual_errors(frame, dual, k_blocks, cert["certificate"]["residual"]))
        if cert["certificate"]["is_dual"] is not True:
            errs.append("certificate says not dual")
        return errs


def make(name: str, kg, workdir: str):
    if name == VerifySuite.name:
        return VerifySuite(kg)
    if name == CapQueries.name:
        return CapQueries(kg)
    if name == CliDocuments.name:
        return CliDocuments(kg, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (VerifySuite.name, CapQueries.name, CliDocuments.name)
