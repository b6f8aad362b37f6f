"""Benchmark of kgframes: one workload per run, one JSON result line.

    python3 kgbench/run.py --workload verify_suite --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout: kgframes is imported from
``src/`` there, never from an installed copy.  The run is single-process
and single-threaded, with numpy's BLAS held to one thread.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a separate traced pass.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; a
copy of it, and with ``--trace 1`` the trace, go to ``.kgbench_out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import DOCIO_PARSE, DOCIO_SERIALIZE, LINALG, Tracer  # noqa: E402

OUT_DIR = ".kgbench_out"
SETUP_REPEATS = 5
# p90 over the operations of a pass needs ten of them beyond it
MIN_OPS = 100

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import kgframes; "
    "print(time.perf_counter() - t0)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


class SourceMissing(Exception):
    pass


@dataclass
class PassTimes:
    op_seconds: list
    wall: float


def import_kgframes(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kgframes", "__init__.py")):
        raise SourceMissing(f"no kgframes sources under {src}")
    sys.path.insert(0, src)
    kg = importlib.import_module("kgframes")
    if not os.path.abspath(kg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SourceMissing(f"kgframes was imported from {kg.__file__}, not from {src}")
    importlib.import_module("kgframes.cli")
    return kg


def measure_import(root: str) -> float:
    """Median import time of kgframes in fresh interpreters (one untimed first)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def op_medians(passes) -> list[float]:
    """Each operation's median time over the passes of a run.

    Every pass repeats the same calls on the same inputs, so a burst of
    machine noise during one pass moves none of these medians.
    """
    return [statistics.median(times) for times in zip(*(p.op_seconds for p in passes))]


def pass_seconds(passes) -> float:
    """One pass: the sum of the operations' medians, plus the median rest
    of a pass (bookkeeping between the calls)."""
    rest = statistics.median(p.wall - sum(p.op_seconds) for p in passes)
    return sum(op_medians(passes)) + rest


class Run:
    def __init__(self, args, root: str):
        self.args = args
        self.root = root
        self.workdir = os.path.join(root, OUT_DIR, f"work-{os.getpid()}")
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self):
        self.kg = import_kgframes(self.root)
        import_s = measure_import(self.root)
        self.workload = workloads.make(self.args.workload, self.kg, self.workdir)
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = self.workload.build(self.args.seed)
            builds.append(time.perf_counter() - t0)
        self.inputs = inputs
        self.errors.extend(self.workload.reference(inputs))
        return import_s + statistics.median(builds)

    def one_pass(self, tracer: Tracer | None = None, phase: str = "pass", profile: bool = False) -> PassTimes:
        """Run, count and check one pass; keep only its timings.

        The checks run after the tracer is removed, so their own numpy
        calls are not counted.
        """
        if tracer is None:
            res = self.workload.run_pass(self.inputs)
        else:
            with tracer.active(phase, profile):
                res = self.workload.run_pass(self.inputs, tracer)
        self.attempted += len(res.ops)
        self.failed += sum(op.failed for op in res.ops)
        self.errors.extend(self.workload.check(self.inputs, res))
        return PassTimes([op.seconds for op in res.ops], res.wall)

    def measure(self, setup_s: float) -> dict:
        start = time.perf_counter()
        passes = [self.one_pass()]
        if len(passes[0].op_seconds) < MIN_OPS:
            raise RuntimeError(f"a pass of {self.args.workload} has fewer than {MIN_OPS} operations")
        while time.perf_counter() - start < self.args.seconds:
            passes.append(self.one_pass())
        times_ms = [t * 1e3 for t in op_medians(passes)]
        values = {
            "setup_s": setup_s,
            "pass_s": pass_seconds(passes),
            "op_p50_ms": percentile(times_ms, 0.5),
            "op_p90_ms": percentile(times_ms, 0.9),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def trace(self) -> tuple[dict, dict]:
        """Alternate plain and traced passes, then audit the linalg counts.

        The audit pass runs the wrappers and the independent count at
        numpy.linalg together; it is kept out of the timed figures because
        the profile hook slows every call.
        """
        tracer = Tracer(self.kg)
        with tracer.active("setup"):
            self.workload.build(self.args.seed)
        plain, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < self.args.seconds:
            plain.append(self.one_pass())
            traced.append(self.one_pass(tracer))
        self.one_pass(tracer, "audit", profile=True)
        audited = tracer.linalg_counts("audit")
        if audited != tracer.numpy_counts:
            self.errors.append(f"linalg calls through the wrappers {audited} != counted at numpy.linalg {tracer.numpy_counts}")
        per_pass = {k: v / len(traced) for k, v in tracer.linalg_counts("pass").items()}
        if per_pass != audited:
            self.errors.append(f"linalg calls per pass {per_pass} differ from the audit pass {audited}")
        overhead = pass_seconds(traced) - pass_seconds(plain)
        return layer_metrics(tracer, len(traced), overhead), {
            "passes": len(traced),
            "spans_of_first_ops": tracer.span_log(),
            "functions": {
                phase: {
                    ".".join(k): {"calls": e[0], "total_s": e[1], "self_s": e[2], "own_layer_s": e[3]}
                    for k, e in table.items()
                }
                for phase, table in tracer.tables.items()
            },
        }


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-pass layer figures; generators also count one traced set-up build."""
    n = float(passes)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls(layer, fn):
        return tracer.entry(layer, fn)[0] / n

    def self_s(layer, fn):
        return tracer.entry(layer, fn)[1] / n

    for name in LINALG:
        put(f"linalg.{'norm2' if name == 'norm' else name}.calls", calls("linalg", name), "count")
    put("linalg.self_s", tracer.layer_self("linalg") / n, "s")
    put("linalg.calls_per_op", tracer.linalg_in_ops / max(tracer.ops, 1), "calls/op")
    put("linalg.repeat_ratio", tracer.linalg_repeats / max(tracer.linalg_in_ops, 1), "ratio")
    put("operators.self_s", tracer.layer_self("operators") / n, "s")
    for fn, qual in (("uniform_norm", "ModuleOperator.uniform_norm"), ("psd_quotient_max", "psd_quotient_max"), ("douglas", "douglas")):
        put(f"operators.{fn}.calls", calls("operators", qual), "count")
        put(f"operators.{fn}.self_s", self_s("operators", qual), "s")
    put("operators.pinv.calls", calls("operators", "ModuleOperator.pinv"), "count")
    put("operators.range_projection.calls", calls("operators", "ModuleOperator.range_projection"), "count")
    put("gframes.self_s", tracer.layer_self("gframes") / n, "s")
    put("gframes.frame_operator.calls", calls("gframes", "GFrame.frame_operator"), "count")
    put("gframes.optimal_g_bounds.calls", calls("gframes", "optimal_g_bounds"), "count")
    put("gframes.validate_basis.calls", calls("gframes", "validate_basis"), "count")
    put("gframes.validate_basis.self_s", self_s("gframes", "validate_basis"), "s")
    put("gframes.validate_basis.repeat_ratio", tracer.validation_repeats / max(tracer.validations, 1), "ratio")
    put("kganalysis.self_s", tracer.layer_self("kganalysis") / n, "s")
    put("kganalysis.is_kg_frame.calls", calls("kganalysis", "is_kg_frame"), "count")
    put("kganalysis.is_kg_frame.self_s", self_s("kganalysis", "is_kg_frame"), "s")
    put("kganalysis.tightness_check.self_s", self_s("kganalysis", "tightness_check"), "s")
    put("duality.self_s", tracer.layer_self("duality") / n, "s")
    put("duality.canonical_k_dual.calls", calls("duality", "canonical_k_dual"), "count")
    put("duality.canonical_k_dual.self_s", self_s("duality", "canonical_k_dual"), "s")
    put("algebra.self_s", tracer.layer_self("algebra") / n, "s")
    put("algebra.psd_verdict.calls", calls("algebra", "psd_verdict"), "count")
    put("modules.self_s", tracer.layer_self("modules") / n, "s")
    # the set-up build is traced once; the passes are averaged
    gen_setup = tracer.layer_self("generators", phases=("setup",))
    put("generators.self_s", gen_setup + tracer.layer_self("generators") / n, "s")
    gen_calls = tracer.entry("generators", "generate", phases=("setup",))[0]
    put("generators.generate.calls", gen_calls + calls("generators", "generate"), "count")
    put("suite.self_s", tracer.layer_self("suite") / n, "s")
    put("docio.parse_s", tracer.layer_self("docio", DOCIO_PARSE) / n, "s")
    put("docio.serialize_s", tracer.layer_self("docio", DOCIO_SERIALIZE) / n, "s")
    put("docio.bytes_in", tracer.bytes_in / n, "bytes")
    put("docio.bytes_out", tracer.bytes_out / n, "bytes")
    put("cli.self_s", tracer.layer_self("cli") / n, "s")
    put("tracing.overhead_s", overhead_s, "s")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    run = Run(args, root)
    trace_doc = None
    try:
        setup_s = run.setup()
        if args.trace:
            metrics, trace_doc = run.trace()
        else:
            metrics = run.measure(setup_s)
    except SourceMissing as exc:
        print(f"kgbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    for err in run.errors[:20]:
        print(f"kgbench: check failed: {err}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    line = json.dumps(result, sort_keys=True)
    stem = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    with open(stem + ".result.json", "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    if trace_doc is not None:
        with open(stem + ".trace.json", "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
