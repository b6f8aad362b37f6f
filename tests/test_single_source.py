"""Each numerical decision is made in one place: the rank cutoff is
algebra.rank_cutoff, the residual gate is algebra.slack, and the pencil's
fixed floor is algebra.INCLUSION_TOL.  Only the three decision inputs
(tol_eq, tol_psd, rel_tol) are tolerance parameters; every other
threshold is a module constant."""

import ast
import inspect
import pathlib
import re

import kgframes as kg
from kgframes import algebra, duality, generators, gframes, kganalysis, suite
from kgframes.operators import pencil_over_spectrum

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "kgframes"

# the floor, the constant that used to spell it, and an inline cutoff
FORBIDDEN = re.compile(r"1e-300|_TINY|rel_tol\s*\*\s*max\(")

# a tolerance (a tol... name or an Ne-M literal) times (1 + ...), or
# anything times (1 + an Ne-M literal), also when the expression is
# wrapped over several lines
INLINE_SLACK = re.compile(
    r"(?i:\b(?:\w*_)?tol(?:_\w+)?|\b\d+(?:\.\d*)?e-\d+)\s*\*\s*\(\s*1(?:\.0*)?\s*\+"
    r"|\*\s*\(\s*1(?:\.0*)?\s*\+\s*\d+(?:\.\d*)?e-\d+"
)

# the three decision inputs, the only tolerances a caller sets
DECISION_INPUTS = {"tol_eq", "tol_psd", "rel_tol"}


def _modules():
    modules = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "algebra.py" in modules
    return [path for path in modules if path.name != "algebra.py"]


def test_no_rank_cutoff_outside_algebra():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in _modules()
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if FORBIDDEN.search(line)
    ]
    assert not hits, "rank cutoff spelled outside algebra.py:\n" + "\n".join(hits)


def test_no_residual_gate_outside_algebra():
    hits = []
    for path in _modules():
        text = path.read_text()
        for match in INLINE_SLACK.finditer(text):
            number = text.count("\n", 0, match.start()) + 1
            hits.append(f"{path.name}:{number}: {' '.join(match.group(0).split())}")
    assert not hits, "slack spelled outside algebra.py:\n" + "\n".join(hits)


def test_the_guard_sees_an_inline_slack():
    for spelled in (
        "x <= tol_eq * (1.0 + k_norm)",
        "x <= config.tol_eq * (1.0 + k.uniform_norm())",
        "x <= 1e-10 * (\n    1.0 + abs(recorded)\n)",
        "x > inclusion_tol * (1 + m)",
        "x <= REVALIDATION_TOL * (1.0 + abs(old))",
        "ceiling * (1.0 + 1e-6)",
        "x <= c * (\n    1 + 2.5e-8\n) + 1e-8",
    ):
        assert INLINE_SLACK.search(spelled), spelled
    for fine in (
        "lower_c * (1.0 - 1e-9)",
        "gap / (1.0 + size)",
        "slack(tol, s)",
        "total * (1.0 + s)",
    ):
        assert not INLINE_SLACK.search(fine), fine


def test_slack_is_the_tolerance_times_one_plus_the_scale():
    assert kg.slack is algebra.slack
    assert kg.slack(1e-8, 0.0) == 1e-8
    assert kg.slack(1e-8, 3.0) == 1e-8 * (1.0 + 3.0) == 4e-8
    assert kg.slack(0.5, 2.5) == 1.75
    assert kg.slack(-1.0, 1.0) == -2.0


def test_the_inclusion_floor_is_one_exported_constant():
    assert "INCLUSION_TOL" in kg.__all__
    assert kg.INCLUSION_TOL == algebra.INCLUSION_TOL == 1e-12
    for fn in (kg.psd_quotient_max, pencil_over_spectrum):
        assert "inclusion_tol" not in inspect.signature(fn).parameters


def _defaulted_parameters(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [
                arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            for arg in defaulted:
                yield node, arg.arg


def test_only_the_decision_inputs_are_tolerance_parameters():
    paths = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "algebra.py" in paths
    knobs = [
        f"{path.name}:{node.lineno}: {node.name}({name}=...)"
        for path in paths
        for node, name in _defaulted_parameters(path)
        if re.search(r"tol|slack", name) and name not in DECISION_INPUTS
    ]
    assert not knobs, "tolerance parameters:\n" + "\n".join(knobs)


def test_generator_settings_and_thresholds_are_constants():
    assert list(inspect.signature(generators.clamped_square).parameters) == [
        "rng",
        "shape",
        "rank",
    ]
    assert list(inspect.signature(generators.polynomial_in).parameters) == [
        "rng",
        "k_op",
    ]
    for value, expected in (
        (algebra.TOL_HERM, 1e-10),
        (gframes.BASIS_TOL, 1e-10),
        (gframes.TIGHT_TOL, 1e-8),
        (duality.ISOMETRY_TOL, 1e-10),
        (duality.COMMUTATION_TOL, 1e-10),
        (duality.SANDWICH_TOL, 1e-10),
        (duality.ENVELOPE_SLACK, 1e-8),
        (kganalysis.RESOLUTION_SUM_TOL, 1e-10),
        (kganalysis.REEVALUATION_TOL, 1e-10),
        (suite.REVALIDATION_TOL, 1e-10),
    ):
        assert value == expected
    for cls in (kg.AlgebraElement, kg.ModuleOperator):
        assert not hasattr(cls, "allclose")
