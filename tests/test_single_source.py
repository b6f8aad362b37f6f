"""Each numerical decision is made in one place: every rank decision is
algebra.kept_mask (the only caller of algebra.rank_cutoff), the residual
gate is algebra.slack (which algebra.within_slack applies from norm
bounds), and the pencil's fixed floor is algebra.INCLUSION_TOL.  Only
the three decision inputs (tol_eq, tol_psd, rel_tol) are tolerance
parameters; every other threshold is a module constant, and the suite
hands the decision inputs to every call that takes one.  The suite's
one seed rule is suite.Trial.seed.  Blocks are copied (`_freeze`) and
adopted (`_adopt`) only by the block core, algebra._Blocks, and what is
measured of a frame is kept in one table that only gframes.py touches.
Every definition has a caller in the package."""

import ast
import inspect
import pathlib
import re

import kgframes as kg
from kgframes import algebra, duality, generators, gframes, kganalysis, suite
from kgframes.operators import pencil_over_spectrum

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "kgframes"

# the floor, the constant that used to spell it, an inline cutoff, and a
# cutoff applied apart from the mask
FORBIDDEN = re.compile(r"1e-300|_TINY|rel_tol\s*\*\s*max\(|\brank_cutoff\s*\(")

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


def test_the_guard_sees_a_cutoff_applied_apart_from_the_mask():
    for spelled in (
        "keep = svals > rank_cutoff(svals[0], rel_tol)",
        "cutoff = algebra.rank_cutoff (top, rel_tol)",
        "large = s > rel_tol * max(top, floor)",
        "floor = 1e-300",
    ):
        assert FORBIDDEN.search(spelled), spelled
    for fine in (
        "keep = kept_mask(svals, rel_tol)",
        "from .algebra import rank_cutoff",
        "`rank_cutoff` of the largest modulus",
        "my_rank_cutoffs = ()",
    ):
        assert not FORBIDDEN.search(fine), fine


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


def _parameters(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in (
                *args.posonlyargs,
                *args.args,
                args.vararg,
                *args.kwonlyargs,
                args.kwarg,
            ):
                if arg is not None:
                    yield node, arg.arg


GATE_TOLS = {("algebra.py", "slack", "tol"), ("algebra.py", "within_slack", "tol")}


def test_only_the_decision_inputs_are_tolerance_parameters():
    paths = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "algebra.py" in paths
    knobs = [
        f"{path.name}:{node.lineno}: {getattr(node, 'name', 'lambda')}({name})"
        for path in paths
        for node, name in _parameters(path)
        if re.search(r"tol|slack", name)
        and name not in DECISION_INPUTS
        # the gates themselves: their tol is whichever tolerance the caller
        # gates by
        and (path.name, getattr(node, "name", None), name) not in GATE_TOLS
    ]
    assert not knobs, "tolerance parameters:\n" + "\n".join(knobs)
    for gate in (algebra.slack, algebra.within_slack):
        tol = inspect.signature(gate).parameters["tol"]
        assert tol.default is inspect.Parameter.empty, gate.__name__


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
        (algebra.BRACKET_ROOM, 1e-6),
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


# -- the suite: decision inputs reach every call, one seed rule ------------

SUITE = SOURCE / "suite.py"


def _decision_parameters(fn, bound):
    """(position, name) of each decision input fn takes; a bound method's
    self is not a position."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return []
    if bound:
        params = params[1:]
    return [(pos, name) for pos, name in enumerate(params) if name in DECISION_INPUTS]


def _package_methods():
    """Method name -> the methods of that name on the package's classes."""
    methods = {}
    for module in vars(kg).values():
        if not inspect.ismodule(module) or not module.__name__.startswith("kgframes."):
            continue
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for name, raw in vars(cls).items():
                    if inspect.isfunction(raw):
                        methods.setdefault(name, []).append(raw)
    return methods


def _calls_missing_a_decision_input(text, namespace):
    """Calls in `text` to a function or method with a decision input that
    do not pass it; `_raises(error, fn, *args, **kwargs)` calls fn."""
    methods = _package_methods()
    missing = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "_raises":
            func, args = args[1], args[2:]
        if isinstance(func, ast.Name):
            target = namespace.get(func.id)
            wanted = _decision_parameters(target, False) if callable(target) else []
            label = func.id
        elif isinstance(func, ast.Attribute):
            wanted = {
                pair
                for method in methods.get(func.attr, ())
                for pair in _decision_parameters(method, True)
            }
            label = f".{func.attr}"
        else:
            continue
        positional = len([a for a in args if not isinstance(a, ast.Starred)])
        passed = {kw.arg for kw in node.keywords}
        for pos, name in sorted(wanted):
            if pos >= positional and name not in passed:
                missing.append(f"suite.py:{node.lineno}: {label}(... {name} missing)")
    return missing


def test_every_suite_call_passes_the_decision_inputs():
    missing = _calls_missing_a_decision_input(SUITE.read_text(), vars(suite))
    assert not missing, "\n".join(missing)


def test_the_call_guard_sees_a_missing_decision_input():
    spelled = {
        "is_kg_frame(frame, k_op)": 1,
        "is_kg_frame(frame, k_op, rel_tol=t.rel_tol)": 0,
        "bounds.is_frame()": 1,
        "bounds.is_frame(t.rel_tol)": 0,
        "_raises(IsometryError, isometry_left_transform, f, k, w)": 1,
        "_raises(IsometryError, isometry_left_transform, f, k, w, rel_tol=r)": 0,
        "transform_by_q(f, k, q, tol_eq=e)": 1,
        "x.positivity(tol_psd=p)": 0,
    }
    for text, count in spelled.items():
        assert len(_calls_missing_a_decision_input(text, vars(suite))) == count, text


def _inside_functions(tree):
    """(node, qualified name of the innermost function around it) for every
    node inside a function or method, e.g. ``Trial.seed``."""

    def visit(node, names, in_function):
        for child in ast.iter_child_nodes(node):
            if in_function:
                yield child, ".".join(names)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, [*names, child.name], True)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, [*names, child.name], in_function)
            else:
                yield from visit(child, names, in_function)

    yield from visit(tree, [], False)


def _sub_seed_sites(text):
    return [
        (node.lineno, scope)
        for node, scope in _inside_functions(ast.parse(text))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sub_seed"
    ]


def _check_id_literals(text):
    return [
        f"suite.py:{node.lineno}: {node.value!r} in {scope}"
        for node, scope in _inside_functions(ast.parse(text))
        if isinstance(node, ast.Constant) and node.value in suite.CHECKS
    ]


def test_trial_seed_is_the_suites_one_seed_rule():
    sites = _sub_seed_sites(SUITE.read_text())
    assert [scope for _, scope in sites] == ["Trial.seed"], sites


def test_no_check_id_is_spelled_inside_a_suite_function():
    hits = _check_id_literals(SUITE.read_text())
    assert not hits, "\n".join(hits)


def test_the_seed_guards_see_a_second_rule():
    text = (
        "def _check_x(config, trial):\n"
        "    seed = sub_seed(config.seed, 'synthesis_bound#probe', trial)\n"
        "    return draw_spec('generic', sub_seed(1, 'synthesis_bound', trial))\n"
        "class Trial:\n"
        "    def seed(self):\n"
        "        return sub_seed(0, 'x', 1)\n"
        "IDS = ('synthesis_bound',)\n"
    )
    assert _sub_seed_sites(text) == [
        (2, "_check_x"),
        (3, "_check_x"),
        (6, "Trial.seed"),
    ]
    assert _check_id_literals(text) == ["suite.py:3: 'synthesis_bound' in _check_x"]


# -- the block core: the one construction and adoption path ---------------

ADOPTION = {"_freeze", "_adopt"}
CORE_SITES = {("algebra.py", "_Blocks.__init__"), ("algebra.py", "_Blocks._fresh")}


def _adoption_sites(text):
    """(line, innermost function) of every reference to `_freeze` or
    `_adopt` in `text`, imports included ("" outside any function)."""
    tree = ast.parse(text)
    scopes = {id(node): scope for node, scope in _inside_functions(tree)}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.alias):
            names = {node.name, node.asname}
        else:
            continue
        if names & ADOPTION:
            sites.append((node.lineno, scopes.get(id(node), "")))
    return sorted(sites)


def test_only_the_block_core_copies_and_adopts_blocks():
    sites = {
        (path.name, scope)
        for path in sorted(SOURCE.glob("*.py"))
        for _, scope in _adoption_sites(path.read_text())
    }
    assert sites == CORE_SITES


def test_the_core_guard_sees_a_second_adoption_path():
    text = (
        "from .algebra import _adopt, _freeze as freeze\n"
        "class ModuleVector:\n"
        "    @classmethod\n"
        "    def _fresh(cls, shape, rank, stacks):\n"
        "        return algebra._adopt(stacks)\n"
        "    def __init__(self, shape, rank, stacks):\n"
        "        self.stacks = tuple(freeze(s) for s in stacks)\n"
    )
    assert _adoption_sites(text) == [(1, ""), (1, ""), (5, "ModuleVector._fresh")]


# -- the frame's kept table: one owner ---------------------------------------

KEPT_TABLE = "_kept"


def _kept_table_sites(text):
    """Line of every reference to the frame's kept table in `text`: the
    attribute, or its name as a string (a slot, a getattr)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(text))
        if (isinstance(node, ast.Attribute) and node.attr == KEPT_TABLE)
        or (isinstance(node, ast.Constant) and node.value == KEPT_TABLE)
    )


def test_only_gframes_touches_the_frames_kept_table():
    hits = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "gframes.py"
        for line in _kept_table_sites(path.read_text())
    ]
    assert not hits, "kept table touched outside gframes.py:\n" + "\n".join(hits)
    assert _kept_table_sites((SOURCE / "gframes.py").read_text())
    # everything measured of a frame lives in that one table
    assert gframes.GFrame.__slots__ == (
        "shape",
        "domain_rank",
        "members",
        "offsets",
        KEPT_TABLE,
    )


def test_the_kept_table_guard_sees_a_second_site():
    text = (
        "def is_kg_frame(frame, k_op, rel_tol):\n"
        "    key = ('kg_report', k_op, rel_tol)\n"
        "    report = frame._kept.get(key)\n"
        "    getattr(frame, '_kept')[key] = report\n"
        "    return frame.kept(key, lambda: report)\n"
    )
    assert _kept_table_sites(text) == [3, 4]


# -- every definition has a caller in the package ----------------------------

UNCALLED_ALLOWED = {
    "revalidate",  # ROADMAP item 8 wires it to `verify --recheck`
    "witness_low",  # ROADMAP item 2 reads it for `check --certify`
    "witness_high",  # ROADMAP item 2 reads it for `check --certify`
}


def _uncalled_definitions(texts):
    """`file:line: name` of each def or class in `texts` (file name ->
    source) whose name no other code there references, as a name or an
    attribute.  Dunder methods are called by the language, and
    `__init__.py` only re-exports, so neither counts."""
    defined, referenced = {}, set()
    for path, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not re.fullmatch(r"__\w+__", node.name):
                    defined.setdefault(node.name, (path, node.lineno))
            elif path == "__init__.py":
                continue
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [
        f"{path}:{line}: {name}"
        for name, (path, line) in sorted(defined.items(), key=lambda item: item[1])
        if name not in referenced
    ]


def test_every_definition_has_a_caller_in_the_package():
    texts = {path.name: path.read_text() for path in sorted(SOURCE.glob("*.py"))}
    assert "__init__.py" in texts
    hits = _uncalled_definitions(texts)
    uncalled = [hit for hit in hits if hit.rsplit(": ", 1)[1] not in UNCALLED_ALLOWED]
    assert not uncalled, "definitions nothing calls:\n" + "\n".join(uncalled)
    # an entry whose definition has gained a caller leaves the allowlist
    assert {hit.rsplit(": ", 1)[1] for hit in hits} == UNCALLED_ALLOWED


def test_the_caller_guard_sees_an_uncalled_definition():
    texts = {
        "__init__.py": "from .frames import leq, Frame\n__all__ = ['leq', 'Frame']\n",
        "frames.py": (
            "class Frame:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def member(self, i):\n"
            "        return i\n"
            "    def size(self):\n"
            "        return self.count()\n"
            "    def count(self):\n"
            "        return 1\n"
            "def leq(a, b):\n"
            "    return a <= b\n"
        ),
        "suite.py": "from .frames import Frame\n\ndef run():\n    return Frame().size()\n",
    }
    assert _uncalled_definitions(texts) == [
        "frames.py:4: member",
        "frames.py:10: leq",
        "suite.py:3: run",
    ]
