"""Per-layer tracing of kgframes from outside the package.

Every public function of a layer module, every public method of a class
defined there (plus its arithmetic operators) and the decompositions in
``numpy.linalg`` are replaced by wrappers that record a span: calls, wall
time and self time (the span's time minus the time of its child spans).
A wrapper is installed wherever callers look the name up: on the class for
methods, and in every kgframes module that imported a function by name.
Nothing inside the package is edited; ``uninstall`` restores every name.

Spans are aggregated in memory per phase (``setup`` for building inputs,
``pass`` for the measured operations).  The spans of the first few
operations are also kept whole (name, start, end, parent) for the trace
file.  A second, independent count of the ``numpy.linalg`` calls is taken
with ``sys.setprofile`` at the implementation functions inside numpy, so a
call that slips past the wrappers shows as a mismatch.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "generators",
    "algebra",
    "modules",
    "operators",
    "gframes",
    "kganalysis",
    "duality",
    "suite",
    "docio",
    "cli",
)

# numpy.linalg entry points timed as the ``linalg`` layer; ``norm`` only
# counts (and is timed) as the spectral norm of a matrix, ord=2.
LINALG = ("svd", "eigh", "eigvalsh", "pinv", "inv", "norm")

_OPERATOR_DUNDERS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")

DOCIO_PARSE = frozenset(
    {"document_from_json", "parse_document", "operator_from_payload", "element_from_payload"}
)
DOCIO_SERIALIZE = frozenset(
    {"document_to_json", "build_document", "operator_to_payload", "element_to_payload"}
)

_LINALG_IMPL_MODULE = "numpy.linalg._linalg"

# the whole spans of this many first operations go to the trace file
SPAN_LOG_OPS = 2


def _is_spectral_norm(args, kwargs) -> bool:
    x = args[0] if args else kwargs.get("x")
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    axis = args[2] if len(args) > 2 else kwargs.get("axis")
    return axis is None and isinstance(ord_, int) and ord_ == 2 and np.ndim(x) == 2


def _array_key(args, kwargs):
    a = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
    return (a.shape, a.dtype.str, a.tobytes())


class Tracer:
    """Span recorder; install it around a pass, uninstall it afterwards."""

    def __init__(self, kgframes_pkg):
        self.pkg = kgframes_pkg
        self.phase = "pass"
        self.tables: dict[str, dict] = {}
        self.table: dict = self.tables.setdefault("pass", {})
        self.stack: list = []
        self._next_span = 0
        self.spans: list[tuple] = []
        self.op_index = -1
        self.in_op = False
        self.ops = 0
        self.linalg_in_ops = 0
        self.linalg_repeats = 0
        self.validations = 0
        self.validation_repeats = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._seen_arrays: set = set()
        self._seen_bases: list = []
        self._restore: list[tuple] = []
        self.numpy_counts = {name: 0 for name in LINALG}
        self._profile_codes: dict = {}

    # -- phases and operations ------------------------------------------

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.table = self.tables.setdefault(phase, {})

    def begin_op(self) -> None:
        """Start an operation; per-operation figures count the pass phase only."""
        self.in_op = self.phase == "pass"
        if self.in_op:
            self.op_index += 1
            self.ops += 1
        self._seen_arrays = set()
        self._seen_bases = []

    def end_op(self) -> None:
        self.in_op = False
        self._seen_arrays = set()
        self._seen_bases = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, key: tuple, fn, probe=None):
        tracer = self
        stack = self.stack
        perf = time.perf_counter
        layer = key[0]

        def traced(*args, **kwargs):
            if probe is not None and not probe(args, kwargs):
                return fn(*args, **kwargs)
            table = tracer.table
            entry = table.get(key)
            if entry is None:
                entry = table[key] = [0, 0.0, 0.0, 0.0]
            span_id = tracer._next_span
            tracer._next_span += 1
            # [time in child spans, span id, time in spans of other layers
            # below this one, layer]
            frame = [0.0, span_id, 0.0, layer]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[0]
                entry[3] += dt - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[2] += frame[2] if parent[3] == layer else dt
                if tracer.in_op and tracer.op_index < SPAN_LOG_OPS:
                    parent = stack[-1][1] if stack else None
                    tracer.spans.append(
                        (tracer.op_index, span_id, parent, ".".join(key), t0, t0 + dt)
                    )

        return functools.wraps(fn)(traced)

    def _linalg_probe(self, name: str):
        tracer = self

        def probe(args, kwargs) -> bool:
            if name == "norm" and not _is_spectral_norm(args, kwargs):
                return False
            if tracer.in_op:
                tracer.linalg_in_ops += 1
                key = _array_key(args, kwargs)
                if key in tracer._seen_arrays:
                    tracer.linalg_repeats += 1
                else:
                    tracer._seen_arrays.add(key)
            return True

        return probe

    def _basis_probe(self, args, kwargs) -> bool:
        basis = args[0] if args else kwargs.get("basis")
        if self.in_op:
            self.validations += 1
            if any(b is basis for b in self._seen_bases):
                self.validation_repeats += 1
            else:
                self._seen_bases.append(basis)
        return True

    def _count_read(self, fn):
        tracer = self

        @functools.wraps(fn)
        def read_text(path):
            text = fn(path)
            if tracer.phase == "pass":
                tracer.bytes_in += len(text.encode("utf-8"))
            return text

        return read_text

    def _set(self, owner, name, value) -> None:
        # vars() keeps a classmethod object as it is, so restoring is exact
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Replace every traced name; ``uninstall`` puts the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [self.pkg] + [
            sys.modules[f"{self.pkg.__name__}.{layer}"] for layer in LAYERS
        ]
        replacements: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.pkg.__name__}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    probe = None
                    if layer == "gframes" and name == "validate_basis":
                        probe = self._basis_probe
                    wrapper = self._wrap((layer, name), obj, probe)
                    if layer == "docio" and name == "document_to_json":
                        wrapper = self._count_output(wrapper)
                    replacements[id(obj)] = wrapper
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and callable(obj):
                    self._set(mod, name, wrapper)
        cli = sys.modules[f"{self.pkg.__name__}.cli"]
        self._set(cli, "_read_text", self._count_read(cli._read_text))
        for name in LINALG:
            orig = getattr(np.linalg, name)
            self._set(
                np.linalg, name, self._wrap(("linalg", name), orig, self._linalg_probe(name))
            )
            self._profile_codes[orig._implementation.__code__] = name

    def _count_output(self, wrapper):
        tracer = self

        @functools.wraps(wrapper)
        def counted(*args, **kwargs):
            text = wrapper(*args, **kwargs)
            if tracer.phase == "pass":
                tracer.bytes_out += len(text.encode("utf-8"))
            return text

        return counted

    def _wrap_class(self, layer: str, cls: type) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATOR_DUNDERS:
                continue
            key = (layer, f"{cls.__name__}.{name}")
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(key, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(key, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(key, raw)
            else:
                continue
            self._set(cls, name, wrapped)

    @contextlib.contextmanager
    def active(self, phase: str, profile: bool = False):
        """Trace the enclosed calls as ``phase``; with ``profile`` also take
        the independent count at numpy.linalg."""
        self.set_phase(phase)
        self.install()
        if profile:
            sys.setprofile(self._profile)
        try:
            yield self
        finally:
            sys.setprofile(None)
            self.uninstall()

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore = []

    # -- independent count at numpy.linalg ----------------------------------

    def _profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        name = self._profile_codes.get(frame.f_code)
        if name is None:
            return
        back = frame.f_back
        if back is not None and back.f_globals.get("__name__") == _LINALG_IMPL_MODULE:
            return
        if name == "norm":
            loc = frame.f_locals
            if not _is_spectral_norm((loc["x"], loc["ord"], loc["axis"]), {}):
                return
        self.numpy_counts[name] += 1

    # -- results --------------------------------------------------------------

    def entry(self, layer: str, name: str, phases=("pass",)) -> tuple[int, float]:
        """(calls, own-layer time) of one function.

        Own-layer time is the span's time minus the spans of other layers
        below it, so a function keeps the time of same-layer helpers it
        calls (validate_basis keeps basis_axiom_report).
        """
        calls, own = 0, 0.0
        for phase in phases:
            e = self.tables.get(phase, {}).get((layer, name))
            if e is not None:
                calls += e[0]
                own += e[3]
        return calls, own

    def layer_self(self, layer: str, names=None, phases=("pass",)) -> float:
        """Self time of a layer: its spans minus all their child spans."""
        out = 0.0
        for phase in phases:
            for (lay, name), e in self.tables.get(phase, {}).items():
                if lay == layer and (names is None or name in names):
                    out += e[2]
        return out

    def linalg_counts(self, phase: str = "pass") -> dict[str, int]:
        return {name: self.entry("linalg", name, (phase,))[0] for name in LINALG}

    def span_log(self) -> list[dict]:
        return [
            {"op": op, "span": sid, "parent": parent, "name": name, "start": t0, "end": t1}
            for op, sid, parent, name, t0, t1 in self.spans
        ]
