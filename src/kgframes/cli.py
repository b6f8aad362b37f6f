"""Command-line interface: check instances, build duals, run the suite.

Exit codes: 0 success; 1 usage, document, or internal error; 2 refusal
(the property asked about does not hold); 3 the suite passed but the
audited check recorded counterexamples.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from .algebra import TOL_PSD, TOL_RANK, slack
from .docio import (
    InstanceDocument,
    build_certificate,
    document_from_json,
    document_to_json,
    parse_certificate,
)
from .duality import canonical_k_dual, verify_k_dual
from .errors import DualityError, KGFrameError
from .generators import Caps
from .gframes import is_g_complete, optimal_g_bounds
from .kganalysis import is_kg_frame, tightness_scale
from .operators import TOL_EQ
from .suite import (
    SuiteConfig,
    document_json,
    list_check_ids,
    run_theorem_suite,
)
from .version import __version__

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUSED = 2
EXIT_AUDITED = 3

GAP_RATIO_WARNING = 1e3


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol-eq",
        type=float,
        default=TOL_EQ,
        help="relative tolerance for operator identities",
    )
    parser.add_argument(
        "--tol-rank",
        type=float,
        default=TOL_RANK,
        help="relative singular-value cutoff for ranks and pseudoinverses",
    )


def _check_tolerances(args: argparse.Namespace) -> None:
    """Refuse a given tolerance that is not a finite positive number."""
    for name in ("tol_eq", "tol_rank", "tol_psd"):
        value = getattr(args, name, None)
        if value is not None and not (np.isfinite(value) and value > 0):
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be a finite positive number")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_instance(path: str) -> InstanceDocument:
    return document_from_json(_read_text(path))


def _get_reference(doc: InstanceDocument, name: str):
    if name not in doc.operators:
        return None
    op = doc.operators[name]
    if not (op.domain_rank == op.codomain_rank == doc.module_rank):
        raise KGFrameError(
            f"operator {name!r} must be square on the module "
            f"(rank {doc.module_rank}); got {op.domain_rank} -> {op.codomain_rank}"
        )
    return op


def _fmt(x: float) -> str:
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


# -- check ----------------------------------------------------------------


def _cmd_check(args: argparse.Namespace) -> int:
    doc = _load_instance(args.input)
    frame = doc.frame
    bounds = optimal_g_bounds(frame)
    complete = is_g_complete(frame, rel_tol=args.tol_rank)
    print(f"members: {len(frame.members)}  module rank: {doc.module_rank}")
    print(
        f"optimal bounds: lower {_fmt(bounds.lower)}  upper {_fmt(bounds.upper)}"
        f"  tight: {'yes' if bounds.tight else 'no'}"
    )
    print(f"complete: {'yes' if complete else 'no'}")

    k_op = _get_reference(doc, args.reference)
    holds: bool
    if k_op is None:
        holds = bounds.is_frame(args.tol_rank)
        print(f"frame: {'yes' if holds else 'no'} (no reference operator present)")
    else:
        rep = is_kg_frame(frame, k_op, rel_tol=args.tol_rank)
        holds = rep.is_k_g_frame
        print(
            f"frame relative to {args.reference!r}: {'yes' if holds else 'no'}"
            f"  optimal lower scale: {_fmt(rep.lower_c)}"
        )
        if rep.degenerate_zero_k:
            print("note: the reference operator vanishes; the verdict is vacuous")
        if np.isfinite(rep.pencil.gap_ratio) and rep.pencil.gap_ratio < GAP_RATIO_WARNING:
            print(
                "warning: retained-to-dropped eigenvalue ratio "
                f"{_fmt(rep.pencil.gap_ratio)} is below {_fmt(GAP_RATIO_WARNING)}; "
                "the verdict is sensitive to the rank cutoff",
                file=sys.stderr,
            )
        if not holds and rep.counterexample is not None:
            ce = rep.counterexample
            print(
                "counterexample witness: block "
                f"{ce.block}, lhs seminorm {_fmt(ce.lhs_seminorm)}, "
                f"rhs seminorm {_fmt(ce.rhs_seminorm)}"
            )
    if args.require_tight:
        if k_op is None:
            print("tightness requires a reference operator", file=sys.stderr)
            return EXIT_ERROR
        tight, scale, residual = tightness_scale(frame, k_op, tol_eq=args.tol_eq)
        print(
            f"tight: {'yes' if tight else 'no'}"
            f"  scale: {_fmt(scale)}  residual: {_fmt(residual)}"
        )
        holds = holds and tight
    return EXIT_OK if holds else EXIT_REFUSED


# -- dual -----------------------------------------------------------------


def _cmd_dual(args: argparse.Namespace) -> int:
    if args.recheck:
        return _recheck_dual(args)
    reference = "reference" if args.reference is None else args.reference
    tol_eq = TOL_EQ if args.tol_eq is None else args.tol_eq
    rel_tol = TOL_RANK if args.tol_rank is None else args.tol_rank
    doc = _load_instance(args.input)
    k_op = _get_reference(doc, reference)
    if k_op is None:
        print(
            f"no operator named {reference!r} in the document; "
            "a dual needs a reference operator",
            file=sys.stderr,
        )
        return EXIT_ERROR
    try:
        result = canonical_k_dual(doc.frame, k_op, tol_eq=tol_eq, rel_tol=rel_tol)
    except DualityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    if not result.certificate.is_dual:
        print(
            "refused: the constructed family fails its own dual check: residual "
            f"{_fmt(result.certificate.residual)} at tol_eq {_fmt(tol_eq)}",
            file=sys.stderr,
        )
        return EXIT_REFUSED
    if result.conditioning_warning:
        print(
            "warning: the frame operator is poorly conditioned on the range "
            f"of the reference operator (retained ratio "
            f"{_fmt(result.smallest_retained_ratio)})",
            file=sys.stderr,
        )
    payload = build_certificate(
        doc, reference, result.frame, result.certificate, tol_eq
    )
    _write_text(args.output, document_to_json(payload))
    return EXIT_OK


def _recheck_dual(args: argparse.Namespace) -> int:
    """Recompute a certificate's residual; judge it at the recorded tol_eq
    unless --tol-eq is given, and refuse a certificate recording no dual.
    A flag that a re-check would ignore is refused."""
    for flag, value, why in (
        ("-o", args.output, "a re-check writes no certificate"),
        ("--reference", args.reference, "the certificate names its reference"),
        ("--tol-rank", args.tol_rank, "a re-check builds no dual"),
    ):
        if value is not None:
            raise ValueError(f"--recheck takes no {flag}: {why}")
    cert_doc = parse_certificate(_read_text(args.input))
    doc = cert_doc.instance
    k_op = _get_reference(doc, cert_doc.reference)
    tol_eq = cert_doc.tol_eq if args.tol_eq is None else args.tol_eq
    cert = verify_k_dual(doc.frame, cert_doc.dual_frame, k_op, tol_eq=tol_eq)
    recorded = cert_doc.residual
    reproduced = recorded is not None and abs(recorded - cert.residual) <= slack(
        1e-10, abs(recorded)
    )
    print(
        "recorded residual: missing"
        if recorded is None
        else f"recorded residual: {_fmt(recorded)}"
    )
    print(f"recomputed residual: {_fmt(cert.residual)}  at tol_eq {_fmt(tol_eq)}")
    print(f"recorded dual: {'yes' if cert_doc.is_dual else 'no'}")
    print(f"dual: {'yes' if cert.is_dual else 'no'}  reproduced: {'yes' if reproduced else 'no'}")
    ok = cert.is_dual and reproduced and cert_doc.is_dual
    return EXIT_OK if ok else EXIT_REFUSED


# -- verify ---------------------------------------------------------------


def _parse_max_dims(text: str) -> Caps:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (4, 5):
        raise ValueError(
            "--max-dims takes 'blocks,block_dim,module_rank,members[,codomain_rank]'"
        )
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise ValueError("--max-dims entries must be integers") from None
    # an absent fifth entry keeps the default codomain-rank cap
    return Caps(*numbers)


def _cmd_verify(args: argparse.Namespace) -> int:
    caps = Caps() if args.max_dims is None else _parse_max_dims(args.max_dims)
    check_ids = None
    if args.theorems is not None:
        check_ids = tuple(
            name.strip() for name in args.theorems.split(",") if name.strip()
        )
        if not check_ids:
            raise ValueError("--theorems was given but names no checks")
    config = SuiteConfig(
        trials=args.trials,
        seed=args.seed,
        check_ids=check_ids,
        caps=caps,
        tol_eq=args.tol_eq,
        tol_psd=args.tol_psd,
        rel_tol=args.tol_rank,
    )
    started = time.perf_counter()
    result = run_theorem_suite(config)
    elapsed = time.perf_counter() - started
    _write_text(args.output, document_json(result))
    for report in result.reports:
        status = "pass" if report.passes == report.trials else "FAIL"
        extra = ""
        if report.audited_counterexamples:
            extra = f"  audited counterexamples: {len(report.audited_counterexamples)}"
        print(
            f"{status}  {report.check_id}: {report.passes}/{report.trials}{extra}",
            file=sys.stderr,
        )
    print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    if not result.all_passed:
        return EXIT_REFUSED
    if result.audited_total > 0:
        return EXIT_AUDITED
    return EXIT_OK


# -- entry point ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error exits EXIT_ERROR: argparse's 2 is the refusal code."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgframes",
        description=(
            "Finite-dimensional laboratory for operator-weighted frames in "
            "modules over block matrix algebras"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check",
        help="report frame bounds and verdicts for an instance document",
    )
    p_check.add_argument("input", help="instance document path, or '-' for stdin")
    p_check.add_argument(
        "--reference",
        default="reference",
        help="name of the reference operator inside the document",
    )
    p_check.add_argument(
        "--require-tight",
        action="store_true",
        help="also require one positive scale equating the weighted square "
        "with the frame operator",
    )
    _add_tolerance_flags(p_check)
    p_check.set_defaults(fn=_cmd_check)

    p_dual = sub.add_parser(
        "dual",
        help="construct the canonical dual family with a verification "
        "certificate, or re-check one",
    )
    p_dual.add_argument(
        "input", help="instance document path (or certificate path with --recheck)"
    )
    p_dual.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p_dual.add_argument(
        "--reference",
        default="reference",
        help="name of the reference operator inside the document",
    )
    p_dual.add_argument(
        "--recheck",
        action="store_true",
        help="re-verify a previously emitted dual-certificate document",
    )
    _add_tolerance_flags(p_dual)
    # absent, --reference, --tol-eq and --tol-rank mean their defaults for a
    # new dual; --recheck takes the recorded tol_eq and refuses the others
    p_dual.set_defaults(fn=_cmd_dual, reference=None, tol_eq=None, tol_rank=None)

    p_verify = sub.add_parser(
        "verify",
        help="run the randomized verification suite and emit its report",
    )
    p_verify.add_argument("--trials", type=int, default=50, help="trials per check")
    p_verify.add_argument("--seed", type=int, default=0, help="root seed")
    p_verify.add_argument(
        "--theorems",
        default=None,
        help=f"comma-separated check ids (known: {', '.join(list_check_ids())})",
    )
    p_verify.add_argument(
        "--max-dims",
        default=None,
        help="size caps as 'blocks,block_dim,module_rank,members[,codomain_rank]'",
    )
    p_verify.add_argument(
        "-o", "--output", default=None, help="report path (default stdout)"
    )
    p_verify.add_argument(
        "--tol-psd",
        type=float,
        default=TOL_PSD,
        help="relative eigenvalue floor for positivity verdicts",
    )
    _add_tolerance_flags(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first command of a process and reused:
    every parse starts from a fresh namespace, so nothing carries over."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_tolerances(args)
        return args.fn(args)
    except KGFrameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
