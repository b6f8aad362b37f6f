"""The rank cutoff is decided in one place: algebra.rank_cutoff."""

import pathlib
import re

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "kgframes"

# the floor, the constant that used to spell it, and an inline cutoff
FORBIDDEN = re.compile(r"1e-300|_TINY|rel_tol\s*\*\s*max\(")


def test_no_rank_cutoff_outside_algebra():
    modules = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "algebra.py" in modules
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in modules
        if path.name != "algebra.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if FORBIDDEN.search(line)
    ]
    assert not hits, "rank cutoff spelled outside algebra.py:\n" + "\n".join(hits)
