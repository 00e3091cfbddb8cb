"""Pinned outputs: reports must match the files under tests/golden byte for byte.

The catalog files hold one `VerificationReport.to_json()` per (target,
property) pair of `scripts/run_full_verification.py`; the corrupt files
hold the stdout of `verify --corrupt`, failure dump included.  They change
only on purpose, with a note in CHANGES.md.  To rewrite them from the
current code:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from yblattice.cli import main
from yblattice.verify import sweep

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
SEED, SAMPLES, BOUND = 42, 30, 10


def _load_plan():
    script = ROOT.parent / "scripts" / "run_full_verification.py"
    spec = importlib.util.spec_from_file_location("run_full_verification", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.plan())


PLAN = _load_plan()

CORRUPT_RUNS = (("e1-shaded", "yb"), ("e5", "functional-relations"))


def _catalog_name(target, prop) -> str:
    return f"catalog/{target.label().replace(':', '')}.{prop.value}.json"


def _catalog_text(target, prop) -> str:
    report = sweep(target, prop, seed=SEED, n=SAMPLES, bound=BOUND)
    return report.to_json() + "\n"


def _corrupt_argv(map_str: str, prop: str) -> list:
    return [
        "verify", "--map", map_str, "--property", prop, "--corrupt",
        "--seed", str(SEED), "--samples", str(SAMPLES), "--bound", str(BOUND),
    ]


def _corrupt_text(map_str: str, prop: str) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(_corrupt_argv(map_str, prop))
    assert code == 1
    return buf.getvalue()


def _outputs():
    for target, prop in PLAN:
        yield _catalog_name(target, prop), lambda t=target, p=prop: _catalog_text(t, p)
    for map_str, prop in CORRUPT_RUNS:
        yield f"corrupt/{map_str}.{prop}.json", lambda m=map_str, p=prop: _corrupt_text(m, p)


def test_plan_covers_the_catalog():
    names = [_catalog_name(t, p) for t, p in PLAN]
    assert len(names) == len(set(names)) == 54
    assert sorted(names) == sorted(
        str(p.relative_to(GOLDEN)) for p in (GOLDEN / "catalog").glob("*.json")
    )


@pytest.mark.parametrize("target,prop", PLAN, ids=lambda v: getattr(v, "value", None) or v.label())
def test_catalog_report_matches_golden(target, prop):
    want = (GOLDEN / _catalog_name(target, prop)).read_bytes()
    assert _catalog_text(target, prop).encode() == want


@pytest.mark.parametrize("map_str,prop", CORRUPT_RUNS)
def test_corrupt_report_matches_golden(map_str, prop):
    want = (GOLDEN / f"corrupt/{map_str}.{prop}.json").read_bytes()
    got = _corrupt_text(map_str, prop)
    assert '"first_failure"' in got
    assert got.encode() == want


if __name__ == "__main__":
    for name, produce in _outputs():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(produce().encode())
        print(path.relative_to(ROOT.parent))
