"""Pinned outputs: reports must match the files under tests/golden byte for byte.

The catalog files hold one `VerificationReport.to_json()` per (target,
property) pair of `yblattice.verify.plan()`; the corrupt files
hold the stdout of `verify --corrupt`, failure dump included, for every
property with a corruption fixture on every map it covers; the cli files
hold the stdout of `simulate` runs (one of them ending in a singular
marker) and of `list-maps`.  They change only on purpose, with a note in
CHANGES.md.  To rewrite them from the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from yblattice.cli import main
from yblattice.verify import plan, sweep

ROOT = Path(__file__).resolve().parent
GOLDEN = ROOT / "golden"
SEED, SAMPLES, BOUND = 42, 30, 10
PLAN = list(plan())

MAPS = (
    "e1-shaded", "e1-blank", "e2", "e3", "e4",
    "e4-eps0-scaling", "e4-eps0-joint", "e5", "vnls:3",
)
CORRUPT_RUNS = tuple(
    (map_str, prop)
    for map_str in MAPS
    for prop in ("yb", "unitarity", "commuting-diagram", "functional-relations")
) + (("e1-shaded", "zero-curvature"),)

# (file under golden/cli, argv, exit code)
CLI_RUNS = (
    ("simulate-period6-sweeps20-seed11-bound5.csv",
     ["simulate", "--period", "6", "--sweeps", "20", "--seed", "11", "--bound", "5"], 0),
    ("simulate-length7-flips1234532-seed4.csv",
     ["simulate", "--length", "7", "--flips", "1,2,3,4,5,3,2", "--seed", "4"], 0),
    ("simulate-period3-sweeps8-seed20-bound1.csv",
     ["simulate", "--period", "3", "--sweeps", "8", "--seed", "20", "--bound", "1"], 1),
    ("list-maps.txt", ["list-maps"], 0),
)


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


def _corrupt_name(map_str: str, prop: str) -> str:
    return f"corrupt/{map_str.replace(':', '')}.{prop}.json"


def _stdout(argv: list, exit_code: int) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == exit_code
    return buf.getvalue()


def _corrupt_text(map_str: str, prop: str) -> str:
    return _stdout(_corrupt_argv(map_str, prop), 1)


def _outputs():
    for target, prop in PLAN:
        yield _catalog_name(target, prop), lambda t=target, p=prop: _catalog_text(t, p)
    for map_str, prop in CORRUPT_RUNS:
        yield _corrupt_name(map_str, prop), lambda m=map_str, p=prop: _corrupt_text(m, p)
    for name, argv, code in CLI_RUNS:
        yield f"cli/{name}", lambda a=argv, c=code: _stdout(a, c)


def test_plan_covers_the_catalog():
    names = [_catalog_name(t, p) for t, p in PLAN]
    assert len(names) == len(set(names)) == 58
    assert sorted(names) == sorted(
        str(p.relative_to(GOLDEN)) for p in (GOLDEN / "catalog").glob("*.json")
    )


@pytest.mark.parametrize("target,prop", PLAN, ids=lambda v: getattr(v, "value", None) or v.label())
def test_catalog_report_matches_golden(target, prop):
    want = (GOLDEN / _catalog_name(target, prop)).read_bytes()
    assert _catalog_text(target, prop).encode() == want


@pytest.mark.parametrize("map_str,prop", CORRUPT_RUNS)
def test_corrupt_report_matches_golden(map_str, prop):
    want = (GOLDEN / _corrupt_name(map_str, prop)).read_bytes()
    got = _corrupt_text(map_str, prop)
    assert '"first_failure"' in got
    assert got.encode() == want


def test_corrupt_runs_cover_the_golden_files():
    names = {_corrupt_name(m, p) for m, p in CORRUPT_RUNS}
    assert len(names) == 37
    assert names == {
        str(p.relative_to(GOLDEN)) for p in (GOLDEN / "corrupt").glob("*.json")
    }


@pytest.mark.parametrize("name,argv,exit_code", CLI_RUNS, ids=[r[0] for r in CLI_RUNS])
def test_cli_output_matches_golden(name, argv, exit_code):
    want = (GOLDEN / "cli" / name).read_bytes()
    assert _stdout(argv, exit_code).encode() == want


if __name__ == "__main__":
    for name, produce in _outputs():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(produce().encode())
        print(path.relative_to(ROOT.parent))
