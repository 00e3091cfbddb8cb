from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import yblattice

REIMPORT = """
import gc, sys, weakref

refs = []
for _ in range(5):
    for name in [n for n in sys.modules if n == "yblattice" or n.startswith("yblattice.")]:
        del sys.modules[name]
    import yblattice
    refs.append(weakref.ref(yblattice.GammaPair))
del yblattice
gc.collect()
print(sum(ref() is not None for ref in refs[:-1]))
"""


CORE = ["chains", "errors", "exactnum", "quadgraph"]
# the harness modules and the names each exports from the package
HARNESS = {
    "ybmaps": ["MapId", "YBPoint", "apply_inverse", "apply_map"],
    "lax": ["LaxMatrix", "check_zero_curvature", "lax_matrix", "moebius_p1"],
    "reduction": ["SquareSolution", "check_commuting_diagram"],
    "verify": ["Property", "TripleState", "VerificationReport", "sweep"],
}
HARNESS_NAMES = [name for names in HARNESS.values() for name in names]

LOADED = """
print(" ".join(sorted(n for n in sys.modules if n.startswith("yblattice."))))
"""


def run_python(code: str) -> list:
    """stdout lines of `code` run in a fresh interpreter that imports from this src/."""
    src = str(Path(yblattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout.splitlines()


def loaded(*groups) -> str:
    return " ".join(sorted(f"yblattice.{m}" for group in groups for m in group))


def test_reimport_releases_old_module_copies():
    # module-level type aliases must not pin a dropped import's classes
    # in a cache, or each re-import keeps a whole copy of the package alive
    assert run_python(REIMPORT) == ["0"]


def test_bare_import_loads_only_the_lattice_core():
    assert run_python("import yblattice" + LOADED) == [loaded(CORE)]


@pytest.mark.parametrize("name", list(HARNESS) + HARNESS_NAMES)
def test_any_harness_name_loads_and_binds_the_whole_harness(name):
    code = f"""
import yblattice
getattr(yblattice, {name!r})
bound = vars(yblattice)
for module, names in {HARNESS!r}.items():
    assert bound[module] is sys.modules["yblattice." + module], module
    for attr in names:
        assert bound[attr] is getattr(bound[module], attr), attr
""" + LOADED
    assert run_python(code) == [loaded(CORE, HARNESS)]


def test_dir_and_star_import_list_every_public_name():
    # dir() lists the harness modules and names before they load
    code = f"""
import yblattice
listed = set(dir(yblattice))
""" + LOADED + f"""
names = {{}}
exec("from yblattice import *", names)
public = set(yblattice.__all__)
print(sorted((public | {set(HARNESS)!r}) - listed), sorted(public - set(names)))
"""
    assert run_python(code) == [loaded(CORE), "[] []"]


def test_unknown_attribute_is_a_standard_attribute_error():
    code = """
import yblattice
try:
    yblattice.no_such_name
except AttributeError as err:
    print(err)
""" + LOADED
    assert run_python(code) == [
        "module 'yblattice' has no attribute 'no_such_name'",
        loaded(CORE),
    ]
