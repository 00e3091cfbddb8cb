from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def test_reimport_releases_old_module_copies():
    # module-level type aliases must not pin a dropped import's classes
    # in a cache, or each re-import keeps a whole copy of the package alive
    src = str(Path(yblattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", REIMPORT], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "0"
