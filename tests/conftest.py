from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import settings

from yblattice.quadgraph import FieldPoint, evolve_quad

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


@pytest.fixture
def criterion(request):
    """Emit one pass/fail line per acceptance criterion.

    Lines go through pytest's terminal reporter so they show up even
    while output capture is active.
    """

    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(line: str) -> None:
        if reporter is None:
            print(line)
        else:
            reporter.ensure_newline()
            reporter.write_line(line)

    @contextmanager
    def guard(num: int, name: str):
        try:
            yield
        except BaseException:
            emit(f"criterion {num:2d} ({name}): FAIL")
            raise
        emit(f"criterion {num:2d} ({name}): PASS")

    return guard


@pytest.fixture(scope="session")
def corrupted_face():
    """A face update with u12 shifted by one in every component.

    Patched in for `chains.evolve_quad`, it breaks every flip law, so
    checks that must fail on it show they are not vacuous.
    """

    def face(system, data):
        f = evolve_quad(system, data)
        u = tuple(c + 1 for c in f.u) if isinstance(f.u, tuple) else f.u + 1
        return FieldPoint(u, f.v)

    return face
