"""Reference draws shared by the map tests.

`param_maker` is each map's own parameter rule, written from the map's
label: nonzero for the e4 maps, conic points for e5, any rational
otherwise.  It stays independent of `chains._param_maker`, which draws
by the parent family and is checked against it.
"""

from __future__ import annotations

from yblattice.exactnum import RationalStream, gamma_pair_from_slope
from yblattice.ybmaps import MapId, YBPoint


def param_maker(map_id: MapId, stream: RationalStream):
    label = map_id.label()
    if label == "e5":
        return lambda: gamma_pair_from_slope(stream.next_nonzero(), 1)
    if label.startswith("e4"):
        return stream.next_nonzero
    return stream.next


def draw_point(map_id: MapId, stream: RationalStream) -> YBPoint:
    n = map_id.block_size()
    return YBPoint(
        tuple(stream.next() for _ in range(n)),
        tuple(stream.next() for _ in range(n)),
    )
