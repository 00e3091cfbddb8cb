"""Local flips on paths of field values and transfer sweeps on periodic chains.

A path state carries vertex values (u_j, v_j), one parameter per edge and
the lattice system whose face it runs.  The flip at an interior vertex
replaces that vertex by the opposite corner of the face spanned by its
two neighbors and swaps the two adjacent edge parameters; every other
vertex and parameter is untouched.  Flips are exact involutions, and on
a family consistent around the cube they satisfy braid and
distant-commutation laws, all verified at once on an open path by
`check_flip_laws`.

On a periodic chain the fixed left-to-right sweep of all flips is one
transfer step.  The sweep order is a convention of this package; only the
multiset of edge parameters is canonical, since flips merely permute it.

Every operation shares one engine, `_flip_into`, which flips a vertex of
two plain lists in place.  `flip` copies the path, flips once and builds
a new `PathState`; `transfer_step` copies once, runs all N flips on the
same lists and validates the result once, so a sweep costs time linear
in the period.  The flip-law checks apply words of flips to plain lists
and remember each prefix, so every distinct flip is one face update and
no intermediate state becomes a `PathState`.

The engine is the only code that glues faces together.  It runs every
path through the face of the path's own system, `quadgraph.evolve_quad`,
so all families of `FAMILY_SPECS` flip alike: scalar or vector, with
rational or `GammaPair` edge parameters.  The cube check of `verify` is
its braid word (1, 2, 1) = (2, 1, 2) on a path of four vertices.
"""

from __future__ import annotations

from .errors import IndexOutOfRange, SingularInput
from .exactnum import (
    GammaPair,
    Rational,
    RationalStream,
    format_rational,
    gamma_pair_from_slope,
)
from .quadgraph import EdgeKind, FieldPoint, QuadData, QuadSystem, evolve_quad

from dataclasses import dataclass


@dataclass(frozen=True)
class PathState:
    """Vertex values and edge parameters of one path, and the system it runs.

    Open: edge j joins vertices j and j+1, one parameter fewer than
    vertices.  Periodic: indices are mod N and the last edge closes the
    cycle, so the counts match.  Without a system, scalar vertices run
    e1 and n-vectors run vnls(n).
    """

    vertices: tuple
    alphas: tuple
    periodic: bool = False
    system: QuadSystem | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "alphas",
            tuple(
                a if type(a) is Rational or type(a) is GammaPair else Rational(a)
                for a in self.alphas
            ),
        )
        if len(self.vertices) < 2:
            raise ValueError("a path needs at least two vertices")
        counts = {p.components() for p in self.vertices}
        if len(counts) != 1:
            raise ValueError("all vertices must share one component count")
        (n,) = counts
        if self.system is None:
            system = QuadSystem.e1() if n == 1 else QuadSystem.vnls(n)
            object.__setattr__(self, "system", system)
        elif self.system.components() != n:
            raise ValueError(
                f"system {self.system.label()} takes "
                f"{self.system.components()} components, got {n}"
            )
        want = len(self.vertices) if self.periodic else len(self.vertices) - 1
        if len(self.alphas) != want:
            raise ValueError(
                f"expected {want} edge parameters, got {len(self.alphas)}"
            )

    def components(self) -> int:
        return self.vertices[0].components()


def _flip_into(vertices: list, alphas: list, k: int, system: QuadSystem) -> None:
    """Flip vertex k of a path held in two lists, in place.

    One face update replaces vertices[k] and the two edge parameters
    beside it swap.  Indices wrap around the ends, so callers pass an
    interior k for an open path and any k in range for a periodic one.
    """
    data = QuadData(
        vertices[k],
        vertices[k - 1],
        vertices[(k + 1) % len(vertices)],
        alphas[k - 1],
        alphas[k],
    )
    try:
        vertices[k] = evolve_quad(system, data)
    except SingularInput as err:
        raise SingularInput(f"flip at vertex {k}: {err}") from err
    alphas[k - 1], alphas[k] = alphas[k], alphas[k - 1]


def flip(path: PathState, k: int) -> PathState:
    """Flip vertex k across the face of its neighbors, swapping its alphas.

    The new value is the top corner of the path system's face on vertex
    k, its neighbors and their edge parameters (a_prev, a_cur).  On e1
    that is u~_k = u_k + (a_prev - a_cur) u_prev / (1 - u_prev v_next) and
    v~_k = v_k - (a_prev - a_cur) v_next / (1 - u_prev v_next).  On an
    open path k must be interior; on a periodic one any k is taken mod N.
    """
    n = len(path.vertices)
    if path.periodic:
        k %= n
    elif not 1 <= k <= n - 2:
        raise IndexOutOfRange(
            f"flip index {k} is not interior to a path of {n} vertices"
        )
    vertices, alphas = list(path.vertices), list(path.alphas)
    _flip_into(vertices, alphas, k, path.system)
    return PathState(tuple(vertices), tuple(alphas), path.periodic, path.system)


class _FlipWords(dict):
    """Lists (vertices, alphas) of one path after a word of flips, leftmost first.

    Keys are words of interior indices.  A missing word is its prefix
    flipped once more, so words that share a prefix share its face
    updates.
    """

    def __init__(self, path: PathState) -> None:
        super().__init__({(): (list(path.vertices), list(path.alphas))})
        self.system = path.system

    def __missing__(self, word: tuple) -> tuple:
        vertices, alphas = (list(x) for x in self[word[:-1]])
        _flip_into(vertices, alphas, word[-1], self.system)
        self[word] = (vertices, alphas)
        return vertices, alphas


def check_flip_laws(path: PathState) -> bool:
    """All flip laws at once on an open path, exactly.

    Every interior flip is an involution, adjacent flips satisfy the braid
    law and flips two or more vertices apart commute.  Each distinct flip
    is one face update; every leg is evaluated, so a singular face raises
    SingularInput even when another leg has already failed.
    """
    if path.periodic:
        raise ValueError("flip laws are checked on open paths")
    after = _FlipWords(path)
    interior = range(1, len(path.vertices) - 1)
    verdicts = [after[k, k] == after[()] for k in interior]
    verdicts += [after[j + 1, j, j + 1] == after[j, j + 1, j] for j in interior[:-1]]
    verdicts += [
        after[i, j] == after[j, i] for i in interior for j in interior if j >= i + 2
    ]
    return all(verdicts)


def transfer_step(path: PathState) -> PathState:
    """One full sweep of a periodic chain: flips at 1, 2, ..., N in order.

    Position N wraps to vertex 0.  The multiset of edge parameters is
    preserved; a singular face aborts the sweep with its position named.
    """
    if not path.periodic:
        raise ValueError("transfer sweeps are defined on periodic chains")
    n = len(path.vertices)
    vertices, alphas = list(path.vertices), list(path.alphas)
    system = path.system
    for step in range(1, n + 1):
        try:
            _flip_into(vertices, alphas, step % n, system)
        except SingularInput as err:
            raise SingularInput(f"sweep position {step}: {err}") from err
    return PathState(tuple(vertices), tuple(alphas), True, system)


def _param_maker(system: QuadSystem, stream: RationalStream):
    """Maker of edge parameters of the system's kind: nonzero for e4, conic points for e5."""
    kind = system.spec.edge
    if kind is EdgeKind.GAMMA:
        return lambda: gamma_pair_from_slope(stream.next_nonzero(), system.delta)
    if kind is EdgeKind.NONZERO:
        return stream.next_nonzero
    return stream.next


def _draw_field_point(system: QuadSystem, stream: RationalStream) -> FieldPoint:
    """One vertex value of the system: u, then v, n components each for vnls(n)."""
    if system.spec.vector:
        u = tuple(stream.next() for _ in range(system.n))
        v = tuple(stream.next() for _ in range(system.n))
        return FieldPoint(u, v)
    return FieldPoint(stream.next(), stream.next())


def random_path(
    stream: RationalStream,
    count: int,
    *,
    periodic: bool = False,
    system: QuadSystem = QuadSystem.e1(),
) -> PathState:
    """Seeded path of the system with `count` vertices: parameters first, then values."""
    make = _param_maker(system, stream)
    alphas = tuple(make() for _ in range(count if periodic else count - 1))
    vertices = tuple(_draw_field_point(system, stream) for _ in range(count))
    return PathState(vertices, alphas, periodic, system)


def csv_header(path: PathState) -> list:
    """Column names u_j, v_j, alpha_j interleaved along the path."""
    if path.components() != 1:
        raise ValueError("CSV export covers scalar chains only")
    cols = []
    for j in range(len(path.vertices)):
        cols.extend([f"u{j}", f"v{j}"])
        if j < len(path.alphas):
            cols.append(f"alpha{j}")
    return cols


def csv_row(path: PathState) -> list:
    """Current values in csv_header order, as "p/q" strings."""
    if path.components() != 1:
        raise ValueError("CSV export covers scalar chains only")
    cells = []
    for j, vertex in enumerate(path.vertices):
        cells.extend([format_rational(vertex.u), format_rational(vertex.v)])
        if j < len(path.alphas):
            cells.append(format_rational(path.alphas[j]))
    return cells
