"""Acceptance gate for the whole package.

Each test emits a single criterion verdict line through the terminal
reporter (see the criterion fixture in conftest).  Every equality here
is exact rational equality; nothing is compared up to tolerance.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from fractions import Fraction

from draws import draw_point, param_maker
from yblattice.chains import transfer_step
from yblattice.cli import main
from yblattice.exactnum import GammaPair, RationalStream, gamma_pair_from_slope
from yblattice.lax import moebius_p1
from yblattice.quadgraph import FieldPoint, QuadData, SingularInput, evolve_quad
from yblattice.verify import CATALOG_MAPS, CATALOG_SYSTEMS, Property, sweep
from yblattice.ybmaps import (
    MapId,
    YBPoint,
    apply_inverse,
    apply_map,
    p_independent_block,
    replace_block,
)


def test_criterion_01_yang_baxter(criterion):
    with criterion(1, "parameter-dependent Yang-Baxter relation"):
        for map_id in CATALOG_MAPS:
            report = sweep(map_id, Property.YB, seed=42, n=100, bound=10)
            assert report.samples_valid >= 90, report.to_json()
            assert report.samples_passed == report.samples_valid, report.to_json()


def test_criterion_02_unitarity_and_inverse(criterion):
    with criterion(2, "unitarity and explicit inverse"):
        for map_id in CATALOG_MAPS:
            report = sweep(map_id, Property.UNITARITY, seed=42, n=100, bound=10)
            assert report.samples_valid >= 90, report.to_json()
            assert report.samples_passed == report.samples_valid, report.to_json()
        for map_id in CATALOG_MAPS:
            stream = RationalStream(42, 10)
            make = param_maker(map_id, stream)
            valid = 0
            for _ in range(1000):
                if valid == 100:
                    break
                x = draw_point(map_id, stream)
                y = draw_point(map_id, stream)
                b1, b2 = make(), make()
                try:
                    p, q = apply_map(map_id, x, y, b1, b2)
                    back = apply_inverse(map_id, p, q, b1, b2)
                except SingularInput:
                    continue
                valid += 1
                assert back == (x, y), map_id.label()
            assert valid == 100, map_id.label()


def test_criterion_03_consistency_around_cube(criterion):
    with criterion(3, "three-dimensional consistency"):
        for system in CATALOG_SYSTEMS:
            report = sweep(system, Property.CONSISTENCY_3D, seed=42, n=100, bound=10)
            assert report.samples_valid == 100, report.to_json()
            assert report.samples_passed == 100, report.to_json()


def test_criterion_04_path_flip_relations(criterion):
    with criterion(4, "path flips: involution, braid, commutation"):
        for system in CATALOG_SYSTEMS:
            report = sweep(system, Property.BRAID, seed=42, n=100, bound=10)
            assert report.samples_valid == 100, report.to_json()
            assert report.samples_passed == 100, report.to_json()


def test_criterion_05_commuting_diagram_and_relations(criterion):
    with criterion(5, "lattice squares match the map"):
        for map_id in CATALOG_MAPS:
            for prop in (Property.COMMUTING_DIAGRAM, Property.FUNCTIONAL_RELATIONS):
                report = sweep(map_id, prop, seed=42, n=100, bound=10)
                assert report.samples_valid >= 90, report.to_json()
                assert report.samples_passed == report.samples_valid, report.to_json()


def test_criterion_06_zero_curvature(criterion):
    with criterion(6, "zero curvature and Moebius action"):
        map_id = MapId.e1_shaded()
        report = sweep(map_id, Property.ZERO_CURVATURE, seed=42, n=200, bound=10)
        assert report.samples_valid >= 180, report.to_json()
        assert report.samples_passed == report.samples_valid, report.to_json()
        stream = RationalStream(42, 10)
        valid = 0
        for _ in range(2000):
            if valid == 200:
                break
            x = draw_point(map_id, stream)
            y = draw_point(map_id, stream)
            b1, b2 = stream.next(), stream.next()
            try:
                p, _ = apply_map(map_id, x, y, b1, b2)
                via_moebius = moebius_p1(x.pair()[0], y.pair()[0], y.pair()[1], b1, b2)
            except SingularInput:
                continue
            valid += 1
            assert via_moebius == p.pair()[0]
        assert valid == 200


def test_criterion_07_degenerations(criterion):
    with criterion(7, "degenerations and identity limits"):
        for map_id in CATALOG_MAPS:
            stream = RationalStream(42, 10)
            make = param_maker(map_id, stream)
            done = 0
            while done < 50:
                x = draw_point(map_id, stream)
                y = draw_point(map_id, stream)
                b = make()
                try:
                    p, q = apply_map(map_id, x, y, b, b)
                except SingularInput:
                    continue
                done += 1
                assert (p, q) == (y, x), map_id.label()
        for system in CATALOG_SYSTEMS:
            stream = RationalStream(42, 10)
            n = system.components()
            done = 0
            if system.label().startswith("e5"):
                make = lambda: gamma_pair_from_slope(stream.next_nonzero(), system.delta)
            elif system.label().startswith("e4"):
                make = stream.next_nonzero
            else:
                make = stream.next

            def field() -> FieldPoint:
                if n == 1:
                    return FieldPoint(stream.next(), stream.next())
                return FieldPoint(
                    tuple(stream.next() for _ in range(n)),
                    tuple(stream.next() for _ in range(n)),
                )

            while done < 50:
                f, f1, f2 = field(), field(), field()
                b = make()
                try:
                    f12 = evolve_quad(system, QuadData(f=f, f1=f1, f2=f2, beta1=b, beta2=b))
                except SingularInput:
                    continue
                done += 1
                assert f12 == f, system.label()
        stream = RationalStream(42, 10)
        done = 0
        while done < 50:
            x = draw_point(MapId.e5(), stream)
            y = draw_point(MapId.e5(), stream)
            b1, b2 = stream.next_nonzero(), stream.next_nonzero()
            g1 = GammaPair(beta=b1, gamma=-b1, delta=0)
            g2 = GammaPair(beta=b2, gamma=-b2, delta=0)
            try:
                via_e5 = apply_map(MapId.e5(), x, y, g1, g2)
                via_e4 = apply_map(MapId.e4_eps0_scaling(), x, y, b1, b2)
            except SingularInput:
                continue
            done += 1
            assert via_e5 == via_e4
        stream = RationalStream(42, 10)
        done = 0
        while done < 50:
            a, b, c, d = (stream.next() for _ in range(4))
            b1, b2 = stream.next(), stream.next()
            try:
                pv, qv = apply_map(
                    MapId.vnls(1), YBPoint((a,), (b,)), YBPoint((c,), (d,)), b1, b2
                )
                ps, qs = apply_map(
                    MapId.e1_shaded(), YBPoint.of(a, b), YBPoint.of(c, d), b1, b2
                )
            except SingularInput:
                continue
            done += 1
            assert (pv, qv) == (ps, qs)


def test_criterion_08_non_quadrirational_direction(criterion):
    with criterion(8, "one output ignores one input coordinate"):
        for map_id in CATALOG_MAPS:
            stream = RationalStream(42, 10)
            make = param_maker(map_id, stream)
            block = p_independent_block(map_id)
            done = 0
            while done < 50:
                x = draw_point(map_id, stream)
                y = draw_point(map_id, stream)
                b1, b2 = make(), make()
                fresh = tuple(stream.next() for _ in range(map_id.block_size()))
                if replace_block(x, block, fresh) == x:
                    continue
                try:
                    p, _ = apply_map(map_id, x, y, b1, b2)
                    p_alt, _ = apply_map(map_id, replace_block(x, block, fresh), y, b1, b2)
                except SingularInput:
                    continue
                done += 1
                assert p_alt == p, map_id.label()


def test_criterion_09_corrupted_fixtures_fail(criterion):
    with criterion(9, "corrupted fixtures are caught"):
        fixtures = (
            ["verify", "--map", "e2", "--property", "yb"],
            ["verify", "--map", "e5", "--property", "unitarity"],
            ["verify", "--map", "vnls:3", "--property", "commuting-diagram"],
            ["verify", "--map", "e1-shaded", "--property", "zero-curvature"],
            ["verify", "--map", "e4", "--epsilon", "7/3", "--property", "functional-relations"],
        )
        for argv in fixtures:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(argv + ["--samples", "25", "--corrupt"])
            assert code == 1, (argv, code, buf.getvalue())


def test_criterion_10_byte_identical_reruns(criterion):
    with criterion(10, "reruns are byte-identical"):
        commands = (
            ["verify", "--map", "e3", "--property", "yb", "--samples", "50"],
            ["verify", "--map", "vnls:3", "--property", "consistency-3d", "--samples", "40"],
            ["verify", "--map", "e3", "--property", "yb", "--samples", "50", "--format", "csv"],
            ["simulate", "--period", "4", "--sweeps", "6", "--seed", "9"],
            ["simulate", "--length", "6", "--flips", "3,4,3", "--seed", "5"],
        )
        for argv in commands:
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = main(list(argv))
                assert code == 0, (argv, code, buf.getvalue())
                outputs.append(buf.getvalue().encode())
            assert outputs[0] == outputs[1], argv


def test_runtime_sanity_periodic_sweeps():
    state = None
    stream = RationalStream(7, 6)
    from yblattice.chains import random_path

    state = random_path(stream, 5, periodic=True)
    for _ in range(8):
        state = transfer_step(state)
    assert all(
        isinstance(v.u, Fraction) and isinstance(v.v, Fraction) for v in state.vertices
    )
