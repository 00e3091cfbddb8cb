"""Command-line entry point: property sweeps, chain simulation, map catalog.

Exit codes: 0 when the requested property passed on every valid sample,
1 on a property failure (or a singular face mid-simulation), 2 on a
configuration error, 3 when sampling could not produce a single valid
input.  All rationals cross this boundary as "p/q" strings; reports are
JSON or single-record CSV, simulations are CSV, and identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys

from .chains import csv_header, csv_row, flip, random_path, transfer_step
from .errors import RetryBudgetExhausted, SingularInput, ZeroSlope
from .exactnum import Rational, RationalStream, gamma_pair_from_slope, parse_rational
from .quadgraph import FAMILY_SPECS, EdgeKind, QuadSystem
from .verify import Property, sweep, target_system
from .ybmaps import MAP_SPECS, MapId

_MAP_TAGS = {tag.value: tag for tag in MAP_SPECS}
_FAMILIES = {family.value: family for family in FAMILY_SPECS}


class ConfigError(Exception):
    """A flag combination the run cannot start from; always exit code 2."""


# int() would also take "1_0", " 1" and other scripts' digits
_INT = r"[+-]?[0-9]+"


def _ascii_int(text: str) -> int:
    """argparse type of the integer flags: an optional sign and ASCII digits."""
    if not re.fullmatch(_INT, text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yblattice",
        description="exact verification and simulation of lattice maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a property sweep and write a report")
    v.add_argument("--map", required=True, dest="map_id", metavar="ID",
                   help="map id, or family id for consistency-3d and braid")
    v.add_argument("--property", required=True,
                   choices=[p.value for p in Property])
    v.add_argument("--samples", type=_ascii_int, default=100)
    v.add_argument("--seed", type=_ascii_int, default=42)
    v.add_argument("--bound", type=_ascii_int, default=10)
    v.add_argument("--epsilon", default=None, metavar="P/Q",
                   help="lattice parameter of map e4 (default 1)")
    v.add_argument("--delta", type=_ascii_int, default=None, choices=(0, 1),
                   help="conic constant for family e5 (default 1)")
    v.add_argument("--gamma-slope", default=None, metavar="P/Q",
                   help="pin the first e5 edge parameter via its chord slope")
    v.add_argument("--dim", type=_ascii_int, default=None, metavar="N",
                   help="components per block for vnls (default 1)")
    v.add_argument("--out", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    v.add_argument("--format", default="json", choices=("json", "csv"))
    v.add_argument("--corrupt", action="store_true",
                   help="verify against the corrupted fixture; sweeps must fail")
    v.add_argument("--retry-budget", type=_ascii_int, default=25,
                   help="redraws allowed per sample before it is skipped")

    s = sub.add_parser("simulate",
                       help="run transfer sweeps or a flip script, write CSV")
    s.add_argument("--period", type=_ascii_int, default=None, metavar="N",
                   help="periodic chain size (with --sweeps)")
    s.add_argument("--sweeps", type=_ascii_int, default=None, metavar="M",
                   help="number of transfer sweeps to run")
    s.add_argument("--length", type=_ascii_int, default=None, metavar="L",
                   help="open path vertex count (with --flips)")
    s.add_argument("--flips", default=None, metavar="K,K,...",
                   help="comma-separated interior flip indices")
    s.add_argument("--seed", type=_ascii_int, default=42)
    s.add_argument("--bound", type=_ascii_int, default=10)
    s.add_argument("--out", default=None, metavar="PATH")

    sub.add_parser("list-maps", help="print the map catalog")
    return parser


def _positive(value: int, flag: str) -> int:
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")
    return value


def _flag_rational(text: str, flag: str):
    try:
        return parse_rational(text)
    except ValueError as err:
        raise ConfigError(f"{flag}: {err}")


def _parse_block_count(map_str: str, dim: int | None) -> int:
    """Block size from "vnls" / "vnls:<n>" plus the optional --dim flag."""
    if ":" not in map_str:
        return dim if dim is not None else 1
    suffix = map_str.split(":", 1)[1]
    # str.isdigit also accepts superscripts and other scripts' digits
    if not (suffix.isascii() and suffix.isdigit()) or int(suffix) < 1:
        raise ConfigError(f"--map: bad block count in {map_str!r}")
    n = int(suffix)
    if dim is not None and dim != n:
        raise ConfigError(f"--dim {dim} contradicts --map {map_str}")
    return n


def _id_params(extra: str | None, map_str: str, args, epsilon) -> dict:
    """The id's extra parameter, from its ":<n>" suffix or its flag."""
    if extra == "n":
        return {"n": _parse_block_count(map_str, args.dim)}
    if ":" in map_str:
        raise ConfigError(f"--map: unknown id {map_str!r} (see list-maps)")
    if extra == "epsilon":
        return {"epsilon": epsilon if epsilon is not None else Rational(1)}
    if extra == "delta":
        return {"delta": args.delta if args.delta is not None else 1}
    return {}


def _resolve_target(args):
    """Map or family the sweep runs against, with flag scope checks.

    consistency-3d takes a family wherever the id names one; braid only
    where the id names no map (e1).  Every other id is a map.
    """
    map_str = args.map_id
    epsilon = (_flag_rational(args.epsilon, "--epsilon")
               if args.epsilon is not None else None)
    if args.dim is not None:
        _positive(args.dim, "--dim")
    name = map_str.split(":", 1)[0]
    family = _FAMILIES.get(name)
    if family is not None and (
        args.property == Property.CONSISTENCY_3D.value
        or (args.property == Property.BRAID.value and name not in _MAP_TAGS)
    ):
        extra = FAMILY_SPECS[family].extra
        target = QuadSystem(family, **_id_params(extra, map_str, args, epsilon))
    else:
        tag = _MAP_TAGS.get(name)
        if tag is None:
            raise ConfigError(f"--map: unknown id {map_str!r} (see list-maps)")
        extra = MAP_SPECS[tag].extra
        target = MapId(tag, **_id_params(extra, map_str, args, epsilon))
    _check_flag_scope(args, target, epsilon)
    return target


def _check_flag_scope(args, target, epsilon) -> None:
    extra = target.spec.extra
    if epsilon is not None and extra != "epsilon":
        raise ConfigError("--epsilon applies to map or family e4 only")
    is_e5 = target_system(target).spec.edge is EdgeKind.GAMMA
    if args.delta is not None and not is_e5:
        raise ConfigError("--delta applies to e5 only")
    if args.delta == 0 and isinstance(target, MapId):
        raise ConfigError(
            "--delta 0 is available for consistency-3d; the e5 map fixes delta 1"
        )
    if args.gamma_slope is not None and not is_e5:
        raise ConfigError("--gamma-slope applies to e5 only")
    if args.dim is not None and extra != "n":
        raise ConfigError("--dim applies to vnls only")


def _pinned_param(args, target):
    if args.gamma_slope is None:
        return None
    slope = _flag_rational(args.gamma_slope, "--gamma-slope")
    try:
        return gamma_pair_from_slope(slope, target_system(target).delta)
    except ZeroSlope as err:
        raise ConfigError(f"--gamma-slope: {err}")


def _report_csv(report) -> str:
    data = report.to_json_dict()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    keys = ["map", "property", "requested", "valid", "passed", "skipped"]
    writer.writerow(keys)
    writer.writerow([data[k] for k in keys])
    return buf.getvalue()


def _write_out(dest: str | None, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if dest is None or dest == "-":
        sys.stdout.write(text)
        return
    try:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"--out: {err}")


def _cmd_verify(args) -> int:
    samples = _positive(args.samples, "--samples")
    bound = _positive(args.bound, "--bound")
    budget = _positive(args.retry_budget, "--retry-budget")
    target = _resolve_target(args)
    prop = Property(args.property)
    pinned = _pinned_param(args, target)
    try:
        report = sweep(
            target, prop, args.seed, samples, bound,
            corrupt=args.corrupt, retry_budget=budget, first_param=pinned,
        )
    except ValueError as err:
        # target/property combinations rejected before any sampling
        raise ConfigError(str(err))
    except RetryBudgetExhausted as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    text = report.to_json() if args.format == "json" else _report_csv(report)
    _write_out(args.out, text)
    return 0 if report.all_passed() else 1


def _parse_flip_script(text: str) -> list:
    if not re.fullmatch(rf"{_INT}(,{_INT})*", text):
        raise ConfigError(f"--flips: expected comma-separated integers, got {text!r}")
    return [int(part) for part in text.split(",")]


def _cmd_simulate(args) -> int:
    wants_periodic = args.period is not None or args.sweeps is not None
    wants_open = args.length is not None or args.flips is not None
    if wants_periodic == wants_open:
        raise ConfigError("choose either --period/--sweeps or --length/--flips")
    bound = _positive(args.bound, "--bound")
    stream = RationalStream(args.seed, bound)
    marker = None
    rows = []
    if wants_periodic:
        if args.period is None or args.sweeps is None:
            raise ConfigError("--period and --sweeps go together")
        if args.period < 2:
            raise ConfigError(f"--period must be >= 2, got {args.period}")
        _positive(args.sweeps, "--sweeps")
        path = random_path(stream, args.period, periodic=True)
        header = csv_header(path)
        for _ in range(args.sweeps):
            try:
                path = transfer_step(path)
            except SingularInput as err:
                marker = str(err)
                break
            rows.append(csv_row(path))
    else:
        if args.length is None or args.flips is None:
            raise ConfigError("--length and --flips go together")
        if args.length < 3:
            raise ConfigError(f"--length must be >= 3, got {args.length}")
        script = _parse_flip_script(args.flips)
        for k in script:
            if not 1 <= k <= args.length - 2:
                raise ConfigError(
                    f"--flips: {k} is not interior to a path of {args.length} vertices"
                )
        path = random_path(stream, args.length)
        header = csv_header(path)
        for k in script:
            try:
                path = flip(path, k)
            except SingularInput as err:
                marker = str(err)
                break
            rows.append(csv_row(path))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if marker is not None:
        writer.writerow(["#singular", marker])
    _write_out(args.out, buf.getvalue())
    return 0 if marker is None else 1


def _cmd_list_maps(args) -> int:
    lines = []
    for spec in MAP_SPECS.values():
        lines.append(spec.label)
        lines.append(f"  reduces: {spec.reduces}")
        lines.append(f"  blocks: {spec.blocks}")
        lines.append(f"  parameters: {spec.params}")
        lines.append(f"  multipliers: {', '.join(spec.multipliers)}")
        lines.append(f"  {spec.description}")
    _write_out(None, "\n".join(lines))
    return 0


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_list_maps(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
