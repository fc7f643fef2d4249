"""Command-line front end: classification, orbits, scans, cosine relations.

Data goes to standard output (JSON, and CSV for point clouds); diagnostics
go to standard error.  Exit codes: 0 success, 1 a built-in exactness check
failed, 2 invalid input.  Exact rationals cross the process boundary as
"p/q" strings so no precision is lost; exact-mode output contains no
floating-point literals.

Each option's flag, type and default is declared once, in `_build_parser`.
A ``--config`` file's ``key=value`` lines (keys are flag names with
underscores, switches take ``true`` or ``false``) become the defaults of
the chosen command when it has the flag, so they go through the flag's own
type and choices; other keys, other commands' keys among them, are ignored
and command-line flags override the file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

from .orbits import (
    density_scan,
    enumerate_orbit,
    exceptional_family,
    filtration,
    is_in_F,
    minimality_criterion,
)
from .rep import exceptional_representation, trace_coordinates
from .scalars import EXACT, FLOAT, MixedModeError, Surd
from .surface import BoundaryTraces, TracePoint, classify, kappa
from .twists import TwistWord, apply_word
from .trigdioph import bounded_search, conway_jones_list, eval_exact


def _rational(text: str) -> Fraction:
    """An argparse ``type`` for one exact rational "p/q" or "p"; errors follow the flag name."""
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _csv_flag(parse, expect: int | None, what: str):
    """An argparse ``type`` for comma-separated values; errors follow the flag name."""

    def convert(text: str) -> tuple:
        parts = text.split(",")
        if expect is not None and len(parts) != expect:
            raise argparse.ArgumentTypeError(
                f"{what} needs {expect} comma-separated values, got {len(parts)}"
            )
        try:
            return tuple(parse(p) for p in parts)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _exact(value):
    """The ``json`` default: a Fraction as "p/q", a Surd as its Fraction or {a, b, r}."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Surd):
        if value.is_rational:
            return value.as_fraction()
        return {"a": value.a, "b": value.b, "r": value.r}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(payload, file=None) -> None:
    print(json.dumps(payload, sort_keys=True, default=_exact), file=file)


def _load_config_file(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def cmd_classify(args: argparse.Namespace) -> int:
    B = args.traces
    component, interval = classify(B)
    payload = {
        "component": component.value,
        "S": interval,
        "sigma_x": B.sigma_x,
        "sigma_y": B.sigma_y,
        "sigma_z": B.sigma_z,
        "s_const": B.s_const,
    }
    if args.mode == EXACT:
        payload["minimality_criterion"] = minimality_criterion(B)
    _emit(payload)
    return 0


def _point_order(p: TracePoint) -> tuple:
    """Sort key: the coordinates as floats (+-inf beyond the double range), then exact."""
    exact = p.as_tuple()
    rounded = []
    for v in exact:
        try:
            rounded.append(float(v))
        except OverflowError:
            rounded.append(math.inf if v > 0 else -math.inf)
    return (*rounded, *exact)


def _orbit_csv(points) -> str:
    """Header and one row per point; csv writes a Fraction with str, a float with repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "z"])
    writer.writerows(p.as_tuple() for p in sorted(points, key=_point_order))
    return buf.getvalue()


def cmd_orbit(args: argparse.Namespace) -> int:
    B, p0 = args.traces, args.point
    if args.word:
        p0 = apply_word(B, p0, TwistWord.parse(args.word))
    result = enumerate_orbit(B, p0, args.budget)
    csv_text = _orbit_csv(result.points)
    summary = {
        "status": result.status,
        "cardinality": result.cardinality,
        "budget": args.budget,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        _emit(summary)
    else:
        sys.stdout.write(csv_text)
        _emit(summary, sys.stderr)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    B, p0 = args.traces, args.point
    report = density_scan(B, p0, args.eps, args.budget, grid=args.grid, seed=args.seed)
    _emit({**dataclasses.asdict(report), "eps": args.eps, "budget": args.budget, "seed": args.seed})
    return 0


def cmd_filtration(args: argparse.Namespace) -> int:
    level = filtration(args.n)
    elements = sorted(level.elements, key=lambda a: a.two_cos())
    _emit(
        {
            "n": args.n,
            "elements": [
                {"p": a.p, "q": a.q, "two_cos": a.two_cos()} for a in elements
            ],
        }
    )
    return 0


def cmd_cj(args: argparse.Namespace) -> int:
    if args.verify_list and args.search:
        raise ValueError("cj takes one mode: --verify-list and --search cannot be combined")
    if args.verify_list:
        relations = conway_jones_list(args.t)
        zero = [eval_exact(rel).is_zero() for rel in relations]
        _emit(
            [
                {"family": idx, "identity": rel.describe(), "residual": "0" if z else "nonzero"}
                for idx, (rel, z) in enumerate(zip(relations, zero), start=1)
            ]
        )
        return 0 if all(zero) else 1
    if args.search:
        found = bounded_search(args.max_q, args.max_terms, args.coeffs)
        _emit(
            [
                {"relation": rel.describe(), "value": rel.rhs, **dataclasses.asdict(cls)}
                for rel, cls in found
            ]
        )
        return 0
    raise ValueError("cj requires --verify-list or --search")


def cmd_example5(args: argparse.Namespace) -> int:
    """Built-in end-to-end self-test on the explicit finite-orbit example."""
    checks: dict[str, bool] = {}
    rep = exceptional_representation()
    boundary, point = trace_coordinates(rep)
    checks["trace_D"] = rep.D.trace() == Fraction(-7, 4)
    checks["boundary"] = (boundary.a, boundary.b, boundary.c, boundary.d) == (
        1,
        1,
        Fraction(7, 4),
        Fraction(-7, 4),
    )
    checks["point"] = (point.x, point.y, point.z) == (-1, 0, 0)
    checks["kappa_zero"] = kappa(boundary, point) == 0
    checks["in_family"] = is_in_F(Fraction(1), Fraction(7, 4))
    family_B, special = exceptional_family(Fraction(1), Fraction(7, 4))
    checks["family_boundary_matches"] = family_B == boundary
    result = enumerate_orbit(boundary, point, budget=10_000)
    checks["orbit_finite"] = result.is_finite
    checks["orbit_is_special"] = result.points == special
    ok = all(checks.values())
    _emit(
        {
            "boundary": (boundary.a, boundary.b, boundary.c, boundary.d),
            "point": point.as_tuple(),
            "trace_D": rep.D.trace(),
            "orbit": [p.as_tuple() for p in sorted(result.points, key=_point_order)],
            "orbit_status": result.status,
            "checks": checks,
            "ok": ok,
        }
    )
    return 0 if ok else 1


def _build_parser(argv) -> argparse.ArgumentParser:
    """The command-line parser; a ``--config`` file named in ``argv`` sets its defaults."""
    # No abbreviations at the top level: an abbreviated --config would skip the pre-parse.
    config_option = argparse.ArgumentParser(prog="tracetwist", add_help=False, allow_abbrev=False)
    config_option.add_argument("--config", help="flat key=value config file; flags override")
    known, rest = config_option.parse_known_args(argv)
    config = _load_config_file(known.config) if known.config else {}
    chosen = rest[0] if rest else None  # the subcommand name, which follows --config
    parser = argparse.ArgumentParser(
        prog="tracetwist",
        description="Twist dynamics on the four-holed-sphere character variety",
        parents=[config_option],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(func, help_text, **flags):
        """Register ``func``, named ``cmd_<command>``, as the subcommand ``<command>``."""
        name = func.__name__.removeprefix("cmd_")
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        defaults = {flag: config[flag] for flag in flags if flag in config and name == chosen}
        for flag, value in defaults.items():
            if "choices" in flags[flag] and value not in flags[flag]["choices"]:
                p.error(f"argument --{flag.replace('_', '-')}: invalid choice: {value!r}")
            if flags[flag].get("action") == "store_true":
                if value not in ("true", "false"):
                    p.error(f"config key {flag} takes true or false, not {value!r}")
                defaults[flag] = value == "true"
        p.set_defaults(func=func, **defaults)
        return p

    mode = {"choices": [EXACT, FLOAT], "default": EXACT}
    budget = {"type": int, "default": 10_000}
    traces = {"type": _csv_flag(_rational, 4, "traces"), "help": "a,b,c,d"}
    point = {"type": _csv_flag(_rational, 3, "point"), "help": "x,y,z"}
    add(
        cmd_classify,
        "component type, attainable x-interval, and sigma invariants",
        traces={**traces, "help": "a,b,c,d as rationals"},
        mode=mode,
    )
    add(
        cmd_orbit,
        "breadth-first orbit closure; CSV points plus JSON summary",
        traces=traces,
        point=point,
        budget=budget,
        mode=mode,
        word={"help": "twist word applied to the start point first, e.g. XYz"},
        out={"help": "CSV output path (default: CSV on stdout)"},
    )
    add(
        cmd_scan,
        "orbit exploration and surface-grid coverage (float mode)",
        traces=traces,
        point=point,
        eps={"type": float, "default": 0.1},
        budget=budget,
        seed={"type": int, "default": 0},
        grid={
            "type": _csv_flag(int, 2, "grid"),
            "default": (24, 24),
            "help": "m,k surface sample grid",
        },
    )
    add(
        cmd_cj,
        "cosine-relation toolkit: verify the built-in list or search",
        verify_list={"action": "store_true"},
        search={"action": "store_true"},
        max_q={"type": int, "default": 15},
        max_terms={"type": int, "default": 4},
        coeffs={
            "type": _csv_flag(_rational, None, "coeffs"),
            "default": (1, -1),
            "help": "comma-separated rational coefficients",
        },
        t={
            "type": _rational,
            "default": Fraction(1, 12),
            "help": "parameter (of pi) for the three-term family",
        },
    )
    add(cmd_filtration, "trace levels with twist period <= n", n={"type": int, "default": 4})
    add(cmd_example5, "built-in exceptional-orbit example with exact self-checks")
    return parser


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's limit on int-to-str digits, where the interpreter has one.

    Exact output prints rationals of any length; the limit still guards
    input parsing, which runs outside this block.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    try:
        args = _build_parser(argv).parse_args(argv)
        mode = getattr(args, "mode", EXACT)
        for name, kind in (("traces", BoundaryTraces), ("point", TracePoint)):
            if not hasattr(args, name):
                continue
            values = getattr(args, name)
            if values is None:
                raise ValueError(f"--{name} is required for {args.command}")
            setattr(args, name, kind(*(values if mode == EXACT else map(float, values))))
        with _int_digits_unlimited():
            return args.func(args)
    except (ValueError, MixedModeError, OverflowError, ZeroDivisionError, OSError) as exc:
        if isinstance(exc, OverflowError):
            exc = f"a float-mode value left the double range ({exc})"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
