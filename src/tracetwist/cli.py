"""Command-line front end: classification, orbits, scans, cosine relations.

Data goes to standard output (JSON, and CSV for point clouds); diagnostics
go to standard error.  Exit codes: 0 success, 1 a built-in exactness check
failed, 2 invalid input.  Exact rationals cross the process boundary as
"p/q" strings so no precision is lost; exact-mode output contains no
floating-point literals.

Each option's flag, type and default is declared once, in `_build_parser`.
A ``--config`` file's ``key=value`` lines (keys are flag names with
underscores, switches take ``true`` or ``false``) become the defaults of
the command that has the flag, so they go through the flag's own type;
other keys are ignored and flags on the command line override the file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .orbits import (
    density_scan,
    enumerate_orbit,
    exceptional_family,
    filtration,
    minimality_criterion,
)
from .rep import exceptional_representation, is_in_F, trace_coordinates
from .scalars import EXACT, FLOAT, MixedModeError, NeedsFloatModeError, Surd
from .surface import BoundaryTraces, TracePoint, classify, kappa
from .twists import TwistWord, apply_word
from .trigdioph import bounded_search, conway_jones_list, eval_exact


def _parse_csv_values(text: str, parse, expect: int | None, what: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if expect is not None and len(parts) != expect:
        raise ValueError(f"{what} needs {expect} comma-separated values, got {len(parts)}")
    return tuple(parse(p) for p in parts)


def _csv_flag(parse, expect: int | None, what: str):
    """An argparse ``type`` for comma-separated values; errors follow the flag name."""

    def convert(text: str) -> tuple:
        try:
            return _parse_csv_values(text, parse, expect, what)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _fmt(value):
    """JSON-ready form: Fractions as 'p/q' strings, floats as numbers."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Surd):
        if value.is_rational:
            return str(value.as_fraction())
        return {"a": str(value.a), "b": str(value.b), "r": str(value.r)}
    return value


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


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
        "S": None if interval is None else [_fmt(interval[0]), _fmt(interval[1])],
        "sigma_x": _fmt(B.sigma_x),
        "sigma_y": _fmt(B.sigma_y),
        "sigma_z": _fmt(B.sigma_z),
        "s_const": _fmt(B.s_const),
    }
    if args.mode == EXACT:
        payload["minimality_criterion"] = minimality_criterion(B)
    _emit(payload)
    return 0


def _orbit_csv(points, mode: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "z"])
    keyed = sorted(points, key=lambda p: (float(p.x), float(p.y), float(p.z)))
    for p in keyed:
        if mode == EXACT:
            writer.writerow([str(p.x), str(p.y), str(p.z)])
        else:
            writer.writerow([repr(p.x), repr(p.y), repr(p.z)])
    return buf.getvalue()


def cmd_orbit(args: argparse.Namespace) -> int:
    B, p0 = args.traces, args.point
    if args.word:
        p0 = apply_word(B, p0, TwistWord.parse(args.word))
    result = enumerate_orbit(B, p0, args.budget)
    csv_text = _orbit_csv(result.points, args.mode)
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
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    B, p0 = args.traces, args.point
    report = density_scan(B, p0, args.eps, args.budget, grid=args.grid, seed=args.seed)
    _emit(
        {
            "covered_fraction": report.covered_fraction,
            "truncated": report.truncated,
            "orbit_size": report.orbit_size,
            "grid_size": report.grid_size,
            "eps": args.eps,
            "budget": args.budget,
            "seed": args.seed,
        }
    )
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
    if args.verify_list:
        rows = []
        ok = True
        for idx, rel in enumerate(conway_jones_list(args.t), start=1):
            residual = eval_exact(rel)
            zero = residual.is_zero()
            ok = ok and zero
            rows.append(
                {
                    "family": idx,
                    "identity": rel.describe(),
                    "residual": "0" if zero else "nonzero",
                }
            )
        _emit(rows)
        return 0 if ok else 1
    if args.search:
        found = bounded_search(args.max_q, args.max_terms, args.coeffs)
        rows = []
        for rel, cls in found:
            rows.append(
                {
                    "relation": rel.describe(),
                    "value": _fmt(rel.rhs),
                    "kind": cls.kind,
                    "family": cls.family,
                    "scale": _fmt(cls.scale) if cls.scale is not None else None,
                    "t": _fmt(cls.t) if cls.t is not None else None,
                }
            )
        _emit(rows)
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
            "boundary": [_fmt(t) for t in (boundary.a, boundary.b, boundary.c, boundary.d)],
            "point": [_fmt(v) for v in point.as_tuple()],
            "trace_D": _fmt(rep.D.trace()),
            "orbit": [[_fmt(v) for v in p.as_tuple()] for p in sorted(
                result.points, key=lambda p: float(p.x)
            )],
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
    path = config_option.parse_known_args(argv)[0].config
    config = _load_config_file(path) if path else {}
    parser = argparse.ArgumentParser(
        prog="tracetwist",
        description="Twist dynamics on the four-holed-sphere character variety",
        parents=[config_option],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(func, help_text, **flags):
        """Register ``func``, named ``cmd_<command>``, as the subcommand ``<command>``."""
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help_text)
        for flag, kwargs in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", **kwargs)
        defaults = {flag: config[flag] for flag in flags if flag in config}
        for flag, value in defaults.items():
            if flags[flag].get("action") == "store_true":
                if value not in ("true", "false"):
                    p.error(f"config key {flag} takes true or false, not {value!r}")
                defaults[flag] = value == "true"
        p.set_defaults(func=func, **defaults)
        return p

    mode = {"choices": [EXACT, FLOAT], "default": EXACT}
    budget = {"type": int, "default": 10_000}
    add(
        cmd_classify,
        "component type, attainable x-interval, and sigma invariants",
        traces={"help": "a,b,c,d as rationals"},
        mode=mode,
    )
    add(
        cmd_orbit,
        "breadth-first orbit closure; CSV points plus JSON summary",
        traces={"help": "a,b,c,d"},
        point={"help": "x,y,z"},
        budget=budget,
        mode=mode,
        word={"help": "twist word applied to the start point first, e.g. XYz"},
        out={"help": "CSV output path (default: CSV on stdout)"},
    )
    add(
        cmd_scan,
        "orbit exploration and surface-grid coverage (float mode)",
        traces={"help": "a,b,c,d"},
        point={"help": "x,y,z"},
        eps={"type": float, "default": 0.1},
        budget=budget,
        seed={"type": int, "default": 0},
        grid={
            "type": _csv_flag(int, 2, "grid"),
            "default": (24, 24),
            "help": "m,k surface sample grid",
        },
    ).set_defaults(mode=FLOAT)
    add(
        cmd_cj,
        "cosine-relation toolkit: verify the built-in list or search",
        verify_list={"action": "store_true"},
        search={"action": "store_true"},
        max_q={"type": int, "default": 15},
        max_terms={"type": int, "default": 4},
        coeffs={
            "type": _csv_flag(Fraction, None, "coeffs"),
            "default": (1, -1),
            "help": "comma-separated rational coefficients",
        },
        t={
            "type": Fraction,
            "default": Fraction(1, 12),
            "help": "parameter (of pi) for the three-term family",
        },
    )
    add(cmd_filtration, "trace levels with twist period <= n", n={"type": int, "default": 4})
    add(cmd_example5, "built-in exceptional-orbit example with exact self-checks")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser(argv).parse_args(argv)
        # argparse checks neither choices nor required flags on values
        # that come from the config file.
        mode = getattr(args, "mode", EXACT)
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"mode must be {EXACT!r} or {FLOAT!r}")
        parse = Fraction if mode == EXACT else lambda s: float(Fraction(s))
        for name, size, kind in (("traces", 4, BoundaryTraces), ("point", 3, TracePoint)):
            if not hasattr(args, name):
                continue
            if getattr(args, name) is None:
                raise ValueError(f"--{name} is required for {args.command}")
            setattr(args, name, kind(*_parse_csv_values(getattr(args, name), parse, size, name)))
        return args.func(args)
    except (ValueError, MixedModeError, NeedsFloatModeError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
