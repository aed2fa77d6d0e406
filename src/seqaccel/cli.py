"""Command-line harness.

Subcommands:

* ``run``   -- execute a (problem x transform) matrix and emit a table
* ``check`` -- run whatever a fixture file covers and compare decade bands
* ``list``  -- show registered problems, transforms and built-in fixtures

Exit codes: 0 on success / all fixture rows passing, 1 on any fixture
failure, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .bench import (
    RunConfig,
    builtin_fixture_path,
    builtin_fixtures,
    check_fixture,
    config_for_fixture,
    export,
    load_fixture,
    render,
    run,
)
from .core import SeqAccelError, TransformSpec
from .problems import available_problems, parse_problem
from .transforms import available_transforms, parse_transform


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqaccel",
        description="Benchmark convergence-acceleration transforms on test series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value file mirroring the flags; flags win")
        p.add_argument("--problem", action="append", default=None,
                       help="problem name, optionally with parameters, e.g. euler-divergent:z=3")
        p.add_argument("--transform", action="append", default=None,
                       help="transform name, e.g. seps or rho-osada:theta=0.5")
        p.add_argument("--n-min", type=int, default=None)
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--beta", type=float, default=None,
                       help="default beta for Levin-type transforms without an explicit one")
        p.add_argument("--theta", type=float, default=None,
                       help="default decay exponent for rho-osada without an explicit one")
        p.add_argument("--z", type=float, default=None,
                       help="default z for problems that take one")
        p.add_argument("--format", dest="fmt", choices=("csv", "json", "markdown"), default=None)
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")

    p_run = sub.add_parser("run", help="run a benchmark matrix")
    common(p_run)

    p_check = sub.add_parser("check", help="compare a run against a fixture")
    common(p_check)
    p_check.add_argument("--fixture", required=True,
                         help="fixture CSV path or a built-in name (see `seqaccel list`)")

    sub.add_parser("list", help="list problems, transforms and built-in fixtures")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SeqAccelError(f"{path}: expected 'key = value', got {raw!r}")
        values[key.strip().lower().replace("_", "-")] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the config file; explicit flags win."""
    if not args.config:
        return
    cfg = _read_config_file(args.config)
    if args.problem is None and "problem" in cfg:
        args.problem = [p.strip() for p in cfg["problem"].split(",") if p.strip()]
    if args.transform is None and "transform" in cfg:
        args.transform = [t.strip() for t in cfg["transform"].split(",") if t.strip()]
    for key, attr, cast in (
        ("n-min", "n_min", int), ("n-max", "n_max", int),
        ("beta", "beta", float), ("theta", "theta", float), ("z", "z", float),
        ("format", "fmt", str), ("out", "out", str),
    ):
        if getattr(args, attr, None) is None and key in cfg:
            setattr(args, attr, cast(cfg[key]))
    if getattr(args, "fixture", None) is None and "fixture" in cfg:
        args.fixture = cfg["fixture"]


def _with_defaults(spec: TransformSpec, args: argparse.Namespace) -> TransformSpec:
    theta = spec.theta
    beta = spec.beta
    if theta is None and spec.kind == "rho-osada":
        theta = args.theta
    if beta is None and spec.kind.startswith("levin"):
        beta = args.beta
    return dataclasses.replace(spec, theta=theta, beta=beta)


def _build_config(args: argparse.Namespace) -> RunConfig:
    if not args.problem:
        raise SeqAccelError("no problems given (use --problem, repeatable)")
    if not args.transform:
        raise SeqAccelError("no transforms given (use --transform, repeatable)")
    n_min = args.n_min if args.n_min is not None else 4
    n_max = args.n_max if args.n_max is not None else max(n_min, 20)
    problems = []
    for text in args.problem:
        spec = parse_problem(text, default_count=n_max + 1)
        if spec.z is None and args.z is not None and spec.kind in (
                "rbf-invz", "euler-divergent", "geometric"):
            spec = parse_problem(f"{text}:z={args.z:g}" if ":" not in text
                                 else f"{text},z={args.z:g}", default_count=n_max + 1)
        problems.append(spec)
    transforms = [_with_defaults(parse_transform(t), args) for t in args.transform]
    return RunConfig(
        problems=tuple(problems),
        transforms=tuple(transforms),
        n_min=n_min,
        n_max=n_max,
        fmt=args.fmt or "csv",
    )


def _emit(report, fmt: str, out: str | None) -> None:
    if out:
        export(report, fmt, out)
    else:
        sys.stdout.write(render(report, fmt))


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    report = run(config)
    _emit(report, config.fmt, args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    fixture_arg = args.fixture
    path = Path(fixture_arg)
    if not path.exists():
        path = builtin_fixture_path(fixture_arg)
    fixture = load_fixture(path)
    config = config_for_fixture(fixture, fmt=args.fmt or "csv")
    if args.n_min is not None or args.n_max is not None:
        config = dataclasses.replace(
            config,
            n_min=args.n_min if args.n_min is not None else config.n_min,
            n_max=args.n_max if args.n_max is not None else config.n_max,
        )
    report = run(config)
    summary = check_fixture(report, fixture)
    if args.out:
        export(report, config.fmt, args.out)
    print(summary.describe())
    return 0 if summary.passed else 1


def _cmd_list() -> int:
    print("problems:")
    for name in available_problems():
        print(f"  {name}")
    print("transforms:")
    for name in available_transforms():
        print(f"  {name}")
    print("built-in fixtures:")
    for name in builtin_fixtures():
        print(f"  {name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        _merge_config(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        raise SeqAccelError(f"unknown command {args.command!r}")
    except SeqAccelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
