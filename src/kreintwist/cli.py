"""Command-line driver.

    verify --suite all --format json --out report.json
    verify --suite clifford --suite krein --signature 1 3 --seed 7
    verify --suite geometry --metric lorentz4d --param amp=0.05 --fd-step 1e-3
    verify --config run.cfg

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration or unwritable output.  A default config file can be pointed
to by the KREINTWIST_CONFIG environment variable; command-line flags
override file values.
"""

from __future__ import annotations

import argparse
import os
import sys

from .report import (
    ConfigError,
    ReportIOError,
    SuiteConfig,
    SUITE_ORDER,
    emit,
    parse_config_file,
    read_config_items,
)
from .suites import run

ENV_CONFIG = "KREINTWIST_CONFIG"


def build_parser() -> argparse.ArgumentParser:
    """Flag values stay text: ``config_from_args`` reads them with the config
    file's grammar (``report.read_config_items``)."""
    p = argparse.ArgumentParser(
        prog="verify",
        description="Run residual verification suites for twisted Clifford / Krein operator identities.",
    )
    p.add_argument(
        "--suite",
        action="append",
        dest="suites",
        metavar="NAME",
        help=f"suite to run ({', '.join(SUITE_ORDER)} or 'all'); repeatable",
    )
    p.add_argument(
        "--signature",
        action="append",
        dest="signatures",
        nargs=2,
        metavar=("P", "Q"),
        help="metric signature as plus/minus counts; repeatable",
    )
    p.add_argument("--metric", metavar="NAME", help="metric family name")
    p.add_argument(
        "--param",
        action="append",
        dest="params",
        metavar="K=V",
        help="metric family parameter; repeatable",
    )
    p.add_argument("--fd-step", metavar="H")
    p.add_argument("--seed", metavar="N")
    p.add_argument(
        "--tol",
        action="append",
        dest="tols",
        metavar="CLASS=EPS",
        help="tolerance override per check class; repeatable",
    )
    p.add_argument("--format", metavar="{text,json}")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    return p


def _flag_items(args) -> list:
    """The given flags as (flag, config-file key, text) triples."""
    items = [(f"--{key.replace('_', '-')}", key, getattr(args, key))
             for key in ("metric", "fd_step", "seed", "format", "out") if getattr(args, key) is not None]
    if args.suites:
        items.append(("--suite", "suites", ",".join(args.suites)))
    if args.signatures:
        items.append(("--signature", "signatures", ";".join(",".join(pq) for pq in args.signatures)))
    for flag, prefix, given in (("--param", "param.", args.params), ("--tol", "tol.", args.tols)):
        for item in given or []:
            name, _, text = item.partition("=")
            items.append((f"{flag} {item}", prefix + name.strip(), text))
    return items


def config_from_args(argv) -> SuiteConfig:
    args = build_parser().parse_args(argv)
    path = args.config or os.environ.get(ENV_CONFIG)
    values = read_config_items(_flag_items(args), parse_config_file(path) if path else {})
    cfg = SuiteConfig(**values)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    try:
        cfg = config_from_args(sys.argv[1:] if argv is None else argv)
        report = run(cfg)
        emit(report, cfg.output_format, cfg.output_path)
    except (ConfigError, ReportIOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
