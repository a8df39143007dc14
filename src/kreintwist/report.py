"""Run configuration, check records and report emission (text / json)."""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, asdict
from numbers import Integral, Real
from typing import Optional

from .clifford import all_signatures

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ReportIOError",
    "SUITE_ORDER",
    "CHECKED_FAMILIES",
    "DEFAULT_TOLERANCES",
    "DEFAULT_SIGNATURES",
    "SuiteConfig",
    "CheckRecord",
    "Report",
    "read_config_items",
    "parse_config_file",
    "emit",
]

SUITE_ORDER = ("clifford", "krein", "morphism", "geometry", "product", "emergence")

# the metric families the geometry suite checks, in order; ``metric_family`` names one of them
CHECKED_FAMILIES = ("exp2d", "conformal2d", "lorentz2d", "lorentz4d")

# Tolerance classes, tightest first: exact algebra at build scale, chained
# products, norm-amplified sampled checks, and the FD-limited geometry ones.
DEFAULT_TOLERANCES = {
    "involution": 1e-13,
    "build": 1e-12,
    "chain": 1e-11,
    "sampled": 1e-10,
    "fd_fine": 1e-6,
    "fd": 1e-5,
    "fd_coarse": 1e-4,
    "ratio": 0.5,
}

DEFAULT_SIGNATURES = tuple((s.p, s.q) for s in all_signatures())


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


class ReportIOError(OSError):
    """Report could not be written (exit code 2)."""


def _finite(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _json_number(value: float):
    """A finite float as itself; inf, -inf and nan, which strict JSON cannot
    write, as the strings "inf", "-inf" and "nan" (``float`` reads them back)."""
    return value if math.isfinite(value) else repr(float(value))


@dataclass
class SuiteConfig:
    suites: tuple = ("all",)
    signatures: tuple = DEFAULT_SIGNATURES
    metric_family: str = "lorentz4d"
    metric_params: dict = field(default_factory=dict)
    fd_step: float = 1e-3
    seed: int = 1234
    tolerances: dict = field(default_factory=dict)
    output_format: str = "text"
    output_path: Optional[str] = None

    def resolved_suites(self) -> tuple:
        out = []
        for s in self.suites:
            if s == "all":
                out.extend(SUITE_ORDER)
            else:
                out.append(s)
        return tuple(out)

    def tol(self, cls: str) -> float:
        if cls not in DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance class '{cls}'")
        return float(self.tolerances.get(cls, DEFAULT_TOLERANCES[cls]))

    def validate(self) -> None:
        for name in ("suites", "signatures"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise ConfigError(f"{name} must be a tuple or list, got {getattr(self, name)!r}")
        for s in self.suites:
            if s != "all" and s not in SUITE_ORDER:
                raise ConfigError(f"unknown suite '{s}'")
        suites = self.resolved_suites()
        for s in suites:
            if suites.count(s) > 1:
                raise ConfigError(f"suite '{s}' is listed more than once")
        if not self.signatures:
            raise ConfigError("at least one signature is required")
        seen = set()
        for sig in self.signatures:
            if not (isinstance(sig, (tuple, list)) and len(sig) == 2
                    and all(map(_integer, sig))):
                raise ConfigError(f"signature {sig!r} is not a pair of integers")
            p, q = sig
            if p < 0 or q < 0 or (p + q) % 2 != 0 or (p + q) < 2:
                raise ConfigError(f"signature ({p},{q}) is not even-dimensional")
            if (p, q) in seen:
                raise ConfigError(f"signature ({p},{q}) is listed more than once")
            seen.add((p, q))
        if not (_finite(self.fd_step) and 1e-6 < self.fd_step < 1e-1):
            raise ConfigError(f"fd_step must be a number in (1e-6, 1e-1), got {self.fd_step!r}")
        if not _integer(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        from .geometry import FAMILY_PARAMS

        if self.metric_family not in CHECKED_FAMILIES:
            raise ConfigError(
                f"metric family '{self.metric_family}' is not one the geometry suite checks "
                f"(choose from {', '.join(CHECKED_FAMILIES)})"
            )
        for name in ("metric_params", "tolerances"):
            if not isinstance(getattr(self, name), Mapping):
                raise ConfigError(f"{name} must be a mapping, got {getattr(self, name)!r}")
        reads = FAMILY_PARAMS[self.metric_family]
        for key, value in self.metric_params.items():
            if key not in reads:
                raise ConfigError(
                    f"metric family '{self.metric_family}' reads no parameter '{key}' "
                    f"(it reads: {', '.join(reads) or 'none'})"
                )
            if not _finite(value):
                raise ConfigError(f"parameter '{key}' must be a finite number, got {value!r}")
        for cls, value in self.tolerances.items():
            if cls not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance class '{cls}'")
            if not (_finite(value) and value > 0):
                raise ConfigError(f"tolerance '{cls}' must be a finite positive number, got {value!r}")
        if self.output_format not in ("text", "json"):
            raise ConfigError(f"unknown output format '{self.output_format}'")
        if not (self.output_path is None or (isinstance(self.output_path, str) and self.output_path)):
            raise ConfigError(f"output_path must be a non-empty string, got {self.output_path!r}")

    def echo(self) -> dict:
        return {
            "suites": list(self.resolved_suites()),
            "signatures": [list(s) for s in self.signatures],
            "metric_family": self.metric_family,
            "metric_params": dict(sorted(self.metric_params.items())),
            "fd_step": self.fd_step,
            "seed": self.seed,
            "tolerances": {
                k: self.tol(k) for k in sorted(DEFAULT_TOLERANCES)
            },
            "output_format": self.output_format,
        }


@dataclass(frozen=True)
class CheckRecord:
    """One verified identity: residual vs tolerance plus its formula anchor."""

    suite: str
    check_id: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: float


@dataclass
class Report:
    tool_version: str
    config: dict
    records: list
    summary: dict

    @classmethod
    def from_records(cls, config: SuiteConfig, records: list) -> "Report":
        passed = sum(1 for r in records if r.passed)
        return cls(
            tool_version=__version__,
            config=config.echo(),
            records=list(records),
            summary={
                "total": len(records),
                "passed": passed,
                "failed": len(records) - passed,
            },
        )

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_json_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "config": self.config,
            "records": [{**asdict(r), "residual": _json_number(r.residual)} for r in self.records],
            "summary": dict(self.summary),
        }


def read_config_items(items, values: dict) -> dict:
    """Read (where, key, text) triples into ``values``, keyed by ``SuiteConfig``
    field, and return it: the one value grammar of config files and flags.

    Keys: suites (comma list), signatures (semicolon list of "p,q" pairs),
    metric, param.NAME, fd_step, seed, tol.CLASS, format, out; each text is
    stripped.  A later triple overrides an earlier one, per NAME for param.
    and tol. keys.  Errors name ``where``.
    """
    for where, key, val in items:
        val = val.strip()
        try:
            if key == "suites":
                values["suites"] = tuple(s.strip() for s in val.split(",") if s.strip())
            elif key == "signatures":
                sigs = []
                for item in val.split(";"):
                    item = item.strip()
                    if not item:
                        continue
                    p, q = (int(t) for t in item.split(","))
                    sigs.append((p, q))
                values["signatures"] = tuple(sigs)
            elif key == "metric":
                values["metric_family"] = val
            elif key.startswith("param."):
                values.setdefault("metric_params", {})[key[len("param."):]] = float(val)
            elif key == "fd_step":
                values["fd_step"] = float(val)
            elif key == "seed":
                values["seed"] = int(val)
            elif key.startswith("tol."):
                values.setdefault("tolerances", {})[key[len("tol."):]] = float(val)
            elif key == "format":
                values["output_format"] = val
            elif key == "out":
                values["output_path"] = val
            else:
                raise ConfigError(f"{where}: unknown key '{key}'")
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"{where}: bad value for '{key}': {exc}") from exc
    return values


def parse_config_file(path: str) -> dict:
    """Flat key = value config file, read by ``read_config_items``.  Blank
    lines and '#' comments are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    items = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, val = line.split("=", 1)
        items.append((f"{path}:{lineno}", key.strip(), val))
    return read_config_items(items, {})


def _text_lines(report: Report) -> list:
    header = (
        f"{'suite':<10} {'check':<46} {'anchor':<34} "
        f"{'residual':>12} {'tol':>9} {'status':<6}"
    )
    lines = [header]
    for r in report.records:
        lines.append(
            f"{r.suite:<10} {r.check_id:<46} {r.anchor:<34} "
            f"{r.residual:>12.3e} {r.tolerance:>9.1e} "
            f"{'pass' if r.passed else 'FAIL':<6}"
        )
    s = report.summary
    lines.append(
        f"summary: {s['passed']}/{s['total']} passed, {s['failed']} failed "
        f"(tool {report.tool_version})"
    )
    return lines


def emit(report: Report, fmt: str, path: Optional[str] = None) -> None:
    """Write the report as an aligned text table or a stable-keyed json object."""
    if fmt == "json":
        payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=False, allow_nan=False)
        payload += "\n"
    elif fmt == "text":
        payload = "\n".join(_text_lines(report)) + "\n"
    else:
        raise ConfigError(f"unknown output format '{fmt}'")
    if path is None:
        sys.stdout.write(payload)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):  # absent when open itself failed
            os.remove(tmp)
        raise ReportIOError(f"cannot write report to {path}: {exc}") from exc
