"""Span tracing of kreintwist from outside the package.

The recorder wraps public functions of each module and keeps one span per
call in memory: name, start, end, parent span and operation id.  Modules
bind names with ``from .linalg import residual_norm``, so a function is
replaced in every kreintwist module that binds it, not only where it is
defined.  Validating dataclasses are timed through ``__post_init__``.

The waste and reuse counters are recorded at the same boundaries:

* ``krein.draw_accept_ratio``: successful ``_draw_unit_vector`` returns over
  draws attempted, an attempt being one ``metric_pairing`` call inside it;
* ``clifford.builds_per_signature``: ``build_gammas`` calls over the
  distinct signatures built in the same operation;
* ``geometry.spin_connection_coeffs.reuse_share``: 1 minus the distinct
  ``(metric, point, h)`` keys over calls, per operation.

This module imports nothing heavy at load time: a traced CLI child imports
it before ``kreintwist.cli`` and must not pay numpy's import there.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from time import perf_counter

SUITES = ("clifford", "krein", "morphism", "geometry", "product", "emergence")

# (module, attribute, span name); "Cls.method" wraps the method on the class
SPANS = (
    ("report", "SuiteConfig.validate", "report.validate"),
    ("report", "emit", "report.emit"),
    ("suites", "_Runner.add", "suites.check"),
    ("clifford", "build_gammas", "clifford.build_gammas"),
    ("clifford", "build_structural", "clifford.build_structural"),
    ("clifford", "canonical_dirac_pair", "clifford.canonical_dirac_pair"),
    ("clifford", "sign_table", "clifford.sign_table"),
    ("clifford", "represent", "clifford.represent"),
    ("krein", "sample_spin_plus", "krein.sample_spin_plus"),
    ("krein", "k_product", "krein.k_product"),
    ("krein", "k_adjoint", "krein.k_adjoint"),
    ("krein", "twisted_commutator", "krein.twisted_commutator"),
    ("krein", "gauge_transform", "krein.gauge_transform"),
    ("krein", "KreinSpace.__post_init__", "krein.KreinSpace"),
    ("krein", "TwistedTripleData.__post_init__", "krein.TwistedTripleData"),
    ("morphism", "MorphismPair.__post_init__", "morphism.MorphismPair"),
    ("morphism", "trace_metric_morph_check", "morphism.trace_metric_morph_check"),
    ("morphism", "twisted_clifford_check", "morphism.twisted_clifford_check"),
    ("morphism", "fluctuation_correspondence_check", "morphism.fluctuation_correspondence_check"),
    ("geometry", "christoffel", "geometry.christoffel"),
    ("geometry", "spin_connection_coeffs", "geometry.spin_connection_coeffs"),
    ("geometry", "dirac_decomposition_check", "geometry.dirac_decomposition_check"),
    ("geometry", "metric_compatibility_residual", "geometry.metric_compatibility_residual"),
    ("product", "assemble_product", "product.assemble_product"),
    ("product", "gauge_vs_form_residual", "product.gauge_vs_form_residual"),
    ("product", "signature_emergence", "product.signature_emergence"),
    ("linalg", "op_norm", "linalg.op_norm"),
    ("linalg", "residual_norm", "linalg.residual_norm"),
    ("linalg", "as_cmat", "linalg.as_cmat"),
)

# spans reported with .calls and .self_s (per operation)
CALL_SPANS = tuple(name for _, _, name in SPANS if name not in ("report.validate", "report.emit", "suites.check"))


def layer_metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.import_s": "s", "cli.main_s": "s/op", "report.validate_s": "s/op", "report.emit_s": "s/op", "report.emit_bytes": "B/op"}
    for suite in SUITES:
        units[f"suites.{suite}.busy_s"] = "s/op"
        units[f"suites.{suite}.setup_s"] = "s/op"
    units["suites.check.calls"] = "count/op"
    for name in CALL_SPANS:
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
    units.update(
        {
            "clifford.builds_per_signature": "ratio",
            "krein.sample_spin_plus.errors": "count/op",
            "krein.draws_attempted": "count/op",
            "krein.draw_accept_ratio": "share",
            "geometry.spin_connection_coeffs.reuse_share": "share",
            "linalg.op_norm.mean_n": "rows",
            "linalg.op_norm.flops_est": "flop/op",
            "fail_share": "share",
            "trace.coverage_share": "share",
            "trace.overhead_records_per_s": "1/s",
        }
    )
    return units


class Recorder:
    """In-memory span store plus the counters kept at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.op_id = 0
        self.counters: dict[str, float] = {}
        self._distinct: dict[str, set] = {}
        self.distinct_total: dict[str, int] = {}
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def distinct(self, key: str, value) -> None:
        self._distinct.setdefault(key, set()).add(value)

    def start_op(self, op_id: int) -> int:
        """Close the previous operation's distinct-key sets; open a root span."""
        self._flush_distinct()
        self.op_id = op_id
        return self.begin(self.name_id("op"))

    def _flush_distinct(self) -> None:
        for key, seen in self._distinct.items():
            self.distinct_total[key] = self.distinct_total.get(key, 0) + len(seen)
        self._distinct = {}

    # ---------------------------------------------------------------- wrapping

    def _span(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(rec, args, kwargs)
            idx = rec.begin(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec.count(f"{name}.errors")
                raise
            finally:
                rec.end(idx)
            if after is not None:
                after(rec, args, kwargs)
            return out

        return traced

    def _replace(self, container, key, new) -> None:
        if isinstance(container, dict):
            self._restore.append((container, key, container[key]))
            container[key] = new
        else:
            self._restore.append((container, key, getattr(container, key)))
            setattr(container, key, new)

    def _rebind(self, original, new) -> None:
        """Replace every binding of ``original`` in the loaded package."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kreintwist" or mod_name.startswith("kreintwist.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        """Wrap every traced function of an imported kreintwist."""
        import kreintwist as pkg

        hooks = {
            "linalg.op_norm": (_count_op_norm, None),
            "clifford.build_gammas": (_note_signature, None),
            "geometry.spin_connection_coeffs": (_note_fd_key, None),
            "report.emit": (None, _count_emit_bytes),
        }
        for mod_name, attr, name in SPANS:
            mod = getattr(pkg, mod_name)
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self._span(name, vars(cls)[meth], before, after))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._span(name, original, before, after))
        builders = pkg.suites.SUITE_BUILDERS
        for suite in SUITES:
            original = builders[suite]
            wrapped = self._span(f"suites.{suite}", original)
            self._replace(builders, suite, wrapped)
            self._rebind(original, wrapped)
        self._install_draw_counters(pkg.krein)

    def _install_draw_counters(self, krein) -> None:
        rec = self
        draw, pairing = krein._draw_unit_vector, krein.metric_pairing
        inside = [0]

        @functools.wraps(draw)
        def counted_draw(*args, **kwargs):
            inside[0] += 1
            try:
                out = draw(*args, **kwargs)
            finally:
                inside[0] -= 1
            rec.count("krein.draws_accepted")
            return out

        @functools.wraps(pairing)
        def counted_pairing(*args, **kwargs):
            if inside[0]:
                rec.count("krein.draws_attempted")
            return pairing(*args, **kwargs)

        self._replace(krein, "_draw_unit_vector", counted_draw)
        self._replace(krein, "metric_pairing", counted_pairing)

    def uninstall(self) -> None:
        while self._restore:
            container, key, original = self._restore.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    # ----------------------------------------------------------- persistence

    def save(self, path: str) -> None:
        """Write spans and counters to an .npz file."""
        import numpy as np

        self._flush_distinct()
        meta = {"names": self.names, "counters": self.counters, "distinct_total": self.distinct_total}
        np.savez(
            path,
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
            t0=np.asarray(self.t0),
            t1=np.asarray(self.t1),
            meta=np.array(json.dumps(meta)),
        )

    def absorb(self, path: str, root: int) -> None:
        """Append the spans a traced child saved, under root span ``root``."""
        import numpy as np

        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            remap = [self.name_id(n) for n in meta["names"]]
            base = len(self.t0)
            for nid, par, t0, t1 in zip(data["name"].tolist(), data["parent"].tolist(), data["t0"].tolist(), data["t1"].tolist()):
                self.name.append(remap[nid])
                self.parent.append(root if par < 0 else base + par)
                self.op.append(self.op_id)
                self.t0.append(t0)
                self.t1.append(t1)
        for key, value in meta["counters"].items():
            self.count(key, value)
        for key, value in meta["distinct_total"].items():
            self.distinct_total[key] = self.distinct_total.get(key, 0) + value


def _count_op_norm(rec: Recorder, args, kwargs) -> None:
    n = len(args[0]) if args else len(kwargs["a"])
    rec.count("linalg.op_norm.n_sum", n)
    rec.count("linalg.op_norm.n3_sum", float(n) ** 3)


def _note_signature(rec: Recorder, args, kwargs) -> None:
    sig = args[0] if args else kwargs["sig"]
    rec.distinct("clifford.build_gammas", (sig.p, sig.q))


def _note_fd_key(rec: Recorder, args, kwargs) -> None:
    metric = args[0] if args else kwargs["metric"]
    x = args[1] if len(args) > 1 else kwargs["x"]
    h = args[2] if len(args) > 2 else kwargs.get("h", 1e-3)
    rec.distinct("geometry.spin_connection_coeffs", (metric.name, tuple(float(v) for v in x), float(h)))


def _count_emit_bytes(rec: Recorder, args, kwargs) -> None:
    path = args[2] if len(args) > 2 else kwargs.get("path")
    if path is not None:
        rec.count("report.emit_bytes", os.path.getsize(path))


def layer_metrics(rec: Recorder, n_ops: int) -> dict:
    """Per-layer metrics from the recorded spans, averaged per operation."""
    import numpy as np

    rec._flush_distinct()
    names = rec.names
    name = np.asarray(rec.name)
    parent = np.asarray(rec.parent)
    dur = np.asarray(rec.t1) - np.asarray(rec.t0)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    calls = np.bincount(name, minlength=len(names))
    self_sum = np.bincount(name, weights=self_t, minlength=len(names))
    dur_sum = np.bincount(name, weights=dur, minlength=len(names))
    per_op = 1.0 / max(n_ops, 1)

    def nid(n):
        return rec._ids.get(n, -1)

    def total(arr, n):
        i = nid(n)
        return float(arr[i]) if i >= 0 else 0.0

    c = rec.counters
    out = {
        "cli.main_s": total(dur_sum, "cli.main") * per_op,
        "report.validate_s": total(dur_sum, "report.validate") * per_op,
        "report.emit_s": total(dur_sum, "report.emit") * per_op,
        "report.emit_bytes": c.get("report.emit_bytes", 0.0) * per_op,
        "suites.check.calls": total(calls, "suites.check") * per_op,
    }
    check_id = nid("suites.check")
    for suite in SUITES:
        i = nid(f"suites.{suite}")
        busy = total(dur_sum, f"suites.{suite}")
        checks = 0.0
        if i >= 0 and check_id >= 0:
            is_builder = np.zeros(len(dur) + 1, dtype=bool)
            is_builder[:-1] = name == i
            under = (name == check_id) & is_builder[parent]
            checks = float(dur[under].sum())
        out[f"suites.{suite}.busy_s"] = busy * per_op
        out[f"suites.{suite}.setup_s"] = (busy - checks) * per_op
    for n in CALL_SPANS:
        out[f"{n}.calls"] = total(calls, n) * per_op
        out[f"{n}.self_s"] = total(self_sum, n) * per_op
    n_builds = total(calls, "clifford.build_gammas")
    distinct_sigs = rec.distinct_total.get("clifford.build_gammas", 0)
    n_spin = total(calls, "geometry.spin_connection_coeffs")
    distinct_keys = rec.distinct_total.get("geometry.spin_connection_coeffs", 0)
    attempted = c.get("krein.draws_attempted", 0.0)
    n_norm = total(calls, "linalg.op_norm")
    out.update(
        {
            "clifford.builds_per_signature": n_builds / distinct_sigs if distinct_sigs else 0.0,
            "krein.sample_spin_plus.errors": c.get("krein.sample_spin_plus.errors", 0.0) * per_op,
            "krein.draws_attempted": attempted * per_op,
            "krein.draw_accept_ratio": c.get("krein.draws_accepted", 0.0) / attempted if attempted else 0.0,
            "geometry.spin_connection_coeffs.reuse_share": 1.0 - distinct_keys / n_spin if n_spin else 0.0,
            "linalg.op_norm.mean_n": c.get("linalg.op_norm.n_sum", 0.0) / n_norm if n_norm else 0.0,
            "linalg.op_norm.flops_est": c.get("linalg.op_norm.n3_sum", 0.0) * per_op,
        }
    )
    roots = name == nid("op")
    root_dur = float(dur[roots].sum())
    is_root = np.zeros(len(dur) + 1, dtype=bool)
    is_root[:-1] = roots
    top = is_root[parent]
    out["trace.coverage_share"] = float(dur[top].sum()) / root_dur if root_dur else 0.0
    return out


def cli_child(spans_path: str, argv: list) -> int:
    """Body of a traced CLI process: time the import, trace ``main``."""
    rec = Recorder()
    idx = rec.begin(rec.name_id("cli.import"))
    import kreintwist.cli as cli

    rec.end(idx)
    rec.install()
    idx = rec.begin(rec.name_id("cli.main"))
    try:
        code = cli.main(argv)
    finally:
        rec.end(idx)
        rec.uninstall()
        rec.save(spans_path)
    return code
