"""Every top-level definition, class field and method of the package is
reached by package code.

A def, class or constant that only tests, scripts or the benchmark use is
API kept alive for them alone.  The scan parses each module of the package and
counts a definition as reached when package code outside its own body
names it through a ``Name`` or ``Attribute`` node.  ``__all__`` strings,
imports and docstrings do not count; names are matched bare, across
modules.  A class field (an annotated name in a class body) or a non-dunder
method counts as read when package code names it through an ``Attribute``
node.  A top-level assigned name other than a dunder counts as read when
package code loads it through a ``Name`` node or names it through an
``Attribute`` node; no constant is exempt.
"""

import ast
from pathlib import Path

import kreintwist

# Reached only by perfbench/: each goes once the tracer spans the kernels the
# suite rows call (ROADMAP item 4).
PERFBENCH_BOUND = {
    "clifford.metric_pairing",  # item 4: the tracer counts krein's unused import of it
    "geometry.dirac_decomposition_check",  # item 4: the tracer spans it, rows read a stacked jet
    "geometry.metric_compatibility_residual",  # item 4: the tracer spans it, rows read the jet
    "geometry.spin_connection_coeffs",  # item 4: the tracer spans it, rows read the jet
    "krein._draw_unit_vector",  # item 4: the tracer counts its draws
    "krein.k_product",  # item 4: the tracer spans it
    "morphism.fluctuation_correspondence_check",  # item 4: a one-line wrapper the tracer spans
    "morphism.twisted_clifford_check",  # item 4: a one-line wrapper the tracer spans
    "product.gauge_vs_form_residual",  # item 4: a one-line wrapper the tracer spans
}

# Public one-vector c(v), exported from the package root and used in the
# README; rows call represent_stack.  The tracer spans it too (item 4).
PUBLIC = {"clifford.represent"}


# Members no package code reads through an attribute, each kept for a reader
# outside that scan.
UNREAD_MEMBERS = {
    "report.CheckRecord.runtime_ms",  # emitted with the record through asdict
    "krein.SpinElement.factors",  # the input of the spin reference tests
    "geometry.MetricField.name",  # a label that reprs and test ids read
}


def _modules():
    for path in sorted(Path(kreintwist.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _unreached() -> set:
    defs, named = {}, set()
    for stem, tree in _modules():
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defs[own] = f"{stem}.{own}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id != own:
                    named.add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr != own:
                    named.add(sub.attr)
    return {qualified for name, qualified in defs.items() if name not in named}


def test_only_the_listed_definitions_lack_a_package_caller():
    assert _unreached() == PERFBENCH_BOUND | PUBLIC


def _unread_members() -> set:
    members, attrs = [], set()
    for stem, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                    elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        name = item.name
                    else:
                        continue
                    if not (name.startswith("__") and name.endswith("__")):
                        members.append((name, f"{stem}.{node.name}.{name}"))
    return {qualified for name, qualified in members if name not in attrs}


def test_every_class_field_and_method_is_read_by_package_code():
    assert _unread_members() == UNREAD_MEMBERS


def _unread_constants() -> set:
    assigned, read = [], set()
    for stem, tree in _modules():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            for sub in (n for t in targets for n in ast.walk(t)):
                if isinstance(sub, ast.Name) and not (sub.id.startswith("__") and sub.id.endswith("__")):
                    assigned.append((sub.id, f"{stem}.{sub.id}"))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
    return {qualified for name, qualified in assigned if name not in read}


def test_every_top_level_constant_is_read_by_package_code():
    assert _unread_constants() == set()
