"""The public surface is the pipeline: every exported function or class is
used by the package itself or documented in the README."""

import ast
import inspect
import re
from pathlib import Path

import sgmor

PACKAGE = Path(sgmor.__file__).parent
README = PACKAGE.parents[1] / "README.md"

# Kept for ROADMAP item 1: the per-order stability certificate is built on
# is_dissipative.
ALLOWED_UNUSED = {"is_dissipative"}


def _referenced_names() -> set:
    """Names, attributes and imported names used in the package's modules
    other than __init__; a definition alone does not count."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_or_documented():
    used = _referenced_names()
    readme = README.read_text()
    code = [name for name in sgmor.__all__
            if inspect.isfunction(getattr(sgmor, name)) or inspect.isclass(getattr(sgmor, name))]
    unused = sorted(name for name in code
                    if name not in used and name not in ALLOWED_UNUSED
                    and not re.search(rf"\b{name}\b", readme))
    assert unused == [], f"exported but used by no pipeline path: {unused}"


def test_benchmark_tracer_targets_exist(monkeypatch):
    # perfbench/tracer.py wraps pipeline functions by module attribute; a
    # deleted or renamed one makes installed() raise AttributeError
    monkeypatch.syspath_prepend(str(PACKAGE.parents[1] / "perfbench"))
    import tracer

    before = [getattr(mod, attr) for mod, attr, _, _ in tracer.TARGETS]
    with tracer.Tracer().installed():
        pass
    assert [getattr(mod, attr) for mod, attr, _, _ in tracer.TARGETS] == before
