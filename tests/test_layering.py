"""Static layering check: leaf packages never import the service stack.

The compiler's packages (graphs, schedulers, lifetimes, allocation,
native kernels, the recorder) must stay importable and runnable
without the compile service, the differential harness, the CLI or the
experiment drivers.  Every ``import`` statement counts, including
function-level and relative ones.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

LEAF_PACKAGES = (
    "sdf", "scheduling", "native", "lifetimes", "allocation", "obs",
)
FORBIDDEN = ("repro.serve", "repro.check", "repro.cli", "repro.experiments")


def imported_modules(path, module):
    """Absolute names of every module imported anywhere in ``path``.

    ``module`` is the dotted name of ``path`` itself, against which
    relative imports resolve.
    """
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    package = module.split(".")
    if not path.endswith("__init__.py"):
        package.pop()
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                parent = package[:len(package) - node.level + 1]
                if node.module:
                    parent.append(node.module)
                base = ".".join(parent)
            names.append(base)
            # ``from repro import serve`` imports the submodule.
            names.extend(f"{base}.{alias.name}" for alias in node.names)
    return names


def _leaf_modules():
    """``(path, dotted name)`` of every module in the leaf packages."""
    for package in LEAF_PACKAGES:
        for dirpath, _, filenames in os.walk(os.path.join(SRC, package)):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    rel = os.path.relpath(path, SRC)[:-len(".py")]
                    parts = ["repro"] + rel.split(os.sep)
                    if parts[-1] == "__init__":
                        parts.pop()
                    yield path, ".".join(parts)


def _forbidden(name):
    return any(name == f or name.startswith(f + ".") for f in FORBIDDEN)


def test_resolver_sees_function_level_and_relative_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f():\n"
        "    from ..serve.cache import ArtifactCache\n"
        "    from .. import cli\n"
        "    import repro.check.harness\n"
    )
    names = imported_modules(str(probe), "repro.native.probe")
    assert "repro.serve.cache" in names
    assert "repro.cli" in names
    assert "repro.check.harness" in names


LEAF_MODULES = list(_leaf_modules())


@pytest.mark.parametrize(
    "path,module", LEAF_MODULES, ids=[m for _, m in LEAF_MODULES],
)
def test_leaf_module_imports_no_service_stack(path, module):
    offenders = sorted(
        {n for n in imported_modules(path, module) if _forbidden(n)}
    )
    assert offenders == [], f"{module} imports {offenders}"
