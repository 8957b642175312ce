"""Every name the model packages export is used by code outside them.

A package's ``__all__`` is the surface other code builds on.  A name that
only its own package and the tests reach is a test-only API beside the path
the replay runs, so this gate fails as soon as one is exported: delete it,
or use it.  A reference is a name, attribute or import alias in ``src/``,
``examples/``, ``scripts/``, ``benchmarks/`` or ``perfbench/``; references
inside the exporting package (the definition, the re-export and the
package's own internal uses) do not count.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "examples", "scripts", "benchmarks", "perfbench")
PACKAGES = (
    "repro.sim",
    "repro.network",
    "repro.memory",
    "repro.photonics",
    "repro.cache",
    "repro.power",
    "repro.coherence",
    "repro.cores",
)


def _referenced_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_export_is_used_outside_its_package():
    references = {
        path: _referenced_names(path)
        for directory in CODE_DIRS
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    }
    unused = {}
    for package in PACKAGES:
        package_dir = REPO_ROOT / "src" / Path(*package.split("."))
        referenced = set().union(
            *(names for path, names in references.items() if package_dir not in path.parents)
        )
        exported = importlib.import_module(package).__all__
        missing = [name for name in exported if name not in referenced]
        if missing:
            unused[package] = missing
    assert not unused, f"exported but used only inside their package or by tests: {unused}"


#: Packages the replay imports: none may import ``repro.core`` at run time,
#: because its package init loads the replay.  They annotate with a
#: ``TYPE_CHECKING`` import instead.
CONFIG_FREE_PACKAGES = ("network", "memory", "cores", "photonics", "trace")


def _runtime_imports(node: ast.AST) -> set:
    """Modules ``node`` imports outside ``if TYPE_CHECKING:`` blocks."""
    if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
        return set().union(*(_runtime_imports(child) for child in node.orelse))
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module:
        return {node.module}
    return set().union(*(_runtime_imports(child) for child in ast.iter_child_nodes(node)))


def test_model_packages_do_not_import_the_config_package_at_run_time():
    offenders = {}
    for package in CONFIG_FREE_PACKAGES:
        for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
            imports = _runtime_imports(ast.parse(path.read_text(encoding="utf-8")))
            core = sorted(m for m in imports if m == "repro.core" or m.startswith("repro.core."))
            if core:
                offenders[str(path.relative_to(REPO_ROOT))] = core
    assert not offenders, f"run-time imports of repro.core: {offenders}"
