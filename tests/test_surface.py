"""The package's public names, and what must stay out of it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import seqaccel
from seqaccel import available_transforms


def test_every_exported_name_resolves():
    modules = [seqaccel] + [importlib.import_module(f"seqaccel.{info.name}")
                            for info in pkgutil.iter_modules(seqaccel.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_package_never_imports_test_oracles():
    for path in Path(seqaccel.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any("oracles" in name.split(".") for name in names), path


def test_unrunnable_rho_points_not_registered():
    # generated problems carry no sample points, so it could only fail
    assert "rho-points" not in available_transforms()
