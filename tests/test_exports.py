import ast
import importlib
from pathlib import Path

import monosync


def test_package_exports_are_in_their_module_all():
    # every name the package imports from one of its modules is in that module's __all__
    tree = ast.parse(Path(monosync.__file__).read_text())
    imports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert {module for module, _ in imports} >= {"engine", "errors", "transport"}
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if name not in getattr(importlib.import_module(f"monosync.{module}"), "__all__", ())
    ]
    assert missing == []


def test_one_image_box_kernel_and_one_strict_order_test():
    # engine.image_box images the probe for splitting and sync; order holds the strict tests
    splitting, sync, families, order = (
        importlib.import_module(f"monosync.{m}") for m in ("splitting", "sync", "families", "order")
    )
    for module in (splitting, sync):
        assert "image_points_at_depths" not in vars(module), module.__name__
        assert "image_box" in vars(module), module.__name__
    assert families._strictly_less is order._strictly_less
    assert splitting._strictly_below is order._strictly_below


def test_only_families_binds_the_clamp():
    # MapFamily.apply_batch is the one apply-and-clamp; every other module calls it
    for module in ("engine", "clt", "transport", "splitting", "sync"):
        assert "_clamp_points" not in vars(importlib.import_module(f"monosync.{module}")), module
