"""Every function the benchmark tracer wraps still exists in its riemcond home.

perfbench/spans.py looks each name up with getattr when a traced run
starts, so a rename or deletion in src/ would only surface as a failed
benchmark run. TRACED and METHODS are read from the source with ast; the
benchmark package is not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _literal(name):
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS.name} no longer assigns {name}")


def test_traced_functions_resolve_in_their_home_modules():
    traced = _literal("TRACED")
    assert "mv_kappa" in traced["multiview"]
    for home, names in traced.items():
        module = importlib.import_module(f"riemcond.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"riemcond.{home}.{name}"


def test_traced_methods_resolve_on_their_classes():
    methods = _literal("METHODS")
    assert ("multiview", "Camera", "center_homogeneous") in methods
    for home, cls_name, name in methods:
        cls = getattr(importlib.import_module(f"riemcond.{home}"), cls_name)
        assert callable(vars(cls).get(name)), f"riemcond.{home}.{cls_name}.{name}"
