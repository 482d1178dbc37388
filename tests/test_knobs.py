"""No riemcond signature re-exposes a threshold, a step or a callback.

Each threshold the library applies (the ill-posed zero, normality, the
multiview domain floor, rank, finite-difference steps, ...) is a named
module constant read in place. The exceptions are SolverOptions' stopping
rules, which the command line sets. Adding a parameter back is a visible
decision: it has to be listed here.
"""

import importlib
import inspect
import pkgutil

import riemcond

KNOB_NAMES = {"step", "callback", "kwargs", "prominence_decades"}
ALLOWED = [("riemcond.solver.SolverOptions.__init__", "grad_tol"),
           ("riemcond.solver.SolverOptions.__init__", "step_tol")]


def _functions(module):
    """Functions, methods and properties defined in module, by qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def knob_parameters():
    hits = []
    for info in pkgutil.iter_modules(riemcond.__path__):
        module = importlib.import_module(f"riemcond.{info.name}")
        for where, fn in _functions(module):
            for param in inspect.signature(fn).parameters:
                if param.endswith("_tol") or param in KNOB_NAMES:
                    hits.append((where, param))
    return sorted(hits)


def test_no_tolerance_step_or_callback_parameters():
    functions = dict(_functions(importlib.import_module("riemcond.manifold")))
    assert "riemcond.manifold.Parametrization.jacobian_fd" in functions  # methods are scanned
    assert knob_parameters() == ALLOWED
