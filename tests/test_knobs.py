"""No riemcond signature re-exposes a threshold, a step or a callback.

Each threshold the library applies (the ill-posed zero, normality, the
multiview domain floor, rank, finite-difference steps, ...) is a named
module constant read in place. The exceptions are SolverOptions' stopping
rules, which the command line sets. Adding a parameter back is a visible
decision: it has to be listed here. So is adding a public name to the
package (PUBLIC lists every one) or a flag to the command line (CLI_FLAGS
lists every flag of every command).
"""

import argparse
import importlib
import inspect
import pkgutil
from pathlib import Path

import riemcond
from riemcond.cli import build_parser

KNOB_NAMES = {"step", "callback", "kwargs", "prominence_decades"}
ALLOWED = [("riemcond.solver.SolverOptions.__init__", "grad_tol"),
           ("riemcond.solver.SolverOptions.__init__", "step_tol")]
PUBLIC = [
    "AtInfinity", "Camera", "CameraRig", "ConditionReport", "DegenerateKernel", "DomainEscape",
    "EmptyInput", "InvalidGeometry", "NonFinite", "NotNormal", "NotSPD", "OutsideDomain",
    "Parametrization", "ProblemDerivative", "RankDeficient", "RiemcondError", "RigSpec",
    "SingularR", "SolveResult", "SolverOptions", "Status", "SweepRecord", "TangentFrame",
    "WeingartenData", "ZeroNormal", "affine", "as_parametrization", "builtin",
    "codim1_unit_normal", "critical_radii", "detect_dips", "experiment_sweep",
    "experiment_validate", "gen_rig", "graph2d", "ill_posedness_certificate", "kappa_bounds",
    "kappa_cpp", "kappa_cpp_curvatures", "kappa_cpp_from_weingarten", "kappa_gcpp",
    "lm_minimize", "log_grid", "mv_certificate", "mv_domain_check",
    "mv_jacobian", "mv_kappa", "mv_project", "mv_weingarten", "paraboloid", "prefix_rig",
    "principal_curvatures", "project_point", "random_unit_normal", "ratio_stats",
    "records_to_csv", "rig_from_dict", "rig_to_dict",
    "second_fundamental_contraction", "singular_offsets_rel", "sphere", "tangent_frame",
    "triangulate", "triangulate_linear", "weingarten", "weingarten_data",
]

_PROJECT_FLAGS = ("--ambient --corr --grad-tol --manifold --manifold-params --max-iters "
                  "--minimal-init --out --rig --step-tol --u0")
CLI_FLAGS = {
    "gen-rig": "--arc-degrees --focal --k --look-at --out --radius --seed",
    "kappa": "--eta --eta-scale --manifold --manifold-params --out --point --rig --seed --u",
    "project": _PROJECT_FLAGS,
    "triangulate": _PROJECT_FLAGS,
    "sweep": "--grid --one-sided --out --point --rig --seed",
    "validate": ("--grad-tol --grid --max-iters --one-sided --out --perturb-rel --point --rig "
                 "--seed --step-tol"),
    "plot": "--columns --csv --out",
}


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


def test_public_names_are_listed():
    """The package's public names, its submodules aside, are exactly PUBLIC."""
    names = sorted(name for name, obj in vars(riemcond).items()
                   if not name.startswith("_") and not inspect.ismodule(obj))
    assert names == PUBLIC


def test_cli_flags_are_listed():
    """Every (command, flag) pair the parser defines, aliases included, is in CLI_FLAGS."""
    (commands,) = (action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    pairs = sorted((name, flag) for name, parser in commands.items()
                   for action in parser._actions for flag in action.option_strings
                   if flag not in ("-h", "--help"))
    assert pairs == sorted((name, flag) for name, flags in CLI_FLAGS.items()
                           for flag in flags.split())


# Lines of src/riemcond/*.py at the last change that moved the count. Growth past it is
# a visible decision, argued where it is made, like a new name in PUBLIC.
LINE_BUDGET = 2709


def test_src_line_budget():
    src = Path(riemcond.__file__).parent
    assert sum(len(p.read_text().splitlines()) for p in src.glob("*.py")) <= LINE_BUDGET


# Words in one row of the README's package tour (str.split's count): a row that grows past
# it lists more contracts than a reader takes in, and is trimmed or split.
TOUR_ROW_WORDS = 200


def test_readme_package_tour_rows_stay_short():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [line for line in readme.read_text().splitlines() if line.startswith("| `riemcond.")]
    assert len(rows) == 9  # one per module
    words = {row.split("|")[1].strip(): len(row.split()) for row in rows}
    assert {name: n for name, n in words.items() if n > TOUR_ROW_WORDS} == {}
