"""The sweep and validation protocols reproduce the benchmark's stored
reference, and cold triangulation passes the benchmark's own check.

Runs the benchmark's six validation rays (normal seeds 4..9 on
RigSpec(k=10), two-sided grid 1e-3..1e2) as whole grids and checks them
against perfbench/reference.npz with the benchmark's own check_records and
tolerances (kappa_est 1e-8, theory 1e-10, flags exact), so a last-bit change
in the LM iteration fails here before a benchmark run. The 32 sweep rays
(normal seeds 0..7 on the prefix rigs k = 2, 3, 5, 10 of RigSpec(k=10), 100
rows each) go through the same check, so a drift of the sweep kernel past the
theory tolerance fails here too. The first calls of the triangulate workload
go through its check_solve the same way. perfbench/ is only read:
workloads.py is compiled from its source, which writes no bytecode cache next
to it.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import riemcond as rc

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[spec.name]
    return module


def test_validate_rays_match_benchmark_reference():
    wl = _workloads()
    ref = wl.load_reference()
    rig, grid = wl.validate_setup()
    for i, seed in enumerate(wl.VALIDATE_NORMALS):
        eta = rc.random_unit_normal(rig, wl.Y, seed)
        records = rc.experiment_validate(rig, wl.Y, eta, grid, perturb_rel=wl.PERTURB_REL)
        verdict = wl.check_records(records, wl._ref_rows(ref, "validate", i), f"normal={seed}")
        assert verdict.failed == 0, verdict.problems[:5]
        assert len(records) == len(grid) == 200


def test_sweep_rays_match_benchmark_reference():
    wl = _workloads()
    ref = wl.load_reference()
    rigs, grid = wl.sweep_setup()
    for ki, rig in enumerate(rigs):
        for seed in range(wl.SWEEP_NORMALS):
            eta = rc.random_unit_normal(rig, wl.Y, seed)
            records = rc.experiment_sweep(rig, wl.Y, eta, grid)
            where = f"sweep k={wl.SWEEP_KS[ki]} normal={seed}"
            verdict = wl.check_records(records, wl._ref_rows(ref, "sweep", (ki, seed)), where)
            assert verdict.failed == 0, verdict.problems[:5]
            assert len(records) == len(grid) == 100
    assert len(rigs) * wl.SWEEP_NORMALS == 32


def test_triangulate_calls_pass_the_benchmark_check():
    """The first 60 calls of the triangulate workload (seed 0), which takes its
    k = 4, 10 and 40 rigs in turn: each cold solve and its kappa pass the
    workload's check_solve (certificate, residual below DLT, kappa or ill_posed)."""
    wl = _workloads()
    assert wl.TRIANGULATE_KS == (4, 10, 40)
    for call in itertools.islice(wl.triangulate_calls(0), 60):
        verdict = call.check(call.run())
        assert verdict.failed == 0, verdict.problems
