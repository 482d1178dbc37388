"""Self-test of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import env

if "numpy" not in sys.modules:  # counts do not depend on threads; pin when still possible
    env.pin_threads()
rc = env.load_riemcond()

import scipy.linalg  # noqa: E402

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_WINDOW = {"sweep": 3, "validate": 3, "triangulate": 30}


def _counts(workload, seed, tmp_path):
    calls = workloads.CALLS[workload](seed, workloads.load_reference())
    tally, metrics, _ = bench.run_traced(calls, 0.0, SMALL_WINDOW[workload], tmp_path / "spans.gz")
    assert tally.failed == 0 and not tally.problems
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


@pytest.mark.parametrize("workload", sorted(SMALL_WINDOW))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _counts(workload, 5, tmp_path)
    assert first == _counts(workload, 5, tmp_path)
    assert first["scipy.svd.calls_per_item"] > 0


def test_mv_kappa_hand_counts():
    rig = rc.gen_rig(rc.RigSpec(k=10, seed=0))
    eta = 0.1 * rc.random_unit_normal(rig, workloads.Y, 0)
    with spans.Tracer() as tracer:
        tracer.call_id = 0
        rc.mv_kappa(rig, workloads.Y, eta)
    names = [s[0] for s in tracer.spans]
    # mv_weingarten and mv_weingarten_hat each take a Jacobian, and each
    # Jacobian runs one domain check; each check takes both camera centers
    # (one 3x4 SVD each).
    assert names.count("mv_domain_check") == 2
    assert names.count("center_homogeneous") == 4
    # one QR for the frame, one for the normality check of eta
    assert names.count("compact_qr") == 2
    # 4 center SVDs + svd((I - S) R) and svdvals(R) in kappa_from_factors
    # + svdvals(R) for kappa_S in mv_kappa
    assert tracer.svd_calls == {0: 7}


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "riemcond" or n.startswith("riemcond.")]
    seen = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    seen.update({("Camera", k): v for k, v in vars(rc.Camera).items()})
    seen.update({("scipy.linalg", k): getattr(scipy.linalg, k) for k in spans.SVD_FUNCTIONS})
    return seen


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    with spans.Tracer():
        during = _bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
    assert {("riemcond.experiments", "mv_jacobian"), ("riemcond.solver", "compact_qr"),
            ("riemcond.multiview", "mv_weingarten_hat"), ("riemcond", "mv_kappa"),
            ("Camera", "center_homogeneous"), ("scipy.linalg", "svd")} <= wrapped
    _counts("triangulate", 0, tmp_path)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_reference_mismatch_fails_the_row_by_name():
    ref = workloads.load_reference()
    rows = workloads._ref_rows(ref, "sweep", (1, 0))
    rig, grid = workloads.sweep_setup()
    records = rc.experiment_sweep(rig[1], workloads.Y, rc.random_unit_normal(rig[1], workloads.Y, 0), grid)
    assert workloads.check_records(records, rows, "sweep").failed == 0
    records[3].kappa *= 1.0 + 1e-9
    verdict = workloads.check_records(records, rows, "sweep")
    assert verdict.failed == 1
    assert "row 3" in verdict.problems[0] and "kappa" in verdict.problems[0]


def test_exits_nonzero_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_scales_by_the_median_of_nearby_bursts():
    import calibrate

    cal = calibrate.Calibrator()
    assert cal.before_call() == 0 and cal.before_call() == 0  # none due yet
    cal.after_call(int(calibrate.EVERY_MS * 1e6))
    assert cal.before_call() == 1
    ref_ns = calibrate.REFERENCE_MS * 1e6
    # a slow stretch in the middle: bursts there scale calls down by half
    cal.bursts_ns = [ref_ns] * 10 + [2 * ref_ns] * 10 + [ref_ns] * 10
    factors = cal.factors()
    assert factors[0] == factors[-1] == 1.0
    assert factors[15] == 0.5
    assert len(factors) == 30
