"""Write reference.npz: the stored outputs that sweep and validate are checked against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It evaluates every ray of both pools once, on whole grids (the benchmark calls
experiment_validate on chunks of a grid; its rows do not depend on the split).
"""

from __future__ import annotations

import env

FIELDS = ("kappa", "sigma3", "lo", "hi", "kappa_est", "ill", "flagged")


def main() -> None:
    env.pin_threads()  # before numpy loads OpenBLAS
    rc = env.load_riemcond()
    import numpy as np
    import workloads as wl

    def columns(records):
        if any(r.error is not None for r in records):
            raise SystemExit("a reference row carries an error; choose inputs on which nothing fails")
        return {
            "kappa": [r.kappa for r in records],
            "sigma3": [r.sigma3 for r in records],
            "lo": [r.bounds[0] for r in records],
            "hi": [r.bounds[1] for r in records],
            "kappa_est": [np.nan if r.kappa_est is None else r.kappa_est for r in records],
            "ill": [r.ill_posed for r in records],
            "flagged": [r.flagged for r in records],
        }

    def stack(rows, prefix, shape):
        return {
            f"{prefix}_{f}": np.array(
                [r[f] for r in rows], dtype=bool if f in ("ill", "flagged") else np.float64
            ).reshape(*shape, -1)
            for f in FIELDS
        }

    rigs, grid = wl.sweep_setup()
    sweep = [
        columns(rc.experiment_sweep(rig, wl.Y, rc.random_unit_normal(rig, wl.Y, s), grid))
        for rig in rigs
        for s in range(wl.SWEEP_NORMALS)
    ]
    rig, grid = wl.validate_setup()
    validate = [
        columns(rc.experiment_validate(
            rig, wl.Y, rc.random_unit_normal(rig, wl.Y, s), grid, perturb_rel=wl.PERTURB_REL))
        for s in wl.VALIDATE_NORMALS
    ]
    arrays = stack(sweep, "sweep", (len(rigs), wl.SWEEP_NORMALS))
    arrays.update(stack(validate, "validate", (len(wl.VALIDATE_NORMALS),)))
    np.savez_compressed(wl.REFERENCE, **arrays)
    flagged = arrays["validate_flagged"].sum(axis=1)
    print(f"wrote {wl.REFERENCE.name}; validate flagged rows per normal: {flagged.tolist()}")


if __name__ == "__main__":
    main()
