"""Correctness gates applied to every benchmark solve.

A solve fails when its final state is non-finite or negative, a dry cell
carries a velocity, or mass drifts beyond round-off while the flow support
stays off the boundary cells. The default-seed solve that every benchmark run
makes also fails when its final fields leave the committed reference.
"""

import hashlib
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# relative mass drift allowed: summation round-off over ~1e3 cells and steps
MASS_RTOL = 1e-12
# depth-weighted relative L1 distance to the reference. Converged Newton
# states may legitimately move at the order of newton_tol = 1e-6 per step:
# tightening it to 1e-9 moves the slip_semi final fields by 1.0e-4 in this
# measure (alpha_1 dominates) and its step count from 395 to 396, so the gate
# sits 10x above that and never looks at the step count.
REFERENCE_RTOL = 1e-3


def initial_mass(grid) -> float:
    """Mass of the generated initial grid (interior cells)."""
    return float(np.sum(grid.interior()[:, 0]) * grid.dx)


def final_fields(result) -> dict:
    snap = result.snapshots[-1]
    return {"h": snap.h, "u_m": snap.u_m, "alpha": snap.alpha}


def state_digest(result) -> str:
    """SHA-256 of the final (h, u_m, alpha) bytes, for bit-identity checks."""
    digest = hashlib.sha256()
    for arr in final_fields(result).values():
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest()


def check(result, mass0: float, h_min: float, dx: float) -> tuple[list, bool]:
    """Gate failures of one solve, and whether the mass gate applied."""
    failures = []
    for snap in result.snapshots:
        fields = np.column_stack([snap.h, snap.u_m, snap.alpha])
        if not np.all(np.isfinite(fields)):
            failures.append(f"non-finite state at t={snap.time:g}")
        if np.any(snap.h < 0.0):
            failures.append(f"negative depth at t={snap.time:g}")
        dry = snap.h <= h_min
        if np.any(snap.u_m[dry] != 0.0) or np.any(snap.alpha[dry] != 0.0):
            failures.append(f"dry cell with nonzero velocity at t={snap.time:g}")
    interior = all(s.h[0] == 0.0 and s.h[-1] == 0.0 for s in result.snapshots)
    if interior and not failures:
        clamped = float(np.sum(result.diagnostics["clamped_mass"])) * dx
        mass = float(np.sum(result.snapshots[-1].h)) * dx
        drift = abs(mass - mass0 - clamped)
        if not drift <= MASS_RTOL * mass0:
            failures.append(f"mass drift {drift / mass0:.3e} exceeds {MASS_RTOL:g}")
    return failures, interior


def reference_path(workload: str, tiny: bool = False) -> Path:
    return REFERENCE_DIR / f"{workload}{'-tiny' if tiny else ''}.npz"


def save_reference(workload: str, result, tiny: bool = False) -> Path:
    path = reference_path(workload, tiny)
    path.parent.mkdir(exist_ok=True)
    np.savez_compressed(path, **final_fields(result))
    return path


def reference_distance(result, reference: dict) -> float:
    """Largest depth-weighted relative L1 distance over h, u_m and each alpha."""
    got = final_fields(result)
    h_ref = reference["h"]
    if got["h"].shape != h_ref.shape or got["alpha"].shape != reference["alpha"].shape:
        return float("inf")
    worst = np.sum(np.abs(got["h"] - h_ref)) / np.sum(h_ref)
    for key in ("u_m", "alpha"):
        ref = reference[key].reshape(len(h_ref), -1)
        diff = np.abs(got[key].reshape(len(h_ref), -1) - ref)
        scale = np.sum(h_ref[:, None] * np.abs(ref), axis=0)
        worst = max(worst, float(np.max(np.sum(h_ref[:, None] * diff, axis=0) / scale)))
    return float(worst)


def check_reference(result, workload: str, tiny: bool = False) -> list:
    with np.load(reference_path(workload, tiny)) as data:
        reference = {k: data[k] for k in data.files}
    distance = reference_distance(result, reference)
    if not distance <= REFERENCE_RTOL:
        return [f"final state differs from reference by {distance:.3e} > {REFERENCE_RTOL:g}"]
    return []
