"""Helpers that only the tests read: views of program outputs that no
program stage needs, and reference rules the program is compared against."""

import numpy as np

AGE_BANDS = ((30.0, 50.0), (50.0, 70.0), (70.0, 90.0))


def risk_by_age_band(risks, ages, bands=AGE_BANDS) -> dict[str, float | None]:
    """Mean predicted risk per age band [lo, hi); an empty band maps to None."""
    risks = np.asarray(risks, dtype=np.float64)
    ages = np.asarray(ages, dtype=np.float64)
    out = {}
    for lo, hi in bands:
        mask = (ages >= lo) & (ages < hi)
        out[f"{lo:g}-{hi:g}"] = float(risks[mask].mean()) if mask.any() else None
    return out


def y_hat(decision) -> float | None:
    """A gate decision's prediction: its mu if accepted, else None."""
    return decision.mu if decision.kind == "accept" else None


def float_rule_masks(model, u, p):
    """Inverted-dropout masks from uniforms as (u >= p) / (1 - p), filling
    the sites of model.mask_segments() in order, as far as u's columns go:
    the reference for the word compare of masks_from_uniform."""
    masks, offset = {}, 0
    for name, width in model.mask_segments():
        if offset + width > u.shape[1]:
            break
        masks[name] = (u[:, offset : offset + width] >= p) / (1.0 - p)
        offset += width
    return masks
