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


def grad_check(model_fn, store, h: float = 1e-5,
               max_per_entry: int | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    model_fn() must compute the scalar loss from the store's current values
    and write (not add) every analytic gradient into store.*.grad, as
    DualStreamModel.set_grads does, so no probe needs the store zeroed and
    the grads read are those of the first call. Relative error per
    component is |ga - gn| / max(|ga|, |gn|, 1e-8). With max_per_entry set,
    large tensors are probed at that many evenly spaced components instead
    of all of them (deterministic selection).
    """
    model_fn()
    analytic = {k: p.grad.copy() for k, p in store.entries.items()}
    worst = 0.0
    for name, p in store.entries.items():
        flat = p.value.reshape(-1)
        ga = analytic[name].reshape(-1)
        if max_per_entry is None or flat.size <= max_per_entry:
            indices = range(flat.size)
        else:
            indices = np.unique(np.linspace(0, flat.size - 1, max_per_entry,
                                            dtype=np.int64))
        for i in indices:
            orig = flat[i]
            flat[i] = orig + h
            lp = model_fn()
            flat[i] = orig - h
            lm = model_fn()
            flat[i] = orig
            gn = (lp - lm) / (2.0 * h)
            denom = max(abs(ga[i]), abs(gn), 1e-8)
            worst = max(worst, abs(ga[i] - gn) / denom)
    return worst
