"""Central finite-difference gradient oracle, independent of the analytic backward."""

import numpy as np

from negclap.model import PARAM_FIELDS, TABLE_FIELDS, ParamGrads, RowGrad


def dense_table(grad, n_rows):
    """The full (n_rows, d_t) table gradient a RowGrad stands for."""
    out = np.zeros((n_rows, grad.values.shape[1]))
    out[grad.rows] = grad.values
    return out


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Perturb every parameter entry in place and difference the scalar loss.

    The default step keeps truncation error around 1e-6 on gradients of
    order one (it scales with step^2) while staying far above the float64
    cancellation floor of roughly 1e-11.  Table gradients cover every row.
    """
    grads = ParamGrads.zeros_like(params)
    for name in TABLE_FIELDS:
        table = getattr(params, name)
        setattr(grads, name, RowGrad(np.arange(table.shape[0]), np.zeros_like(table)))
    for name in PARAM_FIELDS:
        flat = getattr(params, name).reshape(-1)
        out = getattr(grads, name)
        out = (out.values if name in TABLE_FIELDS else out).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn(params)
            flat[i] = orig - step
            lo = loss_fn(params)
            flat[i] = orig
            out[i] = (hi - lo) / (2.0 * step)
    return grads


def max_gradient_violation(analytic, numeric, rel_tol=1e-4, abs_tol=1e-6, small=1e-8):
    """Worst tolerance ratio across all entries (<= 1 means everything passes).

    Entries where both gradients are at most ``small`` in magnitude are held
    to the absolute tolerance; all others to the relative one.  Table rows
    missing from the analytic gradient count as exact zeros there.
    """
    worst = 0.0
    location = None
    for name in PARAM_FIELDS:
        a, f = getattr(analytic, name), getattr(numeric, name)
        if name in TABLE_FIELDS:
            n_rows = len(f.rows)
            a, f = dense_table(a, n_rows), dense_table(f, n_rows)
        a, f = a.reshape(-1), f.reshape(-1)
        diff = np.abs(a - f)
        scale = np.maximum(np.abs(a), np.abs(f))
        ratio = np.where(scale <= small,
                         diff / abs_tol,
                         diff / (rel_tol * np.maximum(scale, 1e-300)))
        i = int(np.argmax(ratio))
        if ratio[i] > worst:
            worst = float(ratio[i])
            location = (name, i)
    return worst, location
