"""Central finite-difference gradient oracle, independent of the analytic backward,
and the one-term losses it checks."""

import numpy as np

from negclap.model import DENSE_FIELDS, PARAM_FIELDS, CaptionIds, ParamGrads, RowGrad
from negclap.objective import total_loss_through_encoders


def clap_loss_through_encoders(params, audio_features, clap_ids, with_grads=True):
    """Contrastive loss of a batch alone, with full parameter gradients."""
    breakdown, grads = total_loss_through_encoders(
        params, audio_features, clap_ids, k=0.0, with_grads=with_grads)
    return breakdown.l_clap, grads


def dissimilarity_through_encoders(params, anchor_ids, negated_ids, with_grads=True):
    """Dissimilarity loss of paired caption batches alone, with full parameter gradients."""
    if len(anchor_ids) != len(negated_ids):
        raise ValueError(f"{len(anchor_ids)} anchors but {len(negated_ids)} negated captions")
    breakdown, grads = total_loss_through_encoders(
        params, None, CaptionIds.concat([anchor_ids, negated_ids]), k=1.0,
        with_grads=with_grads)
    return breakdown.l_diss, grads


def dense_table(grad, n_rows):
    """The full (n_rows, d_t) table gradient a RowGrad stands for."""
    out = np.zeros((n_rows, grad.values.shape[1]))
    out[grad.rows] = grad.values
    return out


def split_table(grad, n_buckets):
    """The unigram and bigram halves of a joint-table RowGrad, each over rows 0..n_buckets-1."""
    low = grad.rows < n_buckets
    return (RowGrad(grad.rows[low], grad.values[low]),
            RowGrad(grad.rows[~low] - n_buckets, grad.values[~low]))


def named_grads(grads):
    """Every parameter's gradient as a full array, by parameter name."""
    n_buckets = grads.dims.hash_buckets
    uni, bi = split_table(grads.table, n_buckets)
    named = {"unigram_table": dense_table(uni, n_buckets),
             "bigram_table": dense_table(bi, n_buckets)}
    named.update((name, getattr(grads, name)) for name in DENSE_FIELDS)
    return named


def finite_difference_grads(loss_fn, params, step=1e-5):
    """Perturb every parameter entry in place and difference the scalar loss.

    The default step keeps truncation error around 1e-6 on gradients of
    order one (it scales with step^2) while staying far above the float64
    cancellation floor of roughly 1e-11.  Table gradients cover every row.
    """
    grads = ParamGrads(params.dims,
                       RowGrad(np.arange(len(params.tables)), np.zeros_like(params.tables)),
                       np.zeros_like(params.dense))
    for flat, out in ((params.tables.reshape(-1), grads.table.values.reshape(-1)),
                      (params.dense, grads.dense)):
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
    analytic, numeric = named_grads(analytic), named_grads(numeric)
    for name in PARAM_FIELDS:
        a, f = analytic[name].reshape(-1), numeric[name].reshape(-1)
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
