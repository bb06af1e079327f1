"""Evaluation suite: macro/micro AUC, macro/micro F1 at a fixed threshold,
and precision of the top-k predicted labels.

Conventions a reimplementation must match: F1 with a zero denominator is 0;
AUC uses the rank formulation with half credit for ties; a label whose gold
column is single-class has no AUC and is skipped by the macro average
(`compute_all` reports an AUC undefined for the whole batch as NaN);
top-k ties are broken toward the lower label index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_THRESHOLD = 0.5


@dataclass
class PredictionBatch:
    """Corpus-scale predictions: documents by labels, probabilities vs gold."""

    probs: np.ndarray
    gold: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.gold = np.asarray(self.gold, dtype=np.float64)
        if self.probs.shape != self.gold.shape or self.probs.ndim != 2:
            raise ValueError(
                f"probs {self.probs.shape} and gold {self.gold.shape} must be "
                "equal 2-D shapes"
            )
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probabilities must be finite")

    @property
    def n_labels(self) -> int:
        return self.probs.shape[1]


def _f1(batch: PredictionBatch, threshold: float, axis: int | None) -> np.ndarray:
    """F1 of the decisions prob >= threshold, with tp, fp and fn summed
    along ``axis`` (None pools every cell); 0 where 2 tp + fp + fn is 0."""
    preds = batch.probs >= threshold
    gold = batch.gold > 0
    tp = np.sum(preds & gold, axis=axis)
    denom = 2 * tp + np.sum(preds & ~gold, axis=axis) + np.sum(~preds & gold, axis=axis)
    return np.divide(2 * tp, denom, out=np.zeros(np.shape(denom)), where=denom > 0)


def micro_f1(batch: PredictionBatch, threshold: float = DEFAULT_THRESHOLD) -> float:
    """F1 over all (document, label) decisions pooled into one confusion
    matrix. Decisions are prob >= threshold."""
    return float(_f1(batch, threshold, None))


def macro_f1(batch: PredictionBatch, threshold: float = DEFAULT_THRESHOLD) -> float:
    """Unweighted mean of per-label F1 over every label column."""
    return float(np.mean(_f1(batch, threshold, 0)))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average of their rank range: a
    tie group of c members ending at position e gets (2e - c + 1) / 2."""
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2.0)[group]


def auc(scores, labels) -> float | None:
    """Probability a random positive outranks a random negative, ties worth
    half. Returns None when the labels are single-class; refuses
    non-finite scores."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if not np.all(np.isfinite(scores)):
        raise ValueError("AUC scores must be finite")
    pos_mask = labels > 0
    n_pos = int(pos_mask.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[pos_mask].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def micro_auc(batch: PredictionBatch) -> float:
    """One AUC over all cells flattened into a single ranking."""
    value = auc(batch.probs.ravel(), batch.gold.ravel())
    if value is None:
        raise ValueError("pooled gold matrix is single-class; AUC undefined")
    return value


def macro_auc(batch: PredictionBatch) -> float:
    """Mean per-label AUC over the labels where it is defined."""
    values = [
        auc(batch.probs[:, lbl], batch.gold[:, lbl]) for lbl in range(batch.n_labels)
    ]
    defined = [v for v in values if v is not None]
    if not defined:
        raise ValueError("no label has both classes; macro AUC undefined")
    return float(np.mean(defined))


def precision_at_k(batch: PredictionBatch, k: int) -> float:
    """Per document, the fraction of the k highest-probability labels that
    are gold-positive; mean over documents. Ties prefer lower label index."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > batch.n_labels:
        raise ValueError(f"k={k} exceeds the {batch.n_labels}-label space")
    # lexsort's last key is primary: probability descending, then index.
    index = np.broadcast_to(np.arange(batch.n_labels), batch.probs.shape)
    top = np.lexsort((index, -batch.probs), axis=1)[:, :k]
    hits = np.take_along_axis(batch.gold, top, axis=1) > 0
    return float(np.mean(np.sum(hits, axis=1) / k))


def _nan_if_undefined(metric, batch: PredictionBatch) -> float:
    try:
        return metric(batch)
    except ValueError:
        return float("nan")


def compute_all(batch: PredictionBatch, k: int = 5) -> dict[str, float]:
    """The full report: AUCs, F1s, and P@k under the standard conventions.
    An AUC that is undefined for this gold matrix is reported as NaN."""
    return {
        "macro_auc": _nan_if_undefined(macro_auc, batch),
        "micro_auc": _nan_if_undefined(micro_auc, batch),
        "macro_f1": macro_f1(batch),
        "micro_f1": micro_f1(batch),
        f"precision_at_{k}": precision_at_k(batch, k),
    }

