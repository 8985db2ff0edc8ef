"""Multi-label evaluation metrics: Prec/Rec/FPR, AP, ROC, AUC.

Precision, recall and false-positive rate are computed per label from the
TP/FP/FN/TN partition and macro-averaged (unweighted label mean). Average
precision scores how well each sample's true labels outrank its false
ones. ROC curves sweep the decision threshold over a label's scores and
the area under each is averaged over labels. That average gates state
learning; no code path carries it into a key rate, which reads the
classifier efficiency Lambda from KeyRateParams.lam (0.927 unless set).

Conventions, chosen where the defining ratios are 0/0 and documented here
because synthetic fixtures hit them:
  - Precision with TP+FP = 0 is 1 if TP+FN = 0 (nothing to find, nothing
    claimed), else 0. Symmetrically, recall with TP+FN = 0 is 1 if
    TP+FP = 0, else 0. FPR with FP+TN = 0 is 0.
  - Ranking ties are broken by label index after score.
  - Samples whose true label set is empty are skipped by AP and its
    normalizer counts only the non-skipped samples, so a perfect ranking
    scores exactly 1.
  - An erased prediction (label set matching no constellation state)
    counts as predicting no labels in Prec/Rec/FPR; AP/ROC/AUC rank raw
    scores and are unaffected by erasure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, array


@dataclass
class PrfResult:
    precision: np.ndarray
    recall: np.ndarray
    fpr: np.ndarray

    @property
    def macro_precision(self) -> float:
        return float(self.precision.mean())

    @property
    def macro_recall(self) -> float:
        return float(self.recall.mean())

    @property
    def macro_fpr(self) -> float:
        return float(self.fpr.mean())


def prf(pred_flags: np.ndarray, true_flags: np.ndarray) -> PrfResult:
    """Per-label precision, recall and FPR from boolean flag matrices."""
    true = array("truths", true_flags, (None, None), bool)
    pred = array("predictions", pred_flags, true.shape, bool)

    tp = (pred & true).sum(axis=0).astype(float)
    fp = (pred & ~true).sum(axis=0).astype(float)
    fn = (~pred & true).sum(axis=0).astype(float)
    tn = (~pred & ~true).sum(axis=0).astype(float)

    precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), np.where(tp + fn == 0, 1.0, 0.0))
    recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), np.where(tp + fp == 0, 1.0, 0.0))
    fpr = np.where(fp + tn > 0, fp / np.maximum(fp + tn, 1), 0.0)
    return PrfResult(precision=precision, recall=recall, fpr=fpr)


def average_precision(scores: np.ndarray, true_flags: np.ndarray) -> float:
    """Mean over samples of the per-sample label-ranking precision.

    For each sample and each of its true labels y, the fraction of labels
    ranked at or above y that are themselves true, averaged over the
    sample's labels, then over samples with at least one true label.
    Sums run in a fixed order: a sample's terms by ascending rank, then
    the samples in row order. A NaN score is an InvalidInputError.
    """
    true = array("truths", true_flags, (None, None), bool)
    scores = array("scores", scores, true.shape)
    if np.isnan(scores).any():  # a NaN has no rank
        raise InvalidInputError("scores must not be NaN")

    n_true = true.sum(axis=1)
    scored = n_true > 0
    if not scored.any():
        raise InvalidInputError("average precision needs at least one sample with a true label")
    scores, true, n_true = scores[scored], true[scored], n_true[scored]
    n_labels = true.shape[1]

    # 1-based rank of each label: descending score, ties to lower index
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, n_labels + 1), axis=1)
    # the true labels' ranks, ascending, lead each row (the others sort
    # last): the i-th of them has i true labels at or above it
    true_ranks = np.sort(np.where(true, ranks, n_labels + 1), axis=1)
    terms = np.arange(1, n_labels + 1) / true_ranks

    # each sample sums its own terms only: how np.sum pairs the terms
    # depends on their number, so zero padding could change the rounding
    per_sample = np.empty(len(n_true))
    for count in np.unique(n_true):
        rows = n_true == count
        per_sample[rows] = terms[rows, :count].sum(axis=1) / count
    return float(np.cumsum(per_sample)[-1] / len(per_sample))


def roc_curve(scores: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, float]:
    """ROC points and trapezoidal AUC for one label.

    Sweeps the threshold over the distinct score values, from above the
    maximum (predicting nothing, the (0,0) point) to at or below the
    minimum (predicting everything, the (1,1) point). Tied scores move
    diagonally in one step, so the trapezoidal area equals the pairwise
    positives-above-negatives statistic with ties half-weighted.

    Returns (points, auc) where points has rows (fpr, tpr); auc is nan
    when the label has no positive or no negative samples. A NaN score is
    an InvalidInputError.
    """
    scores = array("scores", scores, (None,))
    if np.isnan(scores).any():  # a NaN has no rank
        raise InvalidInputError("scores must not be NaN")
    truth = array("truth", truth, scores.shape, bool)
    n_pos = int(truth.sum())
    n_neg = int((~truth).sum())

    # run[i]: the rank of sample i's score among the distinct scores, highest first; each threshold
    # step takes in one whole run of equal scores
    distinct, run = np.unique(-scores, return_inverse=True)
    tp = np.cumsum(np.bincount(run[truth], minlength=len(distinct)))
    fp = np.cumsum(np.bincount(run, minlength=len(distinct))) - tp
    tp, fp = np.concatenate([[0], tp]), np.concatenate([[0], fp])

    if n_pos == 0 or n_neg == 0:
        tpr = np.zeros_like(tp, dtype=float) if n_pos == 0 else tp / n_pos
        fpr = np.zeros_like(fp, dtype=float) if n_neg == 0 else fp / n_neg
        return np.column_stack([fpr, tpr]), float("nan")

    tpr = tp / n_pos
    fpr = fp / n_neg
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return np.column_stack([fpr, tpr]), auc


@dataclass
class EvaluationReport:
    """Full metric suite for one evaluation run."""

    n_samples: int
    n_erasures: int
    per_label_precision: list[float]
    per_label_recall: list[float]
    per_label_fpr: list[float]
    macro_precision: float
    macro_recall: float
    macro_fpr: float
    average_precision: float
    roc_points: list[np.ndarray]
    per_label_auc: list[float]
    average_auc: float
    undefined_auc_labels: list[int] = field(default_factory=list)

    @property
    def erasure_rate(self) -> float:
        return self.n_erasures / self.n_samples if self.n_samples else 0.0

    def to_json_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_erasures": self.n_erasures,
            "erasure_rate": self.erasure_rate,
            "per_label_precision": self.per_label_precision,
            "per_label_recall": self.per_label_recall,
            "per_label_fpr": self.per_label_fpr,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_fpr": self.macro_fpr,
            "average_precision": self.average_precision,
            "per_label_auc": self.per_label_auc,
            "average_auc": self.average_auc,
            "undefined_auc_labels": self.undefined_auc_labels,
            "roc_points": [pts.tolist() for pts in self.roc_points],
        }


def evaluate(scores: np.ndarray, pred_flags: np.ndarray, true_flags: np.ndarray,
             erased: np.ndarray) -> EvaluationReport:
    """Build the full report from scores, thresholded flags, and truths.

    `erased`, one flag per sample, marks samples whose predicted label set
    decoded to no state; their prediction flags are zeroed for Prec/Rec/FPR.
    """
    true = array("truths", true_flags, (None, None), bool)
    scores = array("scores", scores, true.shape)
    pred = array("predictions", pred_flags, true.shape, bool)
    n = true.shape[0]
    erased = array("erasure flags", erased, (n,), bool)
    effective_pred = pred & ~erased[:, None]

    rates = prf(effective_pred, true)
    ap = average_precision(scores, true)

    roc_points, aucs, undefined = [], [], []
    for j in range(true.shape[1]):
        pts, auc = roc_curve(scores[:, j], true[:, j])
        roc_points.append(pts)
        aucs.append(auc)
        if np.isnan(auc):
            undefined.append(j + 1)
    defined = [a for a in aucs if not np.isnan(a)]
    if not defined:
        raise InvalidInputError("every label has single-class truth; no AUC is defined")

    return EvaluationReport(
        n_samples=n,
        n_erasures=int(erased.sum()),
        per_label_precision=list(map(float, rates.precision)),
        per_label_recall=list(map(float, rates.recall)),
        per_label_fpr=list(map(float, rates.fpr)),
        macro_precision=rates.macro_precision,
        macro_recall=rates.macro_recall,
        macro_fpr=rates.macro_fpr,
        average_precision=float(ap),
        roc_points=roc_points,
        per_label_auc=[float(a) for a in aucs],
        average_auc=float(np.mean(defined)),
        undefined_auc_labels=undefined,
    )
