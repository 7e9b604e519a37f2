"""The linear model's training loop as it was written over numpy arrays.

``models._fit_linear_margin`` runs the same arithmetic on Python scalars and
row views; this copy keeps the array form, indexing ``X[i]`` and ``y[i]``
on every step, as the reference its weights must equal bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from warnlab.models import EPOCHS, REGULARIZATION
from warnlab.keys import Label


def fit_linear_margin(X: np.ndarray, labels: Sequence[Label], seed: int) -> tuple[np.ndarray, float]:
    y = np.array([1.0 if lab is Label.ACTIONABLE else -1.0 for lab in labels])
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(EPOCHS):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (REGULARIZATION * t)
            margin = y[i] * (X[i] @ w + b)
            w *= 1.0 - eta * REGULARIZATION
            if margin < 1.0:
                w += eta * y[i] * X[i]
                b += eta * y[i]
    return w, float(b)
