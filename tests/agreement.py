"""Inter-annotator agreement over manual annotation sets.

No command reports agreement yet; the tests keep the formula here until
``label --annotations`` reports it.
"""

from __future__ import annotations

from warnlab.errors import ValidationError
from warnlab.oracle import AnnotationSet, Label


def cohen_kappa(a: AnnotationSet, b: AnnotationSet) -> float:
    """Chance-corrected agreement over the three-way label table.

    kappa = (p_o - p_e) / (1 - p_e); when expected agreement is already 1
    (both annotators constant on the same label) the value is 1 by
    convention.
    """
    keys_a, keys_b = set(a.labels), set(b.labels)
    if keys_a != keys_b:
        if keys_a.isdisjoint(keys_b):
            raise ValidationError("annotation sets cover disjoint warning keys")
        raise ValidationError(
            f"annotation sets must cover the same keys "
            f"({len(keys_a ^ keys_b)} key(s) differ)"
        )
    n = len(keys_a)
    if n < 2:
        raise ValidationError("need at least 2 jointly annotated warnings")
    cats = list(Label)
    observed = sum(1 for k in keys_a if a.labels[k] is b.labels[k]) / n
    expected = sum(
        (sum(1 for k in keys_a if a.labels[k] is c) / n)
        * (sum(1 for k in keys_a if b.labels[k] is c) / n)
        for c in cats
    )
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)
