"""Transfer learning across devices/kernels — Section 8's mitigation.

The paper notes LiteForm "requires model retraining for new architectures
or kernels" and suggests transfer learning to avoid retraining from
scratch.  This module implements the standard instance-weighting form:
keep the (large, cheap-to-reuse) source-device training set, add the
(small, expensive) target-device set replicated ``target_weight`` times,
and refit — so a handful of target measurements correct the source model's
device-specific biases while its pattern knowledge is retained.
"""

from __future__ import annotations

import copy

from repro.core.pipeline import LiteForm
from repro.core.training import TrainingData


def transfer_training_data(
    source: TrainingData, target: TrainingData, target_weight: int = 4
) -> TrainingData:
    """Combine source-device history with up-weighted target samples."""
    if target_weight < 1:
        raise ValueError(f"target_weight must be >= 1, got {target_weight}")
    combined = TrainingData(
        format_samples=list(source.format_samples),
        partition_samples=list(source.partition_samples),
    )
    for _ in range(target_weight):
        combined.format_samples.extend(target.format_samples)
        combined.partition_samples.extend(target.partition_samples)
    return combined


def transfer_fit(
    liteform: LiteForm,
    source: TrainingData,
    target: TrainingData,
    target_weight: int = 4,
) -> LiteForm:
    """Fit ``liteform`` for a new device from mostly-source data.

    ``target`` is typically generated from a few matrices measured on the
    new device — orders of magnitude cheaper than regenerating the full
    source collection's history.
    """
    if not target.format_samples:
        raise ValueError("target data must contain at least one sample")
    return liteform.fit(transfer_training_data(source, target, target_weight))


def refit_format_selector(
    liteform: LiteForm,
    target: TrainingData,
    source: TrainingData | None = None,
    target_weight: int = 4,
) -> int:
    """Refit only the *format selector* on serving-derived samples.

    Unlike :func:`transfer_fit`, this leaves the partition predictor
    untouched — serving telemetry yields format-family rewards (CELL vs
    fixed per request) but no partition-count sweep, so only the Table 2
    model can be updated online.  With ``source`` history the serving
    samples are up-weighted ``target_weight`` times against it; without,
    the selector is fit on serving samples alone.  Returns the number of
    samples fit on.

    The fit runs on a copy that then replaces ``liteform.selector``:
    other threads (a speculative compose, every cluster shard) may be
    predicting with the current selector, which is never mutated.  The
    copy carries the selector's random state, so the result is the same
    as fitting in place.
    """
    if not target.format_samples:
        raise ValueError("target data must contain at least one format sample")
    if source is not None:
        combined = transfer_training_data(source, target, target_weight)
    else:
        combined = target
    selector = copy.deepcopy(liteform.selector)
    selector.fit(combined.format_X, combined.format_y)
    liteform.selector = selector
    return len(combined.format_samples)
