"""Phoneme length regulation and duration expansion.

The regulator collapses an IPA-resolution embedding matrix back to
language-dependent-phoneme resolution by summing, for each phoneme, the
rows of its IPA decomposition (segment boundaries come from the cumulative
phoneme-length sequence).  Expansion is the usual duration-driven row
repetition that lifts phoneme-resolution embeddings to frame resolution.

All four operators here (aggregate, expand, stop-gradient, gradient
reversal) are linear, so their backward passes are closed-form transposes
exposed as :func:`linear_backward` -- no autodiff framework involved.  Each
backward pass is the other operator: a segment sum's transpose is a row
repeat over the same counts, and a repeat's is that segment sum.

Everything is float64.  Each segment sum is one axis-0 ``np.add.reduce``
from +0.0 over a C-ordered matrix, which adds whole rows in index order, so
tests compare it with a naive loop byte for byte.  numpy would sum a lone
column pairwise, so one is summed beside a copy of itself.

:func:`as_counts` is the package's one count rule: every phoneme-length and
frame-duration sequence, here and in :mod:`xling.model`,
:mod:`xling.features` and :mod:`xling.lexicon`, is read through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, TooLargeError

__all__ = [
    "MAX_REPEAT_BYTES",
    "Aggregate",
    "Expand",
    "StopGrad",
    "GRL",
    "as_counts",
    "cumulative_lengths",
    "aggregate",
    "expand",
    "linear_forward",
    "linear_backward",
]

MAX_REPEAT_BYTES = 1 << 30
"""Upper bound on the array one row repeat writes (1 GiB).

A duration far above any speech would otherwise ask numpy for that many
rows; :func:`expand` and the backward pass of :class:`Aggregate` refuse it
with a TooLargeError before they allocate.  A row of a zero-width matrix
counts as 8 bytes.
"""


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise LengthMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise LengthMismatchError(f"{name} contains non-finite entries")
    return arr


def as_counts(counts, least: int, what: str) -> np.ndarray:
    """``counts``, a sequence on one axis, as a 1-D int64 array of whole
    numbers, each >= ``least``.

    Any other shape, a fraction, NaN or inf is refused, and so is a count
    below ``least`` (LengthMismatchError).  A total of 2**63 or more is a
    TooLargeError: it would wrap the int64 cumulative bounds.  ``least`` is 0 or more, so a
    single count that large makes the total that large too.  Every test is
    made on exact Python ints.
    """
    arr = np.asarray(counts, dtype=object)
    if arr.ndim != 1:
        raise LengthMismatchError(f"{what} must have one axis, got shape {arr.shape}")
    values = arr.tolist()
    try:
        ints = [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values:
        raise LengthMismatchError(f"{what} must be whole numbers")
    if ints and min(ints) < least:
        raise LengthMismatchError(f"{what} must all be >= {least}")
    total = sum(ints)
    if total >= 2**63:
        raise TooLargeError(f"{what} sum to {total}, above the int64 cap of {2**63 - 1}")
    return np.array(ints, dtype=np.int64)


@dataclass(frozen=True)
class Aggregate:
    """Segment-sum by phoneme lengths (IPA rows -> phoneme rows)."""

    lengths: tuple

    def __post_init__(self):
        counts = as_counts(self.lengths, 1, "phoneme lengths")
        object.__setattr__(self, "lengths", tuple(counts.tolist()))


@dataclass(frozen=True)
class Expand:
    """Row repetition by frame durations (phoneme rows -> frame rows)."""

    durations: tuple

    def __post_init__(self):
        counts = as_counts(self.durations, 0, "durations")
        object.__setattr__(self, "durations", tuple(counts.tolist()))


@dataclass(frozen=True)
class StopGrad:
    """Identity forward, zero backward."""


@dataclass(frozen=True)
class GRL:
    """Identity forward, backward scaled by -lam (lam > 0)."""

    lam: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise LengthMismatchError("GRL scale must be positive")


def _bounds(counts) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def cumulative_lengths(lengths) -> np.ndarray:
    """Cumulative sums with a leading zero: c[0] = 0, c[t] = sum(L[:t])."""
    return _bounds(as_counts(lengths, 1, "phoneme lengths"))


def _segment_sum(X, bounds, name: str, what: str) -> np.ndarray:
    """Sum rows of X per [bounds[i], bounds[i+1]) segment, in index order."""
    if X.shape[0] != bounds[-1]:
        raise LengthMismatchError(f"{name} has {X.shape[0]} rows but {what} sum to {bounds[-1]}")
    rows = np.ascontiguousarray(np.hstack((X, X)) if X.shape[1] == 1 else X)
    out = np.empty((bounds.size - 1, rows.shape[1]))
    for i in range(bounds.size - 1):
        np.add.reduce(rows[bounds[i]:bounds[i + 1]], axis=0, initial=0.0, out=out[i])
    return np.ascontiguousarray(out[:, :X.shape[1]])


def _repeat(Y, counts, name: str, what: str) -> np.ndarray:
    """Repeat row i of Y counts[i] times, within :data:`MAX_REPEAT_BYTES`."""
    if Y.shape[0] != len(counts):
        raise LengthMismatchError(f"{name} has {Y.shape[0]} rows but {len(counts)} {what}")
    # counts passed as_counts, so their int64 sum is exact; the product is
    # not.  A zero-width row counts as one value: numpy refuses an array
    # whose row count alone overflows its size arithmetic.
    rows = int(np.sum(counts))
    nbytes = rows * max(Y.shape[1], 1) * Y.itemsize
    if nbytes > MAX_REPEAT_BYTES:
        raise TooLargeError(f"{what} repeat {name} to {rows} rows, {nbytes} bytes, "
                            f"above the cap of {MAX_REPEAT_BYTES}")
    return np.repeat(Y, counts, axis=0)


def aggregate(X, lengths) -> np.ndarray:
    """Collapse IPA-resolution rows to one summed row per phoneme."""
    return _segment_sum(_as_matrix(X, "X"), cumulative_lengths(lengths), "X", "lengths")


def expand(Y, durations) -> np.ndarray:
    """Repeat row i of Y durations[i] times; zero durations drop the row."""
    return _repeat(_as_matrix(Y, "Y"), as_counts(durations, 0, "durations"), "Y", "durations")


def linear_forward(tag, X) -> np.ndarray:
    """Apply the tagged operator's forward map."""
    if isinstance(tag, Aggregate):
        return aggregate(X, tag.lengths)
    if isinstance(tag, Expand):
        return expand(X, tag.durations)
    if isinstance(tag, (StopGrad, GRL)):
        return _as_matrix(X, "X").copy()
    raise TypeError(f"unknown operator tag {tag!r}")


def linear_backward(tag, upstream) -> np.ndarray:
    """Apply the transpose of the tagged operator to an upstream gradient.

    Aggregate broadcasts each phoneme-level row back over its IPA segment;
    Expand sums each duration segment back to one phoneme-level row;
    StopGrad yields zeros; GRL scales by -lam.
    """
    g = _as_matrix(upstream, "upstream")
    if isinstance(tag, Aggregate):
        return _repeat(g, tag.lengths, "upstream", "lengths")
    if isinstance(tag, Expand):
        return _segment_sum(g, _bounds(tag.durations), "upstream", "durations")
    if isinstance(tag, StopGrad):
        return np.zeros_like(g)
    if isinstance(tag, GRL):
        return -tag.lam * g
    raise TypeError(f"unknown operator tag {tag!r}")
