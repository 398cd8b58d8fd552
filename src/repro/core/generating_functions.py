"""Generating functions for sums of independent Bernoulli variables.

Three tools are provided, mirroring Section IV-C/D of the paper:

* :func:`poisson_binomial_pmf` — the classical (regular) generating-function
  expansion: the exact PMF of a sum of independent, non-identically
  distributed Bernoulli variables with *known* success probabilities.
* :class:`UncertainGeneratingFunction` (UGF) — the paper's extension to
  Bernoulli variables whose success probabilities are only known by a lower
  and an upper bound.  The expansion of

  .. math::

      F^N = \\prod_i \\big( P_{LB}(X_i)\\,x
              + (P_{UB}(X_i) - P_{LB}(X_i))\\,y
              + (1 - P_{UB}(X_i)) \\big) = \\sum_{i,j} c_{i,j} x^i y^j

  yields coefficients ``c_{i,j}`` = probability that the sum is *definitely*
  at least ``i`` and *possibly* up to ``i + j``.  Lemma 4 then gives lower and
  upper bounds for ``P(sum = k)``.
* :func:`regular_gf_bounds` — the alternative discussed in the paper's
  technical report: two regular generating functions evaluated at the lower
  and upper probability vectors.  Kept for the ablation benchmark comparing
  bound tightness and runtime against the UGF.

The ``k_cap`` parameter implements the Section VI optimisation for kNN/RkNN
predicates: coefficients that can only influence ``P(sum = x)`` for
``x > k_cap`` are merged, reducing the cost per multiplication step from
``O(N^2)`` to ``O(k^2)`` while the bounds for all ``x <= k_cap`` stay exact.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "poisson_binomial_pmf",
    "UncertainGeneratingFunction",
    "ugf_pmf_bounds_batch",
    "regular_gf_bounds",
]


def _check_probabilities(arr: np.ndarray, name: str) -> bool:
    """Raise unless every entry lies in ``[0, 1]`` up to 1e-12.

    The extremes of a NaN-holding array are NaN and fail the check too.
    Returns whether an entry lies outside ``[0, 1]``, i.e. whether clipping
    the array would change it.
    """
    low = arr.min(initial=0.0)
    high = arr.max(initial=0.0)
    if not (low >= -1e-12 and high <= 1.0 + 1e-12):
        raise ValueError(f"{name} must contain probabilities in [0, 1]")
    return bool(low < 0.0 or high > 1.0)


def _as_prob_array(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    _check_probabilities(arr, name)
    return np.clip(arr, 0.0, 1.0)


def poisson_binomial_pmf(
    probabilities: Sequence[float], k_cap: Optional[int] = None
) -> np.ndarray:
    """Exact PMF of a sum of independent Bernoulli variables.

    Implemented as the iterative expansion of the regular generating function
    ``prod_i (1 - p_i + p_i x)`` (equivalently, the Poisson-binomial
    recurrence), which is ``O(N^2)`` — or ``O(N * k_cap)`` when only the
    probabilities of sums ``<= k_cap`` are required.

    Parameters
    ----------
    probabilities:
        Success probabilities ``p_i``.
    k_cap:
        When given, coefficients for sums greater than ``k_cap`` are merged
        into the last entry of the returned array, whose length becomes
        ``k_cap + 2`` (entries ``0..k_cap`` exact, entry ``k_cap + 1`` =
        ``P(sum > k_cap)``).

    Returns
    -------
    numpy.ndarray
        ``pmf[k] = P(sum = k)``; length ``N + 1`` without ``k_cap``.
    """
    probs = _as_prob_array(probabilities, "probabilities")
    n = probs.shape[0]
    if k_cap is not None and k_cap < 0:
        raise ValueError("k_cap must be non-negative")
    size = n + 1 if k_cap is None else min(n, k_cap + 1) + 1
    pmf = np.zeros(size, dtype=float)
    pmf[0] = 1.0
    top = 0
    for p in probs:
        top = min(top + 1, size - 1)
        # multiply the polynomial by (1 - p + p*x); the overflow into the last
        # bucket keeps total mass 1 when k_cap truncates the expansion
        shifted = np.zeros_like(pmf)
        shifted[1 : top + 1] = pmf[:top]
        shifted[top] += pmf[top]
        pmf = pmf * (1.0 - p) + shifted * p
    return pmf


class UncertainGeneratingFunction:
    """Uncertain generating function over probability bounds (Section IV-C).

    Parameters
    ----------
    lower, upper:
        Per-variable lower and upper bounds of the Bernoulli success
        probabilities, with ``0 <= lower[i] <= upper[i] <= 1``.
    k_cap:
        Optional truncation bound (Section VI).  Bounds queried for counts
        larger than ``k_cap`` raise :class:`ValueError`.

    Attributes
    ----------
    coefficients:
        2-D array ``c[i, j]`` — probability that the sum is definitely at
        least ``i`` and possibly up to ``i + j``.  With truncation, index
        ``k_cap + 1`` acts as an absorbing bucket.
    """

    def __init__(
        self,
        lower: Sequence[float],
        upper: Sequence[float],
        k_cap: Optional[int] = None,
    ):
        lower_arr = _as_prob_array(lower, "lower")
        upper_arr = _as_prob_array(upper, "upper")
        if lower_arr.shape != upper_arr.shape:
            raise ValueError("lower and upper must have the same length")
        if np.any(lower_arr > upper_arr + 1e-12):
            raise ValueError("lower bounds must not exceed upper bounds")
        upper_arr = np.maximum(lower_arr, upper_arr)
        if k_cap is not None and k_cap < 0:
            raise ValueError("k_cap must be non-negative")

        self.lower = lower_arr
        self.upper = upper_arr
        self.n = lower_arr.shape[0]
        self.k_cap = k_cap

        cap = self.n if k_cap is None else min(self.n, k_cap + 1)
        self._cap = cap
        self.coefficients = self._expand(cap)

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #
    def _expand(self, cap: int) -> np.ndarray:
        """Iteratively multiply the per-variable trinomials.

        ``cap`` is the largest index kept exactly; larger ``i`` or ``i + j``
        are clamped onto the boundary, which preserves total probability mass
        and the exactness of all coefficients with ``i + j <= cap``
        (coefficients with ``i <= cap < i + j`` keep an exact ``i`` but a
        merged ``j``, exactly as described in Section VI).
        """
        size = cap + 1
        coeff = np.zeros((size, size), dtype=float)
        coeff[0, 0] = 1.0
        for p_lb, p_ub in zip(self.lower, self.upper):
            p_none = 1.0 - p_ub
            p_maybe = p_ub - p_lb
            new = coeff * p_none
            if p_lb > 0.0:
                shifted = np.zeros_like(coeff)
                shifted[1:size, :] += coeff[: size - 1, :]
                # definite hits beyond the cap collapse onto the last row
                shifted[size - 1, :] += coeff[size - 1, :]
                new += shifted * p_lb
            if p_maybe > 0.0:
                shifted = np.zeros_like(coeff)
                shifted[:, 1:size] += coeff[:, : size - 1]
                shifted[:, size - 1] += coeff[:, size - 1]
                new += shifted * p_maybe
            coeff = new
        return coeff

    # ------------------------------------------------------------------ #
    # bound queries (Lemma 4)
    # ------------------------------------------------------------------ #
    def _check_k(self, k: int) -> None:
        if k < 0:
            raise ValueError("k must be non-negative")
        if self.k_cap is not None and k > self.k_cap:
            raise ValueError(
                f"count {k} exceeds the truncation bound k_cap={self.k_cap}"
            )

    def count_lower_bound(self, k: int) -> float:
        """Lower bound of ``P(sum = k)`` — the coefficient ``c_{k,0}``."""
        self._check_k(k)
        if k >= self.coefficients.shape[0]:
            return 0.0
        if k == self._cap and self.n > self._cap:
            # the last row also holds mass of definite counts > cap
            return 0.0
        return float(self.coefficients[k, 0])

    def count_upper_bound(self, k: int) -> float:
        """Upper bound of ``P(sum = k)`` — ``sum_{i <= k, i + j >= k} c_{i,j}``."""
        self._check_k(k)
        size = self.coefficients.shape[0]
        total = 0.0
        for i in range(0, min(k, size - 1) + 1):
            j_min = max(0, k - i)
            total += float(self.coefficients[i, j_min:].sum())
        return min(total, 1.0)

    def cdf_lower_bound(self, k: int) -> float:
        """Lower bound of ``P(sum <= k)`` — mass with ``i + j <= k``."""
        self._check_k(k)
        size = self.coefficients.shape[0]
        total = 0.0
        for i in range(0, min(k, size - 1) + 1):
            j_max = k - i
            if i == size - 1 and self.n > self._cap:
                # absorbing row: definite count may exceed the cap
                continue
            total += float(self.coefficients[i, : j_max + 1].sum())
        return min(total, 1.0)

    def cdf_upper_bound(self, k: int) -> float:
        """Upper bound of ``P(sum <= k)`` — mass with ``i <= k``."""
        self._check_k(k)
        size = self.coefficients.shape[0]
        if k >= size - 1 and self.n <= self._cap:
            return 1.0
        total = float(self.coefficients[: min(k, size - 1) + 1, :].sum())
        if k >= size - 1 and self.n > self._cap:
            # cannot include the absorbing row, it may hold counts > k
            total = float(self.coefficients[: size - 1, :].sum())
        return min(total, 1.0)

    def pmf_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower/upper bounds for ``P(sum = k)`` for all representable ``k``.

        Without truncation the arrays have length ``n + 1``; with truncation
        length ``k_cap + 1``.
        """
        top = self.n if self.k_cap is None else min(self.n, self.k_cap)
        lower = np.array([self.count_lower_bound(k) for k in range(top + 1)])
        upper = np.array([self.count_upper_bound(k) for k in range(top + 1)])
        return lower, upper

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #
    @classmethod
    def from_exact(cls, probabilities: Sequence[float], k_cap: Optional[int] = None):
        """UGF degenerating to a regular generating function (lower == upper)."""
        return cls(probabilities, probabilities, k_cap=k_cap)

    def total_mass(self) -> float:
        """Total probability mass of the expansion (should be 1)."""
        return float(self.coefficients.sum())


def ugf_pmf_bounds_batch(
    lower: np.ndarray,
    upper: np.ndarray,
    k_cap: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """UGF PMF bounds for a whole batch of probability-bound vectors at once.

    Expands ``num_batches`` uncertain generating functions — one per row of
    ``lower`` / ``upper``, shape ``(num_batches, n)`` — in a single pass: the
    trinomial-multiplication loop runs once over the ``n`` variables with
    every polynomial operation vectorised across the batch axis.  IDCA uses
    this to turn the ``(num_pairs, num_candidates)`` bound matrices of the
    batched pair-bounds kernel into per-pair domination-count PMF bounds
    without constructing one :class:`UncertainGeneratingFunction` per pair.

    Each row of the result is bit-identical to
    ``UncertainGeneratingFunction(lower[i], upper[i], k_cap).pmf_bounds()``,
    because every element sees the scalar class's operations in its order:

    * The expansion alternates between two preallocated, flattened
      coefficient buffers and builds the row- and column-shifted copies in
      two more, all in place, so the loop allocates nothing.  Per element it
      computes ``(c * p_none + shift_row * p_lb) + shift_col * p_maybe``;
      the absorbing last row (column) is summed into its shift *before* the
      multiply, as in the scalar class.  Row 0 of the row shift and column 0
      of the column shift are zero, and the absorbing row and column of
      ``c`` stay zero until ``cap`` variables are in, so those additions are
      skipped until then.  Adding or skipping an exact zero, like the scalar
      class skipping its branches when ``p_lb`` or ``p_maybe`` is zero,
      leaves a non-negative value unchanged.
    * The upper PMF bound ``sum_{i <= k} c[i, k - i:].sum()`` is built from
      the suffix sums ``c[:, i, j:].sum()``, one reduction over the last axis
      per ``j`` (the same contiguous-row reduction as the scalar class's
      ``.sum()``), and one ``np.add.accumulate``, which adds them for every
      ``k`` strictly in order of increasing ``i``, as the scalar loop does.
      That is ``O(n)`` numpy calls instead of ``O(n^2)``.

    Returns ``(pmf_lower, pmf_upper)`` of shape ``(num_batches, top + 1)``
    with ``top = n`` (or ``min(n, k_cap)`` under truncation).
    """
    lower_arr = np.atleast_2d(np.asarray(lower, dtype=float))
    upper_arr = np.atleast_2d(np.asarray(upper, dtype=float))
    if lower_arr.ndim != 2 or lower_arr.shape != upper_arr.shape:
        raise ValueError("lower and upper must be 2-D arrays of identical shape")
    clip_lower = _check_probabilities(lower_arr, "lower")
    clip_upper = _check_probabilities(upper_arr, "upper")
    if not (lower_arr <= upper_arr + 1e-12).all():
        raise ValueError("lower bounds must not exceed upper bounds")
    if clip_lower:
        lower_arr = np.clip(lower_arr, 0.0, 1.0)
    if clip_upper:
        upper_arr = np.clip(upper_arr, 0.0, 1.0)
    upper_arr = np.maximum(lower_arr, upper_arr)
    if k_cap is not None and k_cap < 0:
        raise ValueError("k_cap must be non-negative")

    num_batches, n = lower_arr.shape
    cap = n if k_cap is None else min(n, k_cap + 1)
    size = cap + 1
    # the trinomial factors of every variable, variable-major, so factor[i]
    # is a (num_batches, 1) column broadcasting over one coefficient matrix
    p_none = (1.0 - upper_arr).T[:, :, None]
    p_lb = lower_arr.T[:, :, None]
    p_maybe = (upper_arr - lower_arr).T[:, :, None]

    # coefficient matrices flattened row-major to (num_batches, size * size):
    # every full-buffer operation is then one contiguous numpy loop
    coeff = np.zeros((num_batches, size * size), dtype=float)
    coeff[:, 0] = 1.0
    spare = np.empty_like(coeff)
    # row 0 of the row shift and column 0 of the column shift must stay 0
    row_shift = np.zeros_like(coeff)
    row_shift_tail = row_shift[:, size:]
    row_shift_last = row_shift[:, -size:]
    col_shift = np.zeros_like(coeff)
    col_shift_tail = col_shift[:, 1:]
    col_shift_first = col_shift[:, ::size]
    col_shift_last = col_shift[:, size - 1 :: size]
    buffers = [
        # (buffer, rows 0..size-2, last row, all but the last entry, last column)
        (buf, buf[:, :-size], buf[:, -size:], buf[:, :-1], buf[:, size - 1 :: size])
        for buf in (coeff, spare)
    ]
    current, following = buffers
    for i in range(n):
        c, c_head, c_last_row, c_init, c_last_col = current
        out = following[0]
        # after i variables no count exceeds i, so the absorbing last row and
        # column hold only zeros, and adding them changes nothing, until
        # i reaches the cap
        absorbing = i >= cap
        np.multiply(c, p_none[i], out=out)
        # definite hit: every row moves one down, the last row absorbs
        row_shift_tail[...] = c_head
        if absorbing:
            row_shift_last += c_last_row
        row_shift *= p_lb[i]
        out += row_shift
        # possible hit: every column moves one right, the last one absorbs;
        # the flat copy wraps each row's last entry into column 0 of the
        # next row, which is cleared
        col_shift_tail[...] = c_init
        if absorbing:
            col_shift_last += c_last_col
        col_shift_first[...] = 0.0
        col_shift *= p_maybe[i]
        out += col_shift
        current, following = following, current
    coeff = current[0].reshape(num_batches, size, size)

    top = n if k_cap is None else min(n, k_cap)
    width = top + 1
    # top < cap whenever n > cap, so no entry read here is the absorbing row
    pmf_lower = coeff[:, :width, 0].copy()
    # Lemma 4's upper bound for count k is sum_{i <= k} c[i, k - i:].sum().
    # Each suffix sum c[i, j:].sum() is stored at (i, i + j) of a
    # width x width matrix, one superdiagonal per j; summing the matrix down
    # its rows in order of increasing i then yields every k at once.
    diagonals = np.zeros((num_batches, width * width), dtype=float)
    for j in range(width):
        np.add.reduce(
            coeff[:, : width - j, j:],
            axis=-1,
            out=diagonals[:, j : (width - j) * (width + 1) : width + 1],
        )
    folded = np.add.accumulate(
        diagonals.reshape(num_batches, width, width), axis=1
    )
    pmf_upper = np.minimum(folded[:, -1, :], 1.0)
    return pmf_lower, pmf_upper


def regular_gf_bounds(
    lower: Sequence[float],
    upper: Sequence[float],
    k_cap: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Domination-count bounds derived from two *regular* generating functions.

    One expansion uses the progressive (lower) probability bounds, one the
    conservative (upper) bounds; PMF bounds are then recovered from the two
    CDFs.  This is the alternative discussed in Section IV-D ("Discussion")
    and in the paper's technical report; the UGF is preferred because it
    produces the bounds directly and never yields looser brackets — the
    property the ablation benchmark and the property-based tests verify.

    Returns ``(pmf_lower, pmf_upper)`` arrays covering counts
    ``0 .. len(lower)`` (or ``0 .. k_cap``).
    """
    lower_arr = _as_prob_array(lower, "lower")
    upper_arr = _as_prob_array(upper, "upper")
    if lower_arr.shape != upper_arr.shape:
        raise ValueError("lower and upper must have the same length")
    n = lower_arr.shape[0]
    top = n if k_cap is None else min(n, k_cap)

    pmf_from_lower = poisson_binomial_pmf(lower_arr, k_cap=k_cap)
    pmf_from_upper = poisson_binomial_pmf(upper_arr, k_cap=k_cap)
    # with k_cap, the final overflow bucket is excluded from the CDFs below
    cdf_from_lower = np.cumsum(pmf_from_lower[: top + 1])
    cdf_from_upper = np.cumsum(pmf_from_upper[: top + 1])

    pmf_lower = np.zeros(top + 1)
    pmf_upper = np.zeros(top + 1)
    for k in range(top + 1):
        cdf_ub_k = cdf_from_lower[k]  # stochastically smallest sum
        cdf_lb_k = cdf_from_upper[k]  # stochastically largest sum
        prev_ub = cdf_from_lower[k - 1] if k > 0 else 0.0
        prev_lb = cdf_from_upper[k - 1] if k > 0 else 0.0
        pmf_upper[k] = min(1.0, max(0.0, cdf_ub_k - prev_lb))
        pmf_lower[k] = max(0.0, cdf_lb_k - prev_ub)
    return pmf_lower, pmf_upper
