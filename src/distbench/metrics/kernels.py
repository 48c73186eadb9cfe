"""The distance/similarity kernels, the shared cores and the pair terms.

A measure that reduces over the features itself has a kernel here (24
of them). The other 30 are one expression each, written in their
registry rows, of the shared cores and row terms: reductions such as
the sum of absolute differences that several measures are simple
functions of, kept by name in TERMS beside the elementwise pair terms.

Every kernel, term and core is a pure function of one PairTerms ``t``, the
pair x, y of float ndarrays whose last axis is the vector dimension, so
the same code evaluates a single pair (n,), a training matrix against
one query (m, n) vs (n,), or batches of pairs (b, n) vs (b, n): a batch
is scored as ``kernel(PairTerms(x, y))``. Callers are expected to pass
float64 arrays; the registry front end (``evaluate``, ``pairwise``)
does the conversion and the domain checks.

A PairTerms holds x and y feature-major as well: the vector dimension
moved to the front, so an elementwise term of a (b, 1, n) block against
(m, n) rows is one contiguous (n, b, m) array. Every sum over the
features runs along that leading axis as whole-slab adds in numpy's own
pairwise order (``_fsum``), so it gives the bits ``np.sum(..., axis=-1)``
gives on the natural layout without numpy's per-element cost on a short
axis; maxima and counts, whose results do not depend on order, reduce
the leading axis directly. An import-time probe checks the replayed
order against the installed numpy and falls back to ``np.sum`` on a
transposed copy if they disagree.

Every term is read by name, as ``t.diff`` or ``t.square_sum``, and
computed on its first read: a name in TERMS (the copy ``xf``, an
elementwise term such as x - y, or a shared core such as
``abs_diff_sum``) once per query block of a registry.Cell, and a name
in ROW_TERMS, a term of y alone (``yf``, ``square_sum``, ...), once per
cell, in the store its blocks share.

Division by zero and logs of non-positive arguments follow one rule: the
zero denominator or non-positive log argument is replaced by EPSILON, in
``_substituted`` alone, which ``_guarded`` (the denominator ``_div``
divides by) and ``_log`` call. A zero numerator (or log coefficient) so
gives a zero of its own sign, which no distance tells apart: every sum
ends in ``+ 0.0``, and every other consumer squares the term, takes its
absolute value or passes it to ``_log``. Only exact zeros are replaced,
so a denominator such as 5e-324 can still overflow to inf, and a zero
coefficient times an infinite or NaN log is NaN; ``evaluate``,
``pairwise`` and the registry's Cell refuse a non-finite distance with
DomainViolationError.
A denominator that several kernels divide by is guarded once, as a
term: ``guarded_sum`` (x + y) and ``guarded_min`` once per block, the
row term ``guarded`` (y) once per cell.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

EPSILON = 1e-12


def _substituted(a, bad):
    """``a``, or a copy of it holding EPSILON where ``bad`` is set: the one substitution."""
    if bad.any():
        a = a.copy()
        a[bad] = EPSILON
    return a


def _guarded(den):
    """den, or a copy of it holding EPSILON at each zero."""
    den = np.asarray(den, dtype=np.float64)
    return _substituted(den, den == 0.0)


def _div(num, den):
    """num / den, with EPSILON in place of each zero denominator.

    One division gives every term; a zero numerator gives a zero of its
    own sign.
    """
    return np.asarray(num, dtype=np.float64) / _guarded(den)


def _log(arg):
    """ln(arg), with EPSILON in place of each non-positive argument.

    Only a copy is written, and only when some argument is non-positive.
    """
    arg = np.asarray(arg, dtype=np.float64)
    return np.log(_substituted(arg, arg <= 0.0))


def _xlog(coef, arg):
    """coef * ln(arg), with EPSILON in place of each non-positive argument."""
    return coef * _log(arg)


def _frozen(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


def _pairwise_sum(slabs):
    """numpy's pairwise summation of ``slabs[0], slabs[1], ...``, into a new array.

    Below 8 terms the terms are added in sequence; up to 128, eight
    running sums each take every eighth term and are combined as a tree,
    then the remaining terms are added; above 128 the terms are split
    at a multiple of 8 near the middle and each half summed so. Every add
    is of whole slabs.
    """
    n = len(slabs)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        res = _pairwise_sum(slabs[:half])
        return np.add(res, _pairwise_sum(slabs[half:]), out=res)
    if n < 8:
        res = slabs[0] + slabs[1] if n > 1 else slabs[0].copy()
        rest = 2
    else:
        rest = n - n % 8
        r = slabs[0:8] + slabs[8:16] if rest > 8 else slabs[0:8]
        for i in range(16, rest, 8):
            np.add(r, slabs[i:i + 8], out=r)
        r = r[0::2] + r[1::2]           # r0+r1, r2+r3, r4+r5, r6+r7
        r = r[0::2] + r[1::2]           # (r0+r1)+(r2+r3), (r4+r5)+(r6+r7)
        res = r[0] + r[1]
    for i in range(rest, n):
        np.add(res, slabs[i], out=res)
    return res


def _replayed_sum(a):
    """Sum over axis 0 with the bits of ``np.sum`` over the last axis of the transpose.

    ``np.sum`` adds the pairwise sum to its +0.0 identity, so a sum of
    only -0.0 terms is +0.0; the final ``+ 0.0`` does the same. A 1-d
    ``a`` (a single pair) already has its features last, so ``np.sum``
    itself sums it.
    """
    if a.ndim == 1:
        return np.sum(a)
    if len(a) == 0:
        return np.zeros(a.shape[1:])
    res = _pairwise_sum(a)
    return np.add(res, 0.0, out=res)


def _numpy_sum(a):
    """Sum over axis 0 by ``np.sum`` itself: exact on any numpy, but slower."""
    return np.sum(np.ascontiguousarray(np.moveaxis(a, 0, -1)), axis=-1)


def _replay_is_exact() -> bool:
    """Whether ``_replayed_sum`` gives numpy's bits on a fixed probe.

    The probe's columns are order-sensitive values spanning 40 decades,
    only -0.0, mixed signed zeros, and subnormals among signed zeros;
    each of its first 0 to 130 rows is summed (129 and 130 are the
    first lengths that split in halves).
    """
    k = np.arange(130.0)
    order_sensitive = np.sin(2.3 * k) * 10.0 ** (7 * k % 41 - 20)
    signed_zeros = np.where(k % 3 == 0, -0.0, 0.0)
    subnormals = np.where(k % 5 < 2, signed_zeros, 5e-324)
    natural = np.stack((order_sensitive, np.full(130, -0.0), signed_zeros, subnormals))
    probe = np.ascontiguousarray(natural.T)
    got = np.array([_replayed_sum(probe[:n]) for n in range(131)])
    want = np.array([np.sum(natural[:, :n], axis=-1) for n in range(131)])
    return np.array_equal(got.view(np.int64), want.view(np.int64))


# The sum over the leading (feature) axis that every kernel uses.
_fsum = _replayed_sum if _replay_is_exact() else _numpy_sum


def _feature_major(a, ndim: int) -> np.ndarray:
    """``a`` with its last axis moved to the front, as a C-contiguous copy of ``ndim`` axes."""
    a = np.asarray(a)
    a = a.reshape((1,) * (ndim - a.ndim) + a.shape)
    return np.ascontiguousarray(a.transpose(ndim - 1, *range(ndim - 1)))


class PairTerms:
    """The pair terms and shared cores of x against y, each computed on first read and kept.

    ``x`` and ``y`` broadcast against each other. Every other attribute is
    a term of TERMS or ROW_TERMS, read as ``t.name`` and computed on first
    read by ``__getattr__``, ``xf`` and ``yf`` among them: the C-contiguous
    feature-major copies, the last axis moved to the front after both are
    given the same number of axes, so a (b, 1, n) block and (m, n) rows
    become (n, b, 1) and (n, 1, m). A term of TERMS, such as an
    (n, b, m) elementwise term or a core's (b, m) sum over the features, is
    kept on the PairTerms; a row term also in the store ``rows``, a dict a
    Cell passes to each block's PairTerms, so it is computed once per cell.
    Inputs, copies and terms are read-only, so a kernel that writes into
    one fails loudly instead of changing what the next metric reads.
    """

    def __init__(self, x, y, rows=None):
        self.x = x
        self.y = y
        self._rows: dict = {} if rows is None else rows

    def __getattr__(self, name):   # reached only for a term this PairTerms has not read
        if name in TERMS:
            value = _frozen(TERMS[name](self))
        elif name in ROW_TERMS:
            value = self._rows.get(name)
            if value is None:
                value = self._rows[name] = _frozen(ROW_TERMS[name](self))
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


def _pearson_r(t):
    """Pearson correlation over the features; zero variance maps to r = 0.

    Each mean is the sum over the count, which is how ``np.mean`` divides.
    """
    xc = t.xf - _fsum(t.xf) / len(t.xf)
    num = _fsum(xc * t.centred)
    den = np.sqrt(_fsum(np.square(xc)) * t.centred_square_sum)
    r = np.where(den == 0.0, 0.0, num / np.where(den == 0.0, 1.0, den))
    return np.clip(r, -1.0, 1.0)


# The shared pair terms, by attribute name: each is a function of the
# PairTerms, computed from its feature-major copies.
TERMS: dict[str, Callable[[PairTerms], np.ndarray]] = {
    "xf": lambda t: _feature_major(t.x, max(np.ndim(t.x), np.ndim(t.y))),
    "diff": lambda t: t.xf - t.yf,
    "sum": lambda t: t.xf + t.yf,
    "min": lambda t: np.minimum(t.xf, t.yf),
    "max": lambda t: np.maximum(t.xf, t.yf),
    "prod": lambda t: t.xf * t.yf,
    "abs_diff": lambda t: np.abs(t.diff),
    "sq_diff": lambda t: np.square(t.diff),
    "sq_sum": lambda t: np.square(t.xf) + np.square(t.yf),
    "mid": lambda t: 0.5 * t.sum,                                     # JDD, TanD, CSSD
    "sqrt_prod": lambda t: np.sqrt(t.prod),                           # BD, TanD
    # the denominators several kernels divide by, guarded once (_div's rule)
    "guarded_sum": lambda t: _guarded(t.sum),   # SquD, PSCSD, ClaD, KDD, TopD, JSD
    "guarded_min": lambda t: _guarded(t.min),   # VWHD, VSDF2
    # x ln(x / mid): KDD's terms, and half of Topsoe's
    "x_log_x_mid": lambda t: _xlog(t.xf, 2.0 * t.xf / t.guarded_sum),
    # The shared cores: reductions over the features. 30 registry rows are
    # expressions of them, so factor-related measures agree to the last ulp.
    "abs_diff_sum": lambda t: _fsum(t.abs_diff),
    # a maximum does not depend on order
    "abs_diff_max": lambda t: np.maximum.reduce(t.abs_diff, axis=0),
    "sq_diff_sum": lambda t: _fsum(t.sq_diff),
    "value_sum": lambda t: _fsum(t.sum),
    "max_sum": lambda t: _fsum(t.max),
    "min_sum": lambda t: _fsum(t.min),
    # positions where x or y is non-zero, as a float
    "nonzero_count": lambda t: np.sum(t.sq_sum != 0.0, axis=0).astype(np.float64),
    "inner_product": lambda t: _fsum(t.prod),
    "x_square_sum": lambda t: _fsum(np.square(t.xf)),   # y's is the row term "square_sum"
    "squared_chord_sum": lambda t: _fsum(np.square(np.sqrt(t.xf) - t.sqrt)),
    "squared_chi2_sum": lambda t: _fsum(t.sq_diff / t.guarded_sum),
    # the directed chi-squared sums: sum((x - y)^2 / x), and sum((y - x)^2 / y)
    # as (x - y)^2, which squaring makes the same bits
    "neyman_sum": lambda t: _fsum(_div(t.sq_diff, t.xf)),
    "pearson_sum": lambda t: _fsum(t.sq_diff / t.guarded),
    # Topsoe's information statistic, twice the Jensen-Shannon divergence
    "topsoe_sum": lambda t: _fsum(t.x_log_x_mid + _xlog(t.yf, 2.0 * t.yf / t.guarded_sum)),
    "pearson_r": _pearson_r,
}

# The terms of y alone: functions of a PairTerms reading only ``t.y``, row
# terms and ``t.x``'s number of axes. Hausdorff's search tables (``closed``
# to ``run``) make -0.0 0.0, so no gap is -0.0.
ROW_TERMS: dict[str, Callable[[PairTerms], np.ndarray]] = {
    "yf": lambda t: _feature_major(t.y, max(np.ndim(t.x), np.ndim(t.y))),
    "guarded": lambda t: _guarded(t.yf),                              # PCSD, KLD
    "square_sum": lambda t: _fsum(np.square(t.yf)),
    "unit": lambda t: _div(t.yf, np.sqrt(t.square_sum)),              # ChoD
    "sqrt": lambda t: np.sqrt(t.yf),                                  # SCD, MatD, HeD
    "log": lambda t: _log(t.yf),                                      # JefD
    "xlogx": lambda t: _xlog(t.yf, t.yf),                             # JDD
    "centred": lambda t: t.yf - _fsum(t.yf) / len(t.yf),              # PeaD, CorD, SPeaD
    "centred_square_sum": lambda t: _fsum(np.square(t.centred)),
    "share": lambda t: _div(t.yf, _fsum(t.yf)),                       # WIAD
    "one_plus": lambda t: 1.0 + t.yf,                                 # HasD
    "has_negative": lambda t: (t.yf < 0.0).any(),                     # HasD
    # each (finite) row sorted between -inf and inf, the rows end to end
    "closed": lambda t: np.sort(np.hstack((t.y + 0.0, np.full((len(t.y), 2), [-np.inf, np.inf]))),
                                axis=1).ravel(),
    "row_base": lambda t: np.arange(len(t.y)) * (t.y.shape[1] + 2),
    "flat": lambda t: (t.yf + 0.0).ravel(),         # every row's j-th value, j = 0, 1, ...
    "owner": lambda t: np.tile(np.arange(len(t.y)), t.y.shape[1]),
    "order": lambda t: np.argsort(t.flat, kind="stable"),
    "run": lambda t: t.flat[t.order],   # the values in one ascending run
}


# L1 family

def lorentzian(t):
    """Sum of ln(1 + |x - y|); the +1 keeps each term non-negative."""
    return _fsum(np.log1p(t.abs_diff))


def canberra(t):
    """Manhattan weighted per dimension by |x| + |y|."""
    return _fsum(_div(t.abs_diff, np.abs(t.xf) + np.abs(t.yf)))


# Inner product family

def chord(t):
    """Chord length between the vectors projected on the unit sphere.

    Computed as the plain Euclidean distance between the normalized
    vectors, which equals sqrt(2 - 2 cos) without the cancellation that
    form suffers near identical vectors.
    """
    xn = _div(t.xf, np.sqrt(t.x_square_sum))
    return np.sqrt(_fsum(np.square(xn - t.unit)))


# Squared chord family (non-negative inputs only)

def bhattacharyya(t):
    """Negative log of the sum of geometric means; may be negative."""
    return -_log(_fsum(t.sqrt_prod))


# Squared L2 family

def clark(t):
    """Root of summed squared relative differences |x-y|/(x+y)."""
    return np.sqrt(_fsum(np.square(t.abs_diff / t.guarded_sum)))


def divergence(t):
    """Twice the summed squared differences over squared component sums."""
    return 2.0 * _fsum(_div(t.sq_diff, np.square(t.sum)))


def additive_symmetric_chi2(t):
    """Symmetrized chi-squared: 2 * sum((x-y)^2 (x+y) / (x y))."""
    return 2.0 * _fsum(_div(t.sq_diff * t.sum, t.prod))


def squared_chi_squared(t):
    """Squared differences over the absolute component sums."""
    return _fsum(_div(t.sq_diff, np.abs(t.sum)))


# Shannon entropy family (non-negative inputs only)

def kullback_leibler(t):
    """Relative entropy of x with respect to y; not symmetric."""
    return _fsum(_xlog(t.xf, t.xf / t.guarded))


def jeffreys(t):
    """Symmetrized relative entropy: sum of (x - y) (ln x - ln y).

    The split-log form makes the kernel symmetric to the last bit; both
    factors negate exactly when the arguments swap.
    """
    return _fsum(t.diff * (_log(t.xf) - t.log))


def k_divergence(t):
    """Divergence of x from the midpoint distribution."""
    return _fsum(t.x_log_x_mid)


def jensen_difference(t):
    """Half the summed Jensen differences of the entropy function."""
    # x ln x for x, y and their midpoint; 0 ln 0 is 0 ln EPSILON, a zero
    terms = 0.5 * (_xlog(t.xf, t.xf) + t.xlogx) - _xlog(t.mid, t.mid)
    return 0.5 * _fsum(terms)


# Vicissitude family

def vicis_wave_hedges(t):
    """Absolute differences over the component minima."""
    return _fsum(t.abs_diff / t.guarded_min)


def vicis_symmetric1(t):
    """Squared differences over the squared component minima."""
    return _fsum(_div(t.sq_diff, np.square(t.min)))


def vicis_symmetric2(t):
    """Squared differences over the component minima."""
    return _fsum(t.sq_diff / t.guarded_min)


def vicis_symmetric3(t):
    """Squared differences over the component maxima."""
    return _fsum(_div(t.sq_diff, t.max))


# Other measures

def kumar_johnson(t):
    """Sum of (x^2 + y^2)^2 / (2 (x y)^1.5)."""
    num = np.square(t.sq_sum)
    den = 2.0 * np.power(t.prod, 1.5)
    return _fsum(_div(num, den))


def taneja(t):
    """Arithmetic-geometric mean divergence."""
    return _fsum(_xlog(t.mid, _div(t.sum, 2.0 * t.sqrt_prod)))


def hamming(t):
    """Count of positions where the components differ exactly."""
    return np.sum(t.xf != t.yf, axis=0).astype(np.float64)


def hausdorff(t):
    """Hausdorff distance treating each vector as a set of scalars.

    A Cell's layout, a (b, 1, n) block against (m, n) rows, takes
    ``_sorted_hausdorff``, or nan throughout for a non-finite input, which
    the registry refuses; every other layout (a single pair, one (n,) query
    against rows, batches of pairs) takes the (..., n, n) difference tensor.
    """
    x, y = t.x, t.y
    if np.ndim(x) == 3 and np.shape(x)[1] == 1 and np.ndim(y) == 2:
        finite = np.isfinite(x).all() and np.isfinite(y).all()
        return _sorted_hausdorff(x[:, 0, :], t) if finite else np.full((len(x), len(y)), np.nan)
    diff = np.abs(x[..., :, None] - y[..., None, :])   # (..., n_x, n_y)
    h_xy = np.max(np.min(diff, axis=-1), axis=-1)
    h_yx = np.max(np.min(diff, axis=-2), axis=-1)
    return np.maximum(h_xy, h_yx)


def _sorted_hausdorff(q, t):
    """``hausdorff`` of finite (b, n) queries against finite (m, n) rows ``t.y``, bit for bit.

    The nearest value to v in a set is the next value below or above v,
    because rounding v - y is monotone in y; each gap is taken in the
    order that makes it non-negative, which equals ``abs`` bit for bit.
    Every training value is placed among the distinct query values with
    one ``searchsorted``, and both directed distances follow by counting
    and running extrema, each a maximum over a feature axis laid out
    ahead of the rows; a maximum of finite gaps does not depend on order.
    Each array of gaps is built in place, in the buffers of its two
    operands, so the search keeps no temporary beside them.
    """
    b, n = q.shape
    m = len(t.y)
    u, slot = np.unique(q + 0.0, return_inverse=True)   # distinct query values, -0.0 as 0.0
    slot = slot.reshape(b, n)
    k = len(u)
    below = np.empty_like(t.order)   # how many u lie below each value, in flat order
    below[t.order] = np.searchsorted(u, t.run)
    # query -> row: the last value of each sorted row that is <= each u, as (k, m)
    counts = np.bincount(below * m + t.owner, minlength=(k + 1) * m)
    last = np.cumsum(counts.reshape(k + 1, m)[:k], axis=0)
    del counts
    last += t.row_base
    at_or_below = np.take(t.closed, last)
    last += 1
    gaps = _gaps(np.take(t.closed, last), u[:, None], at_or_below)
    del last, at_or_below
    to_rows = np.maximum.reduce(np.take(gaps, slot.T, axis=0), axis=0)
    del gaps
    # row -> query: each query's nearest values below and at-or-above every training value
    mine = np.zeros((b, k), dtype=bool)
    mine[np.arange(b)[:, None], slot] = True
    edge = np.full((b, 1), np.inf)
    lower = np.hstack((-edge, np.maximum.accumulate(np.where(mine, u, -np.inf), axis=1)))
    upper = np.hstack((np.minimum.accumulate(np.where(mine, u, np.inf)[:, ::-1], axis=1)[:, ::-1],
                       edge))
    gaps = _gaps(np.take(upper, below, axis=1), t.flat, np.take(lower, below, axis=1))
    to_query = np.maximum.reduce(gaps.reshape(b, n, m), axis=1)
    return np.maximum(to_rows, to_query, out=to_query)


def _gaps(upper, v, lower):
    """min(upper - v, v - lower), written into ``upper``; ``lower`` is overwritten too."""
    upper -= v
    np.subtract(v, lower, out=lower)
    return np.minimum(upper, lower, out=upper)


def chi2_statistic(t):
    """Sum of (x - m) / m with m the per-dimension midpoint; sign-indefinite."""
    return _fsum(_div(t.xf - t.mid, t.mid))


def whittaker(t):
    """Half the L1 distance between the sum-normalized vectors."""
    return 0.5 * _fsum(np.abs(_div(t.xf, _fsum(t.xf)) - t.share))


def meehl(t):
    """Sum over consecutive positions of (d_i - d_{i+1})^2 with d = x - y."""
    d = t.diff
    return _fsum(np.square(d[:-1] - d[1:]))


def hassanat(t):
    """Bounded per-dimension dissimilarity, each term in [0, 1].

    For non-negative pairs the term is 1 - (1 + min) / (1 + max); when the
    minimum is negative both numerator and denominator are shifted by
    |min| for any reals. The exact term is below 1 but rounds to 1.0 once
    the ratio is at most 2**-54, as for 0 against 1e20.

    Rounding 1 + v is monotone in v, so 1 + min is the minimum of 1 + x
    and the row term 1 + y, bit for bit, and 1 + max their maximum: the
    pair's min and max terms are read only when x or y holds a negative.
    """
    one_x = 1.0 + t.xf
    one_y = t.one_plus
    # An overflowed denominator gives 1 - 1/inf, the correctly rounded 1.0.
    with np.errstate(over="ignore"):
        num = np.minimum(one_x, one_y)
        den = np.maximum(one_x, one_y)
        if (t.xf < 0.0).any() or t.has_negative:
            lo = t.min
            shifted = lo < 0.0
            # lo + shift is exactly 0, so equal values give 0 at any
            # magnitude; 1 + lo + shift would round 1 away below about -2**53.
            shift = -lo[shifted]
            num[shifted] = 1.0 + (lo[shifted] + shift)
            den[shifted] = 1.0 + (t.max[shifted] + shift)
        num /= den
        return _fsum(np.subtract(1.0, num, out=num))
