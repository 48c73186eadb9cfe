"""The guard helpers against their full-array references, bit for bit.

``_div``, ``_xlog``, ``jeffreys`` and ``hassanat`` substitute only the
flagged positions. Every metric computed with them must equal the same
metric computed with the ``np.where`` forms in ``_reference``, on cases
with signed zeros, subnormals, magnitudes near overflow and negatives,
under both guard policies, and raise no RuntimeWarning the reference
does not raise.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import _reference as ref
from distbench import describe, list_metrics
from distbench.metrics import GuardPolicy, kernels, registry
from distbench.metrics.kernels import TERM_IS_ZERO

GUARDS = {"epsilon": GuardPolicy(),
          "zeroing": GuardPolicy(zero_denominator=TERM_IS_ZERO, log_nonpositive=TERM_IS_ZERO)}


def _cases():
    rng = np.random.default_rng(1080)
    smooth = rng.uniform(0.0, 3.0, size=(7, 5))
    cases = {
        "ordinary": (smooth[:3], smooth[3:]),
        "zeros in both": (np.where(smooth[:3] < 1.0, 0.0, smooth[:3]),
                          np.where(smooth[3:] < 1.0, 0.0, smooth[3:])),
        "zeros in one": (np.where(smooth[:3] < 1.5, 0.0, smooth[:3]), smooth[3:]),
        "signed zeros": (np.where(smooth[:3] < 1.5, -0.0, smooth[:3]),
                         np.where(smooth[3:] < 1.5, 0.0, smooth[3:])),
        "subnormal": (np.where(smooth[:3] < 1.5, 5e-324, smooth[:3]), smooth[3:]),
        "near overflow": (smooth[:3] * 1e300, np.where(smooth[3:] < 1.0, 0.0, smooth[3:])),
        "equal": (smooth[:3], smooth[:4]),
        "negatives": (smooth[:3] - 1.5, smooth[3:] - 1.5),
        "negative zeros and subnormals": (np.where(smooth[:3] < 1.0, -5e-324, -smooth[:3]),
                                          np.where(smooth[3:] < 1.0, -0.0, smooth[3:])),
        "pool": tuple(rng.choice(np.array([0.0, -0.0, 5e-324, 1.0, 2.5, 1e300, 3.0]),
                                 size=shape) for shape in ((3, 5), (4, 5))),
    }
    return cases


CASES = _cases()


def _run(desc, x, y, guard):
    """Bits of the (3, 4) distances, and the RuntimeWarnings raised, as texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = np.asarray(desc.func(x[:, None, :], y, guard), dtype=np.float64)
    return out.view(np.int64), [str(w.message) for w in caught
                                if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("case", CASES, ids=CASES.keys())
@pytest.mark.parametrize("guard", GUARDS.values(), ids=GUARDS.keys())
def test_guard_helpers_equal_their_references(case, guard, monkeypatch):
    x, y = CASES[case]
    got = {abbrev: _run(describe(abbrev), x, y, guard) for abbrev in list_metrics()}
    monkeypatch.setattr(kernels, "_div", ref.div_ref)
    monkeypatch.setattr(registry, "_div", ref.div_ref)
    monkeypatch.setattr(kernels, "_xlog", ref.xlog_ref)
    originals = {"JefD": ref.jeffreys_ref, "HasD": ref.hassanat_ref}
    for abbrev in list_metrics():
        desc = describe(abbrev)
        if abbrev in originals:
            desc = dataclasses.replace(desc, func=originals[abbrev])
        bits, caught = got[abbrev]
        want_bits, want_caught = _run(desc, x, y, guard)
        assert np.array_equal(bits, want_bits), abbrev
        # the reference may also warn about a fallback it computes and then
        # discards (num / epsilon where the denominator is not zero)
        assert set(caught) <= set(want_caught), (abbrev, caught, want_caught)


@pytest.mark.parametrize("guard", GUARDS.values(), ids=GUARDS.keys())
def test_div_and_xlog_equal_their_references_elementwise(guard):
    # every (numerator or coefficient, denominator or argument) pair of the
    # pool, with the second operand broadcast along one axis as a query is
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5, 1e300, -1e300, np.inf, -np.inf])
    first = np.repeat(pool, len(pool)).reshape(len(pool), len(pool))
    for second in (np.tile(pool, (len(pool), 1)), pool[None, :]):
        for helper, reference in ((kernels._div, ref.div_ref), (kernels._xlog, ref.xlog_ref)):
            got, caught = _warned(helper, first, second, guard)
            want, want_caught = _warned(reference, first, second, guard)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), helper.__name__
            assert set(caught) <= set(want_caught), (helper.__name__, caught, want_caught)


def _warned(func, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = np.asarray(func(*args), dtype=np.float64)
    return out, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
