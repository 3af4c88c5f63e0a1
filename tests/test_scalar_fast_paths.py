"""Scalar fast paths of the domain, finiteness and clamp checks.

DomainSpec.check, generators._ensure_finite and divergence._clamped pass a
valid float64 scalar with plain float comparisons.  A 0-d input must behave
exactly like the same value in a 1-element array: the same raise or no raise,
the same exception type and message, and for _clamped the same float bits.
DomainSpec.mask leaves out an explicit finiteness pass; it must still reject
nan and +-inf for every domain kind.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from breglab import DomainError, DomainSpec
from breglab.divergence import _clamped
from breglab.generators import _ensure_finite

TINY = 5e-324  # the smallest subnormal
BIG = 1.7976931348623157e308  # the largest finite float


def nan_with(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


SPECIAL = [
    math.nan, -math.nan, nan_with(0x7FF8000000000123), nan_with(0xFFF0000000000001),
    math.inf, -math.inf, 0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308 / 3,
    -2.2250738585072014e-308 / 7, BIG, -BIG, 1e308, -1e308, 0.9e308, -0.9e308,
    1e-12, -1e-12, math.nextafter(-1e-12, 0.0), math.nextafter(-1e-12, -1.0), 1.0, -1.0,
]
SPECS = [
    DomainSpec(),
    DomainSpec(lo=0.0),
    DomainSpec(-1.0, 0.0),
    DomainSpec(TINY, 1e308),
    DomainSpec(hi=-1e-300),
]


def scalars(x: float):
    """The 0-d forms a check receives: a Python float, a numpy scalar, a 0-d array."""
    return [x, np.float64(x), np.asarray(x, dtype=float)]


def outcome(fn, *args):
    """("ok", result) or ("raise", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the comparison is the point
        return ("raise", type(exc), str(exc))


def near(spec: DomainSpec):
    """The bounds of spec and their neighbours on both sides."""
    out = []
    for b in (spec.lo, spec.hi):
        out += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
    return out


values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


class TestDomainMask:
    @settings(max_examples=300, deadline=None)
    @given(
        arr=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=6), elements=values),
        spec=st.sampled_from(SPECS),
    )
    def test_matches_explicit_finiteness_pass(self, arr, spec):
        ref = np.isfinite(arr) & (arr > spec.lo) & (arr < spec.hi)
        np.testing.assert_array_equal(spec.mask(arr), ref)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"({s.lo}, {s.hi})")
    def test_special_values(self, spec):
        arr = np.array(SPECIAL + near(spec))
        np.testing.assert_array_equal(
            spec.mask(arr), np.isfinite(arr) & (arr > spec.lo) & (arr < spec.hi)
        )


class TestDomainCheck:
    @settings(max_examples=300, deadline=None)
    @given(x=values, spec=st.sampled_from(SPECS), error=st.sampled_from([DomainError, ValueError]))
    def test_scalar_matches_one_element_array(self, x, spec, error):
        ref = outcome(spec.check, np.array([x]), "x", error)
        assert ref[0] == "ok" or ref[1] is error
        for s in scalars(x):
            assert outcome(spec.check, s, "x", error) == ref

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"({s.lo}, {s.hi})")
    def test_bounds_and_neighbours(self, spec):
        for x in near(spec) + SPECIAL:
            ref = outcome(spec.check, np.array([x]), "theta")
            for s in scalars(x):
                assert outcome(spec.check, s, "theta") == ref

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(allow_nan=False, allow_infinity=False),
        hi=st.floats(allow_nan=False, allow_infinity=False),
        x=values,
    )
    @example(lo=-TINY, hi=TINY, x=-0.0)
    @example(lo=-BIG, hi=BIG, x=BIG)
    def test_drawn_intervals(self, lo, hi, x):
        if not lo < hi:
            lo, hi = (hi, lo) if hi < lo else (lo, math.nextafter(lo, math.inf))
        spec = DomainSpec(lo, hi)
        for v in [x] + near(spec):
            ref = outcome(spec.check, np.array([v]), "x")
            for s in scalars(v):
                assert outcome(spec.check, s, "x") == ref


class TestEnsureFinite:
    @settings(max_examples=300, deadline=None)
    @given(x=values)
    def test_scalar_matches_one_element_array(self, x):
        arr = np.array([x])
        ref = outcome(_ensure_finite, arr, "value")
        for s in scalars(x):
            got = outcome(_ensure_finite, s, "value")
            if ref[0] == "ok":
                assert got[0] == "ok" and got[1] is s  # returned unchanged
            else:
                assert got == ref


class TestClamped:
    @settings(max_examples=400, deadline=None)
    @given(x=values)
    def test_scalar_matches_one_element_array(self, x):
        ref = outcome(_clamped, np.array([x]))
        for s in scalars(x):
            got = outcome(_clamped, s)
            if ref[0] == "ok":
                assert got[0] == "ok" and type(got[1]) is float
                assert bits(got[1]) == bits(float(ref[1][0]))
            else:
                assert got == ref

    def test_signs_and_nan_bits_kept(self):
        for x in SPECIAL:
            got = outcome(_clamped, np.float64(x))
            if x < -1e-12:
                assert got[0] == "raise"
                continue
            expected = 0.0 if -1e-12 <= x < 0.0 else x
            assert bits(got[1]) == bits(expected)
