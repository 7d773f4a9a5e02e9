"""Which math loops numpy runs on this CPU, for tests that pin exact bits."""

import pytest


def numpy_uses_avx512_math():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


# Bits pinned where numpy's log1p and power run its AVX512 (SVML) loops,
# which round some values differently from the C library's functions that
# numpy calls on other CPUs.
needs_avx512_math = pytest.mark.skipif(
    not numpy_uses_avx512_math(), reason="pins taken with numpy's AVX512 log1p and power"
)
