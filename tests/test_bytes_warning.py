"""The ``python -bb`` contract survives pytest's warning filters.

``pyproject.toml`` exempts one third-party module (Hypothesis's engine
cache) from ``BytesWarning``; this probe fails if the exemption ever widens
to the code under test.  It only means something under ``-bb``, which is
how CI runs tier-1.
"""

import sys

import pytest


@pytest.mark.skipif(sys.flags.bytes_warning != 2, reason="only meaningful under python -bb")
def test_bytes_int_comparison_is_still_an_error():
    empty, zero = b"", 0
    with pytest.raises(BytesWarning):
        bool(empty == zero)
