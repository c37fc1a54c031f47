"""fixed_sum buckets each chunk over its own exponent range; chunks whose
ranges lie far apart still add up to math.fsum's float."""
import math

import numpy as np
import pytest

from ekconst import fsum_array
from ekconst.accum import CHUNK, fixed_sum, round_fixed


@pytest.mark.parametrize("cancel", [True, False])
def test_chunks_from_subnormal_to_1e300(cancel):
    rng = np.random.default_rng(23)
    tiny = rng.integers(1, 2**52, 2 * CHUNK) * 5e-324     # subnormals
    big = rng.standard_normal(CHUNK) * 1e300
    # the first chunk ends 5 elements into the large values, and the last
    # one holds subnormals only
    arr = np.concatenate([tiny[:CHUNK - 5], big,
                          -big[::-1] if cancel else big / 3,
                          tiny[CHUNK - 5:]])
    total = fixed_sum(arr)
    assert total is not None
    want = math.fsum(arr.tolist()).hex()
    assert round_fixed(total).hex() == want
    assert fsum_array(arr).hex() == want
    if cancel:
        assert want == math.fsum(tiny.tolist()).hex()
