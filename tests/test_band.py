import numpy as np
import pytest

from xydopo.band import CosBand


@pytest.mark.parametrize("w_zero, s_zero", [(True, False), (False, True), (True, True),
                                            (False, False)],
                         ids=["w=0", "s=0", "both-0", "neither-0"])
def test_root_is_the_clipped_root_of_the_band_bit_for_bit(w_zero, s_zero):
    # root skips a w or s term that is exactly 0; that must not change a bit
    # of sqrt(max(q(cos k), 0)), negative q (clipped to 0) included
    rng = np.random.default_rng(29)
    k = np.linspace(0.0, np.pi, 257)
    for _ in range(50):
        u, v, w, s = rng.uniform(-3.0, 3.0, size=4) * (1.0, 1.0, 2.0, 4.0)
        band = CosBand(u, v, 0.0 if w_zero else w, 0.0 if s_zero else s)
        want = np.sqrt(np.maximum(band(np.cos(k)), 0.0))
        assert band.root(k).tobytes() == want.tobytes(), band
