"""The consistency suite's block draw names the same designs as a scalar loop."""

import numpy as np
import pytest

from sqznet import verify


def loop_draws(rng, m):
    """The consistency designs drawn one at a time: five uniforms per design."""
    rows = []
    for _ in range(m):
        o = verify.draw_opa(rng)
        rows.append((o.kappa_ic, o.kappa_oc, o.kappa_loss, o.g, rng.uniform(0.01, 0.99)))
    return np.array(rows).T


# 2500 spans more than two of the suite's blocks.
@pytest.mark.parametrize("m", [1, 999, 1000, 2500])
@pytest.mark.parametrize("seed", range(4))
def test_block_draw_is_the_scalar_loop_bit_for_bit(seed, m):
    block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    opa, eps2 = verify._draw_block(block_rng, m)
    got = np.array([opa.kappa_ic, opa.kappa_oc, opa.kappa_loss, opa.g, eps2])
    expected = loop_draws(loop_rng, m)
    assert got.shape == expected.shape == (5, m)
    assert got.tobytes() == expected.tobytes()
    # Both leave the stream at the same place.
    assert block_rng.random() == loop_rng.random()
