"""Kernel-level checks of the numeric helpers behind cross-polytope hashing.

The pseudo-rotation and the top-2 extraction are private helpers of
``ridematch.lshindex``; ``TestCpHash`` in ``test_lshindex.py`` checks them
again through the public ``CpHashFunction``.
"""

import numpy as np

from ridematch.lshindex import _rotate3, _top2_abs


def _signs(rng, d):
    return rng.integers(0, 2, size=(3, d)).astype(np.float64) * 2 - 1


def test_rotate3_is_orthogonal(rng):
    d = 64
    signs = _signs(rng, d)
    m = np.eye(d)
    _rotate3(m, signs)
    gram = m @ m.T
    assert np.max(np.abs(gram - np.eye(d))) < 1e-12


def test_rotate3_preserves_norm(rng):
    d = 128
    signs = _signs(rng, d)
    x = rng.normal(size=(10, d))
    norms = np.linalg.norm(x, axis=1)
    _rotate3(x, signs)
    assert np.allclose(np.linalg.norm(x, axis=1), norms, atol=1e-10)


def test_top2_tie_goes_to_lowest_index():
    y = np.array([[1.0, -1.0, 0.5]])
    c1, c2, m = _top2_abs(y)
    assert c1[0] == 0  # index 0, positive
    assert c2[0] == 3  # index 1, negative
    assert m[0] == 0.0
