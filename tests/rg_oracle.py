"""The shift-matrix recursion step by step, with every level coin rebuilt at every call: the tests' byte oracle.

absorbed_amplitude must give the same bytes as this plain form, every
PoleProximalError and its condition included: the same level angles, the
same sin and cos, the same inverse of each coin, and the same floating-point
operations in the same order on the four numbers (a, b, m_ab, m_ba) that
S^A = diag(a, 0), S^B = diag(0, b) and S^M = [[0, m_ab], [m_ba, 0]] hold.
"""

import cmath
import math

import numpy as np

from hierwalk.rgflow import COND_LIMIT, PoleProximalError
from hierwalk.walker import _as_spinor


def level_coin(field, k: int) -> tuple:
    """Level-k coin C(theta) = [[sin, cos], [cos, -sin]], row by row."""
    theta = field.level_angle(k)
    s, c = math.sin(theta), math.cos(theta)
    return s, c, c, -s


def resolvent(coin, m_ab: complex, m_ba: complex, cond_limit: float) -> tuple:
    """Entries (g00, g01, g10, g11) of G = (C^{-1} - S^M)^{-1}.

    `coin` holds C row by row as (c00, c01, c10, c11); S^M = [[0, m_ab], [m_ba, 0]].
    """
    c00, c01, c10, c11 = coin
    det = c00 * c11 - c01 * c10
    if det == 0:
        raise PoleProximalError("coin matrix is singular", float("inf"))
    inv = 1 / det
    m00, m01, m10, m11 = c11 * inv, -c01 * inv - m_ab, -c10 * inv - m_ba, c00 * inv
    det_m = m00 * m11 - m01 * m10
    if det_m == 0:
        raise PoleProximalError("resolvent is singular at this z", float("inf"))
    inv = 1 / det_m
    g00, g01, g10, g11 = m11 * inv, -m01 * inv, -m10 * inv, m00 * inv
    cond = (max(abs(m00) + abs(m10), abs(m01) + abs(m11))  # 1-norm of M times that of G
            * max(abs(g00) + abs(g10), abs(g01) + abs(g11)))
    if not math.isfinite(cond) or cond > cond_limit:
        raise PoleProximalError(
            f"resolvent condition {cond:.3e} exceeds {cond_limit:.1e}; pole-proximal z", cond
        )
    return g00, g01, g10, g11


def absorbed_amplitude(l, field, z, psi_ic, cond_limit=COND_LIMIT, coin=level_coin):
    """(right, left) wall 2-vectors; coin(field, k) gives the level-k coin, row by row."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if field.n_levels < l:
        raise ValueError(f"field with half_width {field.half_width} has no level {l - 1} coin")
    psi0, psi1 = (complex(v) for v in _as_spinor(psi_ic))
    a = b = complex(z)
    if not cmath.isfinite(a):
        raise ValueError(f"z must be finite, got {a}")
    m_ab = m_ba = 0j
    for k in range(l - 1):
        g00, g01, g10, g11 = resolvent(coin(field, k), m_ab, m_ba, cond_limit)
        a, b, m_ab, m_ba = a * g00 * a, b * g11 * b, m_ab + a * g01 * b, m_ba + b * g10 * a
    g00, g01, g10, g11 = resolvent(coin(field, l - 1), m_ab, m_ba, cond_limit)
    return (np.array([a * g00 * psi0 + a * g01 * psi1, 0j]),
            np.array([0j, b * g10 * psi0 + b * g11 * psi1]))
