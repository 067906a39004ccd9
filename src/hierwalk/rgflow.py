"""Renormalized shift-matrix recursion in the complex-z plane of generating functions.

Working with site generating functions psi_bar(z) = sum_t psi_t z^t, decimating
one hierarchy level at a time leaves the hopping structure self-similar. The
state of the recursion is a triple of 2x2 matrices (S^A, S^B, S^M): renormalized
right-hop, left-hop, and return operators after k decimations. One step reads

    G       = (C_k^{-1} - S_k^M)^{-1}
    S_{k+1}^A = S_k^A G S_k^A
    S_{k+1}^B = S_k^B G S_k^B
    S_{k+1}^M = S_k^M + S_k^A G S_k^B + S_k^B G S_k^A

where C_k is the level-k coin (barrier factor and any random level draw
included). Starting from the bare shifts S_0^A = z diag(1,0), S_0^B = z
diag(0,1), S_0^M = 0, the triple after l-1 steps gives the wall-absorption
amplitudes of a walk between fully absorbing walls at 0 and 2^l started midway.
As S^A and S^B each project onto one mover, a step keeps the form S^A = diag(a, 0),
S^B = diag(0, b), S^M = [[0, m_ab], [m_ba, 0]], so these four numbers are the state.

Resolvent poles sit on the unit circle in z; near-singular resolvents are
flagged, never regularized.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .coins import CoinField
from .walker import _as_spinor

COND_LIMIT = 1e12


class PoleProximalError(ArithmeticError):
    """Resolvent at this z is singular or too ill-conditioned to trust."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


def _level_coin(field: CoinField, k: int) -> tuple:
    """Level-k coin C(theta) = [[sin, cos], [cos, -sin]], row by row."""
    theta = field.level_angle(k)
    s, c = math.sin(theta), math.cos(theta)
    return s, c, c, -s


def _resolvent(coin, m_ab: complex, m_ba: complex, cond_limit: float) -> tuple:
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


def absorbed_amplitude(
    l: int,
    field: CoinField,
    z: complex,
    psi_ic,
    cond_limit: float = COND_LIMIT,
) -> tuple[np.ndarray, np.ndarray]:
    """Wall-absorption amplitude 2-vectors (right wall x = 2^l, left wall x = 0).

    Runs l-1 recursion steps through the field's level coins C_0..C_{l-2}, then
    applies the closing resolvent with C_{l-1}:

        psi_bar_wall = S_{l-1}^{A or B} (C_{l-1}^{-1} - S_{l-1}^M)^{-1} psi_ic

    with S^A feeding the right wall (right-movers arrive there) and S^B the
    left. The result equals the generating function of the per-step arrival
    amplitudes of the absorbing-wall walk on the same field. A non-finite z
    is refused with ValueError.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if field.n_levels < l:
        raise ValueError(
            f"field with half_width {field.half_width} has no level {l - 1} coin"
        )
    psi0, psi1 = (complex(v) for v in _as_spinor(psi_ic))
    a = b = complex(z)
    if not cmath.isfinite(a):  # a NaN or infinite z supports no claim about the resolvent
        raise ValueError(f"z must be finite, got {a}")
    m_ab = m_ba = 0j
    for k in range(l - 1):
        g00, g01, g10, g11 = _resolvent(_level_coin(field, k), m_ab, m_ba, cond_limit)
        a, b, m_ab, m_ba = a * g00 * a, b * g11 * b, m_ab + a * g01 * b, m_ba + b * g10 * a
    g00, g01, g10, g11 = _resolvent(_level_coin(field, l - 1), m_ab, m_ba, cond_limit)
    return (np.array([a * g00 * psi0 + a * g01 * psi1, 0j]),  # right wall: up only
            np.array([0j, b * g10 * psi0 + b * g11 * psi1]))  # left wall: down only
