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

Resolvent poles sit on the unit circle in z; near-singular resolvents are
flagged, never regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import CoinField
from .walker import _as_spinor

COND_LIMIT = 1e12


class PoleProximalError(ArithmeticError):
    """Resolvent at this z is singular or too ill-conditioned to trust."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class RGTriple:
    """Renormalized shift matrices (S^A, S^B, S^M) after k decimation steps at fixed z.

    max_condition tracks the worst resolvent conditioning met along the flow;
    nan before the first step.
    """

    k: int
    z: complex
    SA: np.ndarray
    SB: np.ndarray
    SM: np.ndarray
    max_condition: float = float("nan")


def rg_init(z: complex) -> RGTriple:
    """Bare triple at k = 0: z times the two shift projectors, no return term."""
    z = complex(z)
    return RGTriple(
        k=0,
        z=z,
        SA=np.array([[z, 0.0], [0.0, 0.0]], dtype=complex),
        SB=np.array([[0.0, 0.0], [0.0, z]], dtype=complex),
        SM=np.zeros((2, 2), dtype=complex),
    )


def _adjugate2(m: np.ndarray) -> tuple[np.ndarray, complex]:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)
    return adj, complex(det)


def _norm1(m: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(m), axis=0)))


def _resolvent(coin: np.ndarray, SM: np.ndarray, cond_limit: float) -> tuple[np.ndarray, float]:
    adj, det = _adjugate2(coin)
    if det == 0:
        raise PoleProximalError("coin matrix is singular", float("inf"))
    m = adj / det - SM
    adj_m, det_m = _adjugate2(m)
    if det_m == 0:
        raise PoleProximalError("resolvent is singular at this z", float("inf"))
    g = adj_m / det_m
    cond = _norm1(m) * _norm1(g)
    if not np.isfinite(cond) or cond > cond_limit:
        raise PoleProximalError(
            f"resolvent condition {cond:.3e} exceeds {cond_limit:.1e}; pole-proximal z", cond
        )
    return g, cond


def rg_step(state: RGTriple, coin: np.ndarray, cond_limit: float = COND_LIMIT) -> RGTriple:
    """Eliminate one hierarchy level; `coin` is the level-k coin C_k."""
    coin = np.asarray(coin, dtype=complex)
    if coin.shape != (2, 2):
        raise ValueError("coin must be a 2x2 matrix")
    g, cond = _resolvent(coin, state.SM, cond_limit)
    sa, sb, sm = state.SA, state.SB, state.SM
    prev = state.max_condition
    worst = cond if np.isnan(prev) else max(prev, cond)
    return RGTriple(
        k=state.k + 1,
        z=state.z,
        SA=sa @ g @ sa,
        SB=sb @ g @ sb,
        SM=sm + sa @ g @ sb + sb @ g @ sa,
        max_condition=worst,
    )


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
    amplitudes of the absorbing-wall walk on the same field.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if field.n_levels < l:
        raise ValueError(
            f"field with half_width {field.half_width} has no level {l - 1} coin"
        )
    psi = _as_spinor(psi_ic)
    state = rg_init(z)
    for k in range(l - 1):
        state = rg_step(state, field.level_coin(k), cond_limit)
    g, _ = _resolvent(field.level_coin(l - 1), state.SM, cond_limit)
    return state.SA @ g @ psi, state.SB @ g @ psi
