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

Only S^M depends on z, so each C_k^{-1} is computed once per field: a table
of 7 numbers per level (C_k^{-1}, the product and the moduli of its
diagonal) built at the field's first call and kept on the field object,
freed with it. A call then runs its l resolvents in one loop over that
table: in the compiled library (ckernel's rg_absorbed, in a port of
CPython's complex arithmetic), one ctypes call per z, or in Python where
the library cannot be had. On both, every amplitude, every
PoleProximalError and its condition keep the bits of the plain
step-by-step recursion. Both return the two wall 2-vectors as views of one
8-double buffer (_wall_vectors). The 720 calls of an rg_crosscheck
repetition (40 z per field, l = 4, 8 and 12) took 2.9-3.1 ms compiled
(medians of 41 repetitions, 2-core Intel Xeon), against 3.6 ms where each
call built two 2-vectors and checked l against numbers.Integral, and
8.4-8.7 ms in the Python loop before the compiled one. That is some 3.9 us
a call at l = 8 (timeit), against 5.0: the ctypes call itself 0.65 us, the
spinor check 0.5 us, the buffer and its two views 0.8 us, and the rest
Python's calls and attribute reads. The Python loop itself took 7.8-8.2 ms.
"""

from __future__ import annotations

import cmath
import math
from array import array

import numpy as np

from .coins import CoinField, _integer
from .walker import _as_spinor, _load_kernel

COND_LIMIT = 1e12


class PoleProximalError(ArithmeticError):
    """Resolvent at this z is singular or too ill-conditioned to trust."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


def _inverse_entries(c00, c01, c10, c11) -> tuple | None:
    """C^{-1} = [[m00, q01], [q10, m11]] of the coin C = [[c00, c01], [c10, c11]], None if C is singular.

    Returned as (m00, q01, q10, m11, m00 * m11, |m00|, |m11|): what the
    recursion reads of C at every z, computed once.
    """
    det = c00 * c11 - c01 * c10
    if det == 0:
        return None
    inv = 1 / det
    m00, m11 = c11 * inv, c00 * inv
    return m00, -c01 * inv, -c10 * inv, m11, m00 * m11, abs(m00), abs(m11)


class _LevelTable:
    """The level coins' _inverse_entries (None for a singular coin), in two forms.

    `entries` is the tuple the Python loop reads. The compiled recursion
    reads `packed` at `address`: the levels before the first singular coin,
    one row each of their seven entries as complex128, a float as x + 0j,
    as CPython promotes it. `singular` is that coin's level, or the level
    count where there is none.
    """

    __slots__ = ("entries", "singular", "packed", "address")

    def __init__(self, entries):
        self.entries = tuple(entries)
        self.singular = next((k for k, e in enumerate(self.entries) if e is None), len(self.entries))
        self.packed = np.array(self.entries[:self.singular], dtype=complex).reshape(-1, 7)
        self.address = self.packed.ctypes.data


def _level_inverses(field: CoinField) -> _LevelTable:
    """The _LevelTable of the level coins C_k = [[sin, cos], [cos, -sin]] of field, k = 0..n_levels-1.

    Built at the field's first call and kept as an attribute of the field
    object, so it lives and dies with it. It is never looked up by id() or
    by the field's values: a new field at a dropped field's address, or an
    equal field, builds its own.
    """
    table = getattr(field, "_level_inverses", None)
    if table is None:
        entries = []
        for k in range(field.n_levels):
            theta = field.level_angle(k)
            s, c = math.sin(theta), math.cos(theta)
            entries.append(_inverse_entries(s, c, c, -s))
        table = field._level_inverses = _LevelTable(entries)
    return table


def _load_recursion():
    """The library's compiled recursion, rg_absorbed, or None where the library cannot be had."""
    kernel = _load_kernel()
    return None if kernel is None else kernel.recursion


def _refusal(status: int, condition: float, cond_limit) -> Exception:
    """What the Python loop raises where rg_absorbed returns status.

    1: a singular coin, 2: a singular resolvent, 3: a condition above
    cond_limit, or not finite, 4: a modulus too large for a float.
    """
    if status == 1:
        return PoleProximalError("coin matrix is singular", math.inf)
    if status == 2:
        return PoleProximalError("resolvent is singular at this z", math.inf)
    if status == 3:
        return _condition_error(condition, cond_limit)
    return OverflowError("absolute value too large")


def _condition_error(cond: float, cond_limit) -> PoleProximalError:
    return PoleProximalError(
        f"resolvent condition {cond:.3e} exceeds {cond_limit:.1e}; pole-proximal z", cond
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
    amplitudes of the absorbing-wall walk on the same field. A non-integer
    l and a non-finite z are refused with ValueError.

    The loop runs in the compiled library (ckernel's rg_absorbed) where it
    loads, else in Python below; both give the same bits.
    """
    l = _integer("l", l)
    if l < 1:
        raise ValueError("l must be >= 1")
    if field.n_levels < l:
        raise ValueError(
            f"field with half_width {field.half_width} has no level {l - 1} coin"
        )
    psi0, psi1 = _as_spinor(psi_ic).tolist()
    a = b = complex(z)
    if not cmath.isfinite(a):  # a NaN or infinite z supports no claim about the resolvent
        raise ValueError(f"z must be finite, got {a}")
    table = _level_inverses(field)
    recursion = _load_recursion()
    if recursion is not None:
        io = array("d", (a.real, a.imag, psi0.real, psi0.imag, psi1.real, psi1.imag, cond_limit, 0.0))
        status = recursion(l, table.address, table.singular, io.buffer_info()[0])
        if status:
            raise _refusal(status, io[0], cond_limit)
        return _wall_vectors(io)
    levels = table.entries
    m_ab = m_ba = 0j
    last = l - 1
    for k in range(l):
        # G = (C_k^{-1} - S^M)^{-1} with C_k^{-1} = [[m00, q01], [q10, m11]], S^M = [[0, m_ab], [m_ba, 0]]
        entries = levels[k]
        if entries is None:
            raise PoleProximalError("coin matrix is singular", math.inf)
        m00, q01, q10, m11, m00_m11, abs_m00, abs_m11 = entries
        m01, m10 = q01 - m_ab, q10 - m_ba
        det_m = m00_m11 - m01 * m10
        if det_m == 0:
            raise PoleProximalError("resolvent is singular at this z", math.inf)
        inv = 1 / det_m
        g00, g01, g10, g11 = m11 * inv, -m01 * inv, -m10 * inv, m00 * inv
        # the 1-norm of C_k^{-1} - S^M times that of G; y if y > x else x is max(x, y)
        x, y = abs_m00 + abs(m10), abs(m01) + abs_m11
        p, q = abs(g00) + abs(g10), abs(g01) + abs(g11)
        cond = (y if y > x else x) * (q if q > p else p)
        if not math.isfinite(cond) or cond > cond_limit:
            raise _condition_error(cond, cond_limit)
        if k == last:
            break
        a, b, m_ab, m_ba = a * g00 * a, b * g11 * b, m_ab + a * g01 * b, m_ba + b * g10 * a
    right, left = a * g00 * psi0 + a * g01 * psi1, b * g10 * psi0 + b * g11 * psi1
    return _wall_vectors(array("d", (right.real, right.imag, 0.0, 0.0, 0.0, 0.0, left.real, left.imag)))


def _wall_vectors(io: array) -> tuple[np.ndarray, np.ndarray]:
    """The right wall's (up, 0) and the left wall's (0, down): the rows of io's 2x2 complex array.

    Both are views of io, which the call made for them alone: one numpy call
    where building the two 2-vectors took two and four item conversions.
    """
    out = np.frombuffer(io, dtype=complex)
    return out[:2], out[2:]
