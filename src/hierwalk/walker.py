"""Unitary evolution of the two-component wave function on the line.

A step applies the site coin to each (right-mover, left-mover) pair and then
shifts the upper component one site right and the lower one site left. States
started from the origin are supported on a single parity class (x + t even),
so amplitudes are stored compactly along the light cone: at time t the two
components live on sites x = -t + 2q for q = 0..t. One step costs O(t)
amplitude updates, a full run O(t_max^2).

The closed-line evolution never renormalizes: norm drift is a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coins import CoinField
from .observables import SigmaSeries, sigma

DEFAULT_IC = np.array([1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)])
DEFAULT_IC.setflags(write=False)


def _as_spinor(psi_ic) -> np.ndarray:
    psi = np.asarray(psi_ic, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("initial spinor must have exactly two components")
    norm = abs(psi[0]) ** 2 + abs(psi[1]) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial spinor must be normalized, got |psi|^2 = {norm}")
    return psi


@dataclass
class WaveState:
    """Light-cone amplitudes at integer time t.

    up[q] and down[q] are the right- and left-mover amplitudes at site
    x = -t + 2q. Sites of the other parity class, and sites with |x| > t,
    are exactly zero.
    """

    t: int
    up: np.ndarray
    down: np.ndarray

    def occupied_sites(self) -> np.ndarray:
        return -self.t + 2 * np.arange(self.t + 1)

    def density(self) -> np.ndarray:
        """|psi|^2 on occupied_sites()."""
        return np.abs(self.up) ** 2 + np.abs(self.down) ** 2

    def norm(self) -> float:
        return float(np.sum(self.density()))

    def spinor_at(self, x: int) -> tuple[complex, complex]:
        """(up, down) amplitude at an arbitrary site; zero outside the support."""
        q, rem = divmod(x + self.t, 2)
        if rem or not 0 <= q <= self.t:
            return 0j, 0j
        return complex(self.up[q]), complex(self.down[q])


def _coin(s, co, u, d, cu, cd, tmp) -> None:
    """(cu, cd) = [[s, co], [co, -s]] (u, d) site by site, into preallocated buffers."""
    np.multiply(s, u, out=cu)
    np.multiply(co, d, out=tmp)
    np.add(cu, tmp, out=cu)
    np.multiply(co, u, out=cd)
    np.multiply(s, d, out=tmp)
    np.subtract(cd, tmp, out=cd)


def default_sample_times(t_max: int) -> tuple[int, ...]:
    """Geometric sample grid: powers of two and their midpoints 3*2^(k-1)."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    times = set()
    k = 1
    while k <= t_max:
        times.add(k)
        mid = 3 * k // 2
        if k > 1 and mid <= t_max:
            times.add(mid)
        k *= 2
    return tuple(sorted(times))


def _check_horizon(field: CoinField, t_max: int, t_min: int) -> None:
    if t_max < t_min:
        raise ValueError(f"t_max must be >= {t_min}")
    if t_max > field.half_width:
        raise ValueError(f"t_max {t_max} exceeds the lattice half_width {field.half_width}")


def _iterate(field: CoinField, psi: np.ndarray, t_max: int):
    """Yield the WaveState after each of t_max steps from the origin.

    The yielded arrays are views into buffers that the next step overwrites.
    """
    n = t_max + 1
    up = np.zeros(n, dtype=complex)
    down = np.zeros(n, dtype=complex)
    up[0], down[0] = psi[0], psi[1]
    cu = np.empty(n, dtype=complex)
    cd = np.empty(n, dtype=complex)
    tmp = np.empty(n, dtype=complex)
    for t in range(1, t_max + 1):
        c = t - 1  # the cone before this step holds t sites
        s, co = field.trig_slice(c)
        _coin(s, co, up[:t], down[:t], cu[:t], cd[:t], tmp[:t])
        if c % 2 == 0:  # origin occupied only on even cones; its coin is the identity
            q0 = c // 2
            cu[q0] = up[q0]
            cd[q0] = down[q0]
        up[1:t + 1] = cu[:t]
        up[0] = 0.0
        down[:t] = cd[:t]
        down[t] = 0.0
        yield WaveState(t, up[:t + 1], down[:t + 1])


def _validated_sample_times(sample_times, t_max: int) -> np.ndarray:
    ts = np.asarray(sample_times, dtype=np.int64)
    if ts.size == 0:
        raise ValueError("sample_times must not be empty")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if ts[0] < 1 or ts[-1] > t_max:
        raise ValueError(f"sample_times must lie in [1, {t_max}]")
    return ts


def evolve(field: CoinField, psi_ic, t_max: int, sample_times=None) -> SigmaSeries:
    """Run t_max steps from a localized start, recording sigma(t) at the sample times."""
    psi = _as_spinor(psi_ic)
    _check_horizon(field, t_max, 1)
    if sample_times is None:
        sample_times = default_sample_times(t_max)
    ts = _validated_sample_times(sample_times, t_max)
    slot = {int(t): k for k, t in enumerate(ts)}
    sigmas = np.empty(ts.size)
    for state in _iterate(field, psi, t_max):
        k = slot.get(state.t)
        if k is not None:
            sigmas[k] = sigma(state)
    return SigmaSeries(
        t=ts,
        sigma=sigmas,
        epsilon=field.epsilon,
        W=field.disorder.W,
        model=field.disorder.model,
        seed=field.disorder.seed,
    )


def evolve_state(field: CoinField, psi_ic, t_max: int) -> WaveState:
    """Run t_max >= 0 steps from the origin and return the final state (no sampling)."""
    psi = _as_spinor(psi_ic)
    _check_horizon(field, t_max, 0)
    state = WaveState(t=0, up=psi[:1].copy(), down=psi[1:].copy())
    for state in _iterate(field, psi, t_max):
        pass
    return state  # the exhausted generator no longer writes to its buffers


@dataclass(frozen=True)
class AbsorptionRecord:
    """Arrival spinors at the two absorbing walls, indexed by arrival time 1..t_max.

    right[t-1] is the spinor absorbed at x = 2^l at time t (only its up
    component can be nonzero: right-movers arrive from the left); left[t-1]
    is absorbed at x = 0 (only its down component can be nonzero).
    """

    l: int
    right: np.ndarray
    left: np.ndarray

    def times(self) -> np.ndarray:
        return np.arange(1, self.right.shape[0] + 1)

    def cumulative_absorbed(self) -> np.ndarray:
        """Total probability absorbed by each time; nondecreasing and <= 1."""
        per_t = np.sum(np.abs(self.right) ** 2 + np.abs(self.left) ** 2, axis=1)
        return np.cumsum(per_t)

    def generating_function(self, z: complex) -> tuple[np.ndarray, np.ndarray]:
        """(right, left) wall 2-vectors sum_t psi_t z^t, truncated at the recorded horizon."""
        right = np.zeros(2, dtype=complex)
        left = np.zeros(2, dtype=complex)
        for rt, lt in zip(self.right[::-1], self.left[::-1]):  # Horner in z
            right = (right + rt) * z
            left = (left + lt) * z
        return right, left


def evolve_absorbing(field: CoinField, l: int, psi_ic, t_max: int) -> AbsorptionRecord:
    """Walk between fully absorbing walls at x = 0 and x = 2^l, started at x = 2^(l-1).

    Amplitude arriving at a wall is recorded for that time step and removed, so
    nothing ever reflects back out of the wall sites. The coin update is the
    light-cone walk's; only the shift differs, between fixed walls.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    span = 1 << l
    if span - 1 > field.half_width:
        raise ValueError(
            f"wall separation 2^{l} needs interior sites up to {span - 1}, "
            f"beyond half_width {field.half_width}"
        )
    psi = _as_spinor(psi_ic)
    theta = np.array([field.angle(x) for x in range(1, span)])
    s = np.sin(theta)
    co = np.cos(theta)
    up = np.zeros(span + 1, dtype=complex)
    down = np.zeros(span + 1, dtype=complex)
    up[span // 2] = psi[0]
    down[span // 2] = psi[1]
    cu = np.empty(span - 1, dtype=complex)
    cd = np.empty(span - 1, dtype=complex)
    tmp = np.empty(span - 1, dtype=complex)
    right = np.zeros((t_max, 2), dtype=complex)
    left = np.zeros((t_max, 2), dtype=complex)
    for t in range(t_max):
        _coin(s, co, up[1:span], down[1:span], cu, cd, tmp)
        up[2:] = cu
        up[1] = 0.0
        down[:span - 1] = cd
        down[span - 1] = 0.0
        right[t, 0] = up[span]
        up[span] = 0.0
        left[t, 1] = down[0]
        down[0] = 0.0
    return AbsorptionRecord(l=l, right=right, left=left)
