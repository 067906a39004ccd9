"""Unitary evolution of the two-component wave function on the line.

A step applies the site coin to each (right-mover, left-mover) pair and then
shifts the upper component one site right and the lower one site left. States
started from the origin are supported on a single parity class (x + t even),
so amplitudes are stored compactly along the light cone: at time t the two
components live on sites x = -t + 2q for q = 0..t. Every coin is real, so the
light-cone walk steps real arrays: one walk and its mirror image on a
mirror-symmetric field with the default spinor, one walk for a purely real
or purely imaginary spinor, two walks (Re psi, Im psi) otherwise. A step
updates only the window of the cone outside which every amplitude is below
the trim threshold tau = 1e-30, recomputed at every cone 0 mod 4, so it
costs the window's width: at most t, and about O(xi) in a cell localized on
a length xi.

The time loop runs in C (module ckernel), compiled with the system C
compiler at the first light-cone walk and cached under
${XDG_CACHE_HOME:-~/.cache}/hierwalk/. From each rescan it steps four
cones in one pass through a small ring of tiles, so a wide window crosses
memory once per four steps; it runs only such whole passes. Every other
cone, before the first rescan cone a call reaches or after its last
whole pass, takes the numpy loop's single step (_numpy_steps): on the
default sample grid cones 0 to 7. Where no library can be built or
loaded, _numpy_steps steps every cone, bit for bit; it is only slower.
Every step of either loop leaves the state in place, so a walk holds one
pair of buffers.
light_cone_kernel() says which one a process runs, light_cone_isa() which
clone of the C loop's span functions the CPU runs, and every sweep's
manifest.json records both. A walk takes its trig tables' and buffers'
addresses for the C loop once, not at every sample time, and checks once
whether each parity table holds one coin at every slot but the start
site's (bits compared, not values); the C loop then reads that coin instead
of the table, and runs its span loops in AVX-512F or AVX2 clones where the
CPU has them (see ckernel). evolve_absorbing's walks skip the check: their
sink coins never make a table one coin. The bytes are the same on every
path.

evolve_absorbing runs on the same loop, untrimmed, as one light-cone walk
with sink coins past the walls (see its docstring): parts * t_max^2 / 2
updates, against (2^l - 1) t_max for stepping the box alone. Compiled, on a
2-core Intel Xeon, that took 0.0016 s against 0.0055 s at l = 3,
t_max = 1024 and 0.037 s against 0.21 s at l = 12, t_max = 4096, but
0.32 s against 0.13 s at l = 3, t_max = 16384, longer than any walk run.

evolve builds no complex state: it sums sigma's moments from the real walks
over the window, with one helper whatever the loop, so both loops give the
same sigma bytes. Its summation order is not observables.sigma's over a
WaveState, so the two differ in the last bits (3.7e-16 relative at most on
the walks checked). evolve_state builds the complex WaveState.

The trim is certified. Every rescan adds the 2-norm of the psi it drops to
B (WaveState.trim_bound). The walk is unitary, so in exact arithmetic the
trimmed state is within B of the untrimmed one in 2-norm, and sigma^2 within
6 B t^2. B stays below 3e-26 up to t = 2^16 on the fields checked, so sigma^2
moves by less than 1e-15 there; tau = 1e-20 would let B reach 2.5e-16, the
rounding of a single step. In floating point, exact zeros stay exact and the
walk is bit for bit the untrimmed one until the first nonzero amplitude is
dropped; after that, rounding flips cascade, and sigma moves in its last bits
(up to 3.1e-15 relative against the subnormal trim over 22 walks up to 2^16).
Rescanning at every fourth cone instead of every second keeps up to two
more slots at each edge between rescans: sigma moved by up to 2.1e-14
relative and B fell to 0.50-0.70 of its value on the walks checked, from
2^13 to 2^16.

The closed-line evolution never renormalizes: norm drift is a diagnostic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .coins import CoinField, _integer
from .observables import SigmaSeries, _integer_times

DEFAULT_IC = np.array([1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)])
DEFAULT_IC.setflags(write=False)


def _as_spinor(psi_ic) -> np.ndarray:
    """psi_ic as a complex array, refused unless it is two finite entries of unit norm."""
    psi = np.asarray(psi_ic, dtype=complex)
    if psi.shape != (2,):
        raise ValueError("initial spinor must have exactly two components")
    # checked as Python complex numbers: a quarter of the cost of numpy's calls on two entries
    a, b = entries = psi.tolist()
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ValueError(f"initial spinor must be finite, got {entries}")
    norm = abs(a) ** 2 + abs(b) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"initial spinor must be normalized, got |psi|^2 = {norm}")
    return psi


@dataclass
class WaveState:
    """Light-cone amplitudes at integer time t.

    up[q] and down[q] are the right- and left-mover amplitudes at site
    x = -t + 2q. Sites of the other parity class, and sites with |x| > t,
    are exactly zero. trim_bound is the certificate B of the window trim
    (see _iterate): the state is within B, in 2-norm, of the untrimmed walk's.
    """

    t: int
    up: np.ndarray
    down: np.ndarray
    trim_bound: float = 0.0

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
    _integer("t_max", t_max)
    if t_max < t_min:
        raise ValueError(f"t_max must be >= {t_min}")
    if t_max > field.half_width:
        raise ValueError(f"t_max {t_max} exceeds the lattice half_width {field.half_width}")


_RESCAN_PERIOD = 4  # the window is recomputed at cones 0 mod this; ckernel's passes are this many cones
_TINY = 1e-30  # tau: a rescan drops edge slots whose every amplitude is below it


@cache
def _ckernel():
    """The module ckernel, imported at the first call, so that `import hierwalk` neither pays for
    its imports nor builds or loads anything. Kept: a relative import costs 0.5 us a call, which
    rgflow would pay per z."""
    from . import ckernel

    return ckernel


def _load_kernel():
    """ckernel's compiled library, its time loop, or None where it cannot be built."""
    return _ckernel().load()


def light_cone_kernel() -> str:
    """Which loop steps light-cone walks in this process: "compiled" or "numpy"."""
    return "numpy" if _load_kernel() is None else "compiled"


def light_cone_isa() -> str | None:
    """The clone of the compiled loop's span functions this CPU runs: "avx512f", "avx2" or "baseline".

    None where walks run in the numpy loop.
    """
    kernel = _load_kernel()
    return None if kernel is None else kernel.isa


def _real_walks(psi: np.ndarray, symmetric: bool) -> tuple[bool, tuple]:
    """(mirror, parts): whether one walk and its mirror image carry psi on symmetric coins, and which parts walk."""
    a, b = psi.tolist()  # read as Python complex numbers: a quarter of the cost of numpy's calls
    mirror = bool(symmetric and a.imag == b.real and b.imag == a.real)
    parts = ("real",) if mirror else tuple(p for p in ("real", "imag") if getattr(a, p) or getattr(b, p))
    return mirror, parts


def _windows(trig_slice, psi: np.ndarray, times, mirror: bool, parts, origin: bool = True,
             tiny: float | None = None):
    """Yield (t, up, down, lo, hi, B) at each of the increasing times, stepping from the origin.

    trig_slice(c) gives cone c's coins as CoinField.trig_slice does; with
    origin the start site's coin is the identity instead. Every coin is
    real, so Re psi and Im psi evolve as two independent real walks, stepped
    together as the rows of (rows, n) buffers: up and down are those
    buffers, slot q of each row at site x = -t + 2q, and every amplitude
    outside the window [lo, hi) is zero. They are overwritten by the next
    step, so a consumer reads them before it asks for the next time. A part
    of psi that is zero walks as zeros, so it is not stepped. On a
    mirror-symmetric field a spinor with Im psi = swap(Re psi) needs one
    walk a, from Re psi: the walk from Im psi is its mirror image b, with
    b(x) = (a_down(0), a_up(0)) at the origin and elsewhere, at x = -t + 2q,

        b_up[q] = (-1)^(t+1) sgn(x) a_down[t-q],  b_down[q] = (-1)^t sgn(x) a_up[t-q].

    Only the window is updated: at every cone 0 mod _RESCAN_PERIOD, counted
    from the start whatever the times, it shrinks past the edge slots where
    every component of psi is below tiny (tau: _TINY, read at the call,
    unless given; 0 keeps every slot), those slots are zeroed, and the
    2-norm of the psi they held is added to the certificate B. A mirror walk
    counts its mirror image's share too. A zero spinor stays zero under the
    coin, so exact zeros never move. The squares of dropped parts below
    sqrt(DBL_MIN) underflow, so B may miss up to sqrt(count * DBL_MIN), some
    1e-151 for any count of parts a walk can drop: nothing next to rounding.
    ckernel's loop and _numpy_steps agree bit for bit.
    """
    n = times[-1] + 1
    # the walk's state: every step leaves it in these two buffers
    up, down = np.zeros((len(parts), n)), np.zeros((len(parts), n))
    for row, part in enumerate(parts):
        up[row, 0], down[row, 0] = getattr(psi, part)
    window = np.array([0, 1], dtype=np.int64)
    dropped = np.zeros(1)
    walk = (trig_slice, up, down, window, dropped, mirror, origin, _TINY if tiny is None else tiny)
    kernel = _load_kernel()
    steps = partial(_numpy_steps, *walk) if kernel is None else _compiled_steps(kernel, *walk)
    t = 0
    for due in times:
        due = int(due)
        steps(t, due)
        t = due
        yield t, up, down, int(window[0]), int(window[1]), float(dropped[0])


def _iterate(field: CoinField, psi: np.ndarray, times):
    """Yield the WaveState at each of the increasing times, stepping from the origin (see _windows)."""
    mirror, parts = _real_walks(psi, field.mirror_symmetric)
    for t, up, down, _, _, bound in _windows(field.trig_slice, psi, times, mirror, parts):
        yield _wave_state(t, up[:, :t + 1], down[:, :t + 1], mirror, parts, bound)


def _window_sigma(t: int, up: np.ndarray, down: np.ndarray, lo: int, hi: int, mirror: bool) -> float:
    """sigma of the state whose real walks are the rows of up and down, from their window [lo, hi).

    rho = sum over rows of up^2 + down^2 is psi's density at x = -t + 2q. A
    mirror walk's rho is A(x) + A(-x), with A the walk's own, so sum x rho
    is 0 and sum x^2 rho is 2 sum x^2 A. Like observables.sigma,
    sigma^2 = sum x^2 rho - (sum x rho)^2, unnormalized.
    """
    w = np.s_[:, lo:hi]
    sq = up[w] * up[w]
    sq += down[w] * down[w]
    rho = sq[0] if len(sq) == 1 else sq[0] + sq[1]
    x = np.arange(2 * lo - t, 2 * hi - t, 2, dtype=float)
    second = float((x * x) @ rho)
    if mirror:
        return math.sqrt(2.0 * second)
    mean = float(x @ rho)
    return math.sqrt(max(second - mean * mean, 0.0))


def _numpy_steps(trig_slice, up: np.ndarray, down: np.ndarray, window: np.ndarray, dropped: np.ndarray,
                 mirror: bool, origin: bool, tiny: float, t0: int, t1: int) -> None:
    """Step the walks in up and down from time t0 to t1 in numpy, in place, updating window and dropped."""
    # one walk is stepped as 1-d views: numpy's calls on (1, w) arrays cost more
    up, down = (b[0] if len(b) == 1 else b for b in (up, down))
    lo, hi = (int(v) for v in window)
    su, cd, cu = np.empty((3, *up.shape))  # the products s u, co d and co u of a step; s d is formed in down
    for t in range(t0 + 1, t1 + 1):
        c = t - 1  # the cone before this step holds t sites
        if tiny and c % _RESCAN_PERIOD == 0:  # never empty: the state keeps its unit norm
            keep = (np.abs(up[..., lo:hi]) >= tiny) | (np.abs(down[..., lo:hi]) >= tiny)
            keep = keep.reshape(-1, hi - lo).any(axis=0)
            if mirror:  # the window is mirror-symmetric: lo = c - (hi - 1)
                keep |= keep[::-1]
            nz = np.flatnonzero(keep)
            new_lo, new_hi = lo + int(nz[0]), lo + int(nz[-1]) + 1
            if new_lo > lo or new_hi < hi:  # ckernel's trim order; cumsum adds in sequence
                cut = np.concatenate([a[..., e] for a in (up, down)
                                      for e in (np.s_[lo:new_lo], np.s_[new_hi:hi])], axis=-1)
                sq = float(np.cumsum(cut * cut)[-1])
                dropped[0] += math.sqrt(2.0 * sq if mirror else sq)
            for buf in (up, down):
                buf[..., lo:new_lo] = 0.0
                buf[..., new_hi:hi] = 0.0
            lo, hi = new_lo, new_hi
        # (up, down) = [[s, co], [co, -s]] (u, d) site by site, up shifted one slot right
        s, co = (a[lo:hi] for a in trig_slice(c))
        w = np.s_[..., lo:hi]
        u, d = up[w], down[w]
        q0 = c // 2  # the origin's slot on even cones; with origin, its coin is the identity
        identity = origin and c % 2 == 0 and lo <= q0 < hi
        if identity:
            start = up[..., q0].copy(), down[..., q0].copy()
        np.multiply(s, u, out=su[w])
        np.multiply(co, d, out=cd[w])
        np.multiply(co, u, out=cu[w])
        np.multiply(s, d, out=d)
        np.subtract(cu[w], d, out=d)
        np.add(su[w], cd[w], out=up[..., lo + 1:hi + 1])
        if identity:
            up[..., q0 + 1], down[..., q0] = start
        up[..., lo] = 0.0  # down[..., hi] is +0.0, beyond the window
        hi += 1  # up moved one slot right; the cone gained one slot
    window[:] = lo, hi


def _compiled_steps(kernel, trig_slice, up: np.ndarray, down: np.ndarray, window: np.ndarray,
                    dropped: np.ndarray, mirror: bool, origin: bool, tiny: float):
    """The stepper of one walk through ckernel's lightcone_steps: steps(t0, t1) acts as _numpy_steps.

    The library runs only whole four-cone passes from rescan cones, so
    steps splits [t0, t1) in three: _numpy_steps up to the first cone 0 mod
    _RESCAN_PERIOD, the library over the whole passes from there, and
    _numpy_steps over the cones left. All three step the same buffers,
    window and B in place. The tables' and buffers' addresses are taken
    once per walk, with ckernel.address.
    """
    rows, n = up.shape
    address = _ckernel().address
    # sin and cos of the cones of either parity, and the one coin of each, if it has one
    tables = [np.ascontiguousarray(a, dtype=float)
              for a in (*trig_slice(n - 1), *trig_slice(n - 2))]
    # only evolve_absorbing's walks lack the origin; their sinks, s = +1 and -1, never make one coin
    coins = [_one_coin(*tables[i:i + 2], cone) if origin else None for i, cone in ((0, n - 1), (2, n - 2))]
    fixed = (address(up), address(down), rows, n, mirror, origin, *map(address, tables),
             *(None if k is None else address(k) for k in coins))
    out = (tiny, address(window), address(dropped))
    single = partial(_numpy_steps, trig_slice, up, down, window, dropped, mirror, origin, tiny)

    def steps(t0: int, t1: int) -> None:
        a = min(t0 + -t0 % _RESCAN_PERIOD, t1)  # the first rescan cone from t0, or t1
        b = t1 - (t1 - a) % _RESCAN_PERIOD  # the end of the last whole pass
        if t0 < a:
            single(t0, a)
        if a < b:
            kernel(*fixed, a, b, *out)
        if b < t1:
            single(b, t1)

    steps.tables = tables, coins  # the kernel reads them by address: keep them alive with the stepper
    return steps


def _one_coin(sin: np.ndarray, cos: np.ndarray, cone: int) -> np.ndarray | None:
    """The (sin, cos) that every slot of cone's tables holds, bit for bit, or None where they differ.

    The start site's slot (cone // 2 of an even cone) is skipped: the loop
    gives it the identity coin. Bits are compared, not values:
    -0.0 == 0.0, but the two give products of different signs.
    """
    slots = [np.s_[:]]
    if cone % 2 == 0:
        if cone == 0:  # the start site's slot is the only one
            return None
        slots = [np.s_[:cone // 2], np.s_[cone // 2 + 1:]]
    for table in (sin, cos):
        bits = table.view(np.int64)
        if any((bits[part] != bits[0]).any() for part in slots):
            return None
    return np.array([sin[0], cos[0]])


def _wave_state(t: int, up: np.ndarray, down: np.ndarray, mirror: bool, parts,
                trim_bound: float) -> WaveState:
    """The complex state from one walk and its mirror, or from walks of the named parts of psi."""
    psi_up = np.zeros(t + 1, dtype=complex)
    psi_down = np.zeros(t + 1, dtype=complex)
    if mirror:
        (up,), (down,) = up, down
        sign = np.sign(np.arange(-t, t + 1, 2, dtype=float)) * (-1.0) ** (t + 1)
        psi_up.real, psi_up.imag = up, sign * down[::-1]
        psi_down.real, psi_down.imag = down, -sign * up[::-1]
        if t % 2 == 0:
            psi_up.imag[t // 2], psi_down.imag[t // 2] = down[t // 2], up[t // 2]
    else:
        for part, row_up, row_down in zip(parts, up, down):
            setattr(psi_up, part, row_up)
            setattr(psi_down, part, row_down)
    return WaveState(t, psi_up, psi_down, trim_bound)


def _validated_sample_times(sample_times, t_max: int) -> np.ndarray:
    ts = _integer_times("sample_times", sample_times)
    if ts.size == 0:
        raise ValueError("sample_times must not be empty")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if ts[0] < 1 or ts[-1] > t_max:
        raise ValueError(f"sample_times must lie in [1, {t_max}]")
    return ts


def evolve(field: CoinField, psi_ic, t_max: int, sample_times=None) -> SigmaSeries:
    """Run t_max steps from a localized start, recording sigma(t) at the sample times.

    The series holds t and sigma alone: the field's epsilon, W, model and seed are the caller's.
    """
    psi = _as_spinor(psi_ic)
    _check_horizon(field, t_max, 1)
    if sample_times is None:
        sample_times = default_sample_times(t_max)
    ts = _validated_sample_times(sample_times, t_max)
    mirror, parts = _real_walks(psi, field.mirror_symmetric)
    sigmas = np.array([_window_sigma(t, up, down, lo, hi, mirror)
                       for t, up, down, lo, hi, _ in _windows(field.trig_slice, psi, ts, mirror, parts)])
    return SigmaSeries(ts, sigmas)


def evolve_state(field: CoinField, psi_ic, t_max: int) -> WaveState:
    """Run t_max >= 0 steps from the origin and return the final state (no sampling)."""
    psi = _as_spinor(psi_ic)
    _check_horizon(field, t_max, 0)
    if t_max == 0:
        return WaveState(t=0, up=psi[:1].copy(), down=psi[1:].copy())
    (state,) = _iterate(field, psi, (t_max,))
    return state


@dataclass(frozen=True, eq=False)
class AbsorptionRecord:
    """Arrival amplitudes at the two absorbing walls, up to arrival time t_max.

    The walls lie first = 2^(l-1) sites from the start, so every arrival
    comes at t = first + 2k <= t_max: row k of arrivals holds the up
    amplitude absorbed at x = 2^l then and the down one absorbed at x = 0
    (no row where first > t_max). All else absorbs exactly zero. 32 bytes a
    row, at most 16 (t_max + 1) in all; compared and hashed by identity.
    """

    t_max: int
    first: int
    arrivals: np.ndarray

    def cumulative_absorbed(self) -> np.ndarray:
        """Total probability absorbed by each time 1..t_max; nondecreasing and <= 1."""
        per_t = np.zeros(self.t_max)
        per_t[self.first - 1::2] = np.sum(np.abs(self.arrivals) ** 2, axis=1)
        return np.cumsum(per_t)

    def generating_function(self, z: complex) -> tuple[np.ndarray, np.ndarray]:
        """(right, left) wall 2-vectors sum_t psi_t z^t, truncated at the recorded horizon.

        Computed as z^first sum_k arrivals[k] (z^2)^k: one cumulative product
        of K powers and one (K,) by (K, 2) product, or zeros at once with no
        arrival (rg_crosscheck's 256-step records: 3.6-3.7 us a call with
        65-125 arrivals, 0.55 us with none; timeit, 2-core Intel Xeon). The
        powers of z^2 round fewer times than the t_max - 1 products of z^t of
        the dense sum, so the two differ in their last bits. A non-finite z is
        refused with ValueError, as rgflow.absorbed_amplitude refuses it; a
        finite z whose powers pass the float range gives non-finite wall
        entries (see _power; numpy may warn), and the zero entries stay +0.0.
        """
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"z must be finite, got {z}")
        out = np.zeros(4, dtype=complex)  # the rows of a 2x2 array: (right up, 0) and (0, left down)
        if len(self.arrivals):
            powers = np.empty(len(self.arrivals), dtype=complex)
            powers.fill(z * z)
            powers[0] = _power(z, self.first)
            out[::3] = np.dot(np.multiply.accumulate(powers), self.arrivals)
        return out[:2], out[2:]


def _power(z: complex, n: int) -> complex:
    """z ** n for n >= 1 by repeated squaring. Past the float range, where ** raises OverflowError,
    the products give a non-finite number with a nan part: _power(2+0j, 2048) is (inf+nanj)."""
    power = None
    while True:
        if n & 1:
            power = z if power is None else power * z
        n >>= 1
        if not n:
            return power
        z *= z


def evolve_absorbing(field: CoinField, l: int, psi_ic, t_max: int) -> AbsorptionRecord:
    """Walk between fully absorbing walls at x = 0 and x = 2^l, started at x = 2^(l-1).

    Amplitude arriving at a wall is recorded for that time step and removed, so
    nothing ever reflects back out of the wall sites. One light-cone walk, the
    start site's own coin applied, untrimmed. Its coins are two contiguous
    parity tables of the sites the walk reaches, which the compiled loop reads
    in place. Inside the box they are copied from the field's two parity tables
    (CoinField.trig_slice at cones L and L - 1, L = half_width); the box never
    holds the origin. Sink coins sit at and beyond the walls (s = +1, c = 0 at
    x >= 2^l; s = -1, c = 0 at x <= 0): they move an arrival outward unchanged
    (u + 0 d = u, 0 u + d = d) and make no mover of the other direction. The
    arrival at time t sits t_max - t sites past its wall at t_max, where the
    record is read, equal in value to stepping the box alone in complex numpy
    (signs of exact zeros aside); the record holds those arrivals alone. A walk
    of two rows takes ~80 t_max bytes (buffers and coin tables 32 t_max each).
    Cost: see the module docstring; a 256-step walk of rg_crosscheck took 61-63
    us at l = 4, 8 and 12 (timeit, 2-core Intel Xeon), 27-30 us of it compiled.
    """
    l, t_max = _integer("l", l), _integer("t_max", t_max)
    if l < 1:
        raise ValueError("l must be >= 1")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    span = 1 << l
    if span - 1 > field.half_width:
        raise ValueError(f"wall separation 2^{l} needs interior sites up to {span - 1}, "
                         f"beyond half_width {field.half_width}")
    psi = _as_spinor(psi_ic)
    start = span // 2
    x0 = start - t_max  # the leftmost site the walk reaches
    # trig[p] = (s, co) of the sites x0 + p + 2i: cone c reads row (t_max - c) % 2 from slot (t_max - c) // 2
    trig = np.zeros((2, 2, t_max + 1))
    # the sinks' s, -1 left of the start and +1 right of it; the box is written over below
    trig[0, 0, :(t_max + 1) // 2] = trig[1, 0, :t_max // 2] = -1.0
    trig[0, 0, (t_max + 1) // 2:] = trig[1, 0, t_max // 2:] = 1.0
    lo, hi = max(1, x0), min(span - 1, start + t_max)  # the box sites the walk reaches
    for cone in (field.half_width, field.half_width - 1):  # the field's two parity tables
        ts, tc = field.trig_slice(cone)  # site x at index (x + cone) // 2
        first = lo + (lo - cone) % 2  # the first reachable box site of cone's parity
        k = (hi - first) // 2 + 1  # their count: 0 when first = hi + 1; lo <= start <= hi
        (i, p), j = divmod(first - x0, 2), (first + cone) // 2  # slot i of row p
        trig[p, 0, i:i + k], trig[p, 1, i:i + k] = ts[j:j + k], tc[j:j + k]

    def trig_slice(cone: int):  # the sites start - cone .. start + cone in steps of two
        row, q = trig[(t_max - cone) % 2], (t_max - cone) // 2
        return row[0, q:q + cone + 1], row[1, q:q + cone + 1]

    _, parts = _real_walks(psi, False)
    _, up, down, *_ = next(_windows(trig_slice, psi, (t_max,), False, parts, origin=False, tiny=0.0))
    # arrival k, at t = start + 2k, is t_max - t past its wall: up slot t_max - k, down slot k
    n = len(range(start, t_max + 1, 2))
    arrivals = np.zeros((n, 2), dtype=complex)
    for row, part in enumerate(parts):
        got = getattr(arrivals, part)
        got[:, 0], got[:, 1] = up[row, t_max:t_max - n:-1], down[row, :n]
    return AbsorptionRecord(t_max=t_max, first=start, arrivals=arrivals)
