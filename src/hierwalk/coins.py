"""Site-dependent coin fields: a hierarchy of barrier angles with optional randomness.

The lattice is the integer line x in [-L, L]. Every nonzero site has a unique
factorization x = 2^i (2j+1); the exponent i is the site's hierarchy level.
Coin angles decay geometrically with level,

    theta(x) = base(x) * epsilon^i(x),

so high-level sites act as increasingly reflective barriers. The base angle is
pi/4 everywhere (model "none"), one uniform draw per level shared by both signs
of x (model "hierarchical", O(log L) draws), or one draw per site (model
"extensive", O(L) draws). All draws come from a pinned PCG64 stream so a field
is bit-reproducible from (epsilon, model, W, seed, half_width) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

THETA0 = math.pi / 4.0

DISORDER_MODELS = ("none", "hierarchical", "extensive")

_MASK64 = (1 << 64) - 1

CONFIG_KEYS = frozenset({"epsilon", "disorder_model", "W", "seed", "half_width"})


def build_coin(theta: float) -> np.ndarray:
    """2x2 unitary coin [[sin, cos], [cos, -sin]] of angle theta.

    Component order is (right-mover, left-mover). theta = pi/4 is the Hadamard
    coin; theta -> 0 is a perfect reflector that swaps the two mover components.
    """
    s, c = math.sin(theta), math.cos(theta)
    return np.array([[s, c], [c, -s]], dtype=complex)


@dataclass(frozen=True)
class HierarchyIndex:
    """The unique (i, j) with x = 2^i (2j+1) for a nonzero integer site x."""

    i: int
    j: int

    @property
    def site(self) -> int:
        return (2 * self.j + 1) << self.i


def hierarchy_index(x: int) -> HierarchyIndex:
    """Decompose a nonzero site into its hierarchy level i and offset j."""
    if x == 0:
        raise ValueError("x = 0 has no hierarchy level; the origin carries the identity coin")
    i = (x & -x).bit_length() - 1  # trailing zeros of |x|
    j = ((x >> i) - 1) >> 1
    return HierarchyIndex(i=i, j=j)


@dataclass(frozen=True)
class DisorderSpec:
    """Disorder model, half-width W of the uniform angle distribution, and seed."""

    model: str = "none"
    W: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in DISORDER_MODELS:
            raise ValueError(f"unknown disorder model {self.model!r}; choose from {DISORDER_MODELS}")
        if not 0.0 <= self.W <= math.pi:
            raise ValueError(f"W must lie in [0, pi], got {self.W}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def draw_base_angles(spec: DisorderSpec, count: int) -> np.ndarray:
    """Base angles drawn uniformly on [pi/4 - W, pi/4 + W].

    The stream is numpy's PCG64 generator seeded from spec.seed, making tables
    bit-identical across runs and platforms. Model "none" bypasses the generator
    and returns the constant pi/4; the other models consume exactly `count`
    uniforms in index order (levels 0,1,... or sites -L..L).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if spec.model == "none":
        return np.full(count, THETA0)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return rng.uniform(THETA0 - spec.W, THETA0 + spec.W, count)


class CoinField:
    """Immutable site -> coin assignment on x in [-L, L].

    Base angles are stored per level (models "none" and "hierarchical"; one draw
    covers both signs of x) or per site ("extensive", ascending site order; the
    origin's draw exists but is never used). Site angles are resolved lazily as
    base * epsilon^level; the barrier factors epsilon^i are tabulated once by
    cumulative multiplication so every access yields the same float. The origin
    has no angle: its coin is the identity.
    """

    def __init__(self, epsilon: float, disorder: DisorderSpec, half_width: int):
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
        if half_width < 1:
            raise ValueError(f"half_width must be >= 1, got {half_width}")
        self.epsilon = float(epsilon)
        self.disorder = disorder
        self.half_width = int(half_width)
        self.n_levels = self.half_width.bit_length()  # floor(log2 L) + 1
        eps_pow = np.ones(self.n_levels)
        if self.n_levels > 1:
            eps_pow[1:] = np.cumprod(np.full(self.n_levels - 1, self.epsilon))
        self._eps_pow = eps_pow
        if disorder.model == "extensive":
            self._level_base = None
            self._site_base = draw_base_angles(disorder, 2 * self.half_width + 1)
        else:
            self._level_base = draw_base_angles(disorder, self.n_levels)
            self._site_base = None
        self._trig = None

    def level_angle(self, i: int) -> float:
        """theta_i = base_i * epsilon^i, shared by every site of level i."""
        if self._level_base is None:
            raise ValueError("extensive disorder assigns no shared per-level coin")
        if not 0 <= i < self.n_levels:
            raise ValueError(f"level {i} outside [0, {self.n_levels - 1}]")
        return float(self._level_base[i] * self._eps_pow[i])

    def angle(self, x: int) -> float:
        """Coin angle at a nonzero site x."""
        if x == 0:
            raise ValueError("the origin carries the identity coin, not an angled one")
        if abs(x) > self.half_width:
            raise ValueError(f"|x| = {abs(x)} outside the lattice (half_width {self.half_width})")
        i = (x & -x).bit_length() - 1
        if self._site_base is not None:
            base = self._site_base[x + self.half_width]
        else:
            base = self._level_base[i]
        return float(base * self._eps_pow[i])

    def coin(self, x: int) -> np.ndarray:
        """2x2 coin matrix at site x; the identity at the origin."""
        if x == 0:
            return np.eye(2, dtype=complex)
        return build_coin(self.angle(x))

    def level_coin(self, i: int) -> np.ndarray:
        return build_coin(self.level_angle(i))

    def angle_table(self) -> np.ndarray:
        """Per-site angles for x = -L..L (index x + L); the origin entry is 0 and unused."""
        L = self.half_width
        xs = np.arange(-L, L + 1)
        ax = np.abs(xs)
        ax[L] = 1  # placeholder; the origin entry is forced to 0 below
        low = ax & -ax
        lev = np.frexp(low.astype(np.float64))[1] - 1  # exact log2 of a power of two
        if self._site_base is not None:
            tab = self._site_base * self._eps_pow[lev]
        else:
            tab = self._level_base[lev] * self._eps_pow[lev]
        tab[L] = 0.0
        return tab

    def _trig_tables(self):
        # Parity-split sin/cos caches; computed once, read-only afterwards.
        if self._trig is None:
            tab = self.angle_table()
            L = self.half_width
            x0_even = -L if L % 2 == 0 else -L + 1
            x0_odd = -L if L % 2 == 1 else -L + 1
            even = tab[(x0_even + L)::2]
            odd = tab[(x0_odd + L)::2]
            self._trig = (
                np.sin(even), np.cos(even), x0_even,
                np.sin(odd), np.cos(odd), x0_odd,
            )
        return self._trig

    def trig_slice(self, cone: int):
        """(sin, cos) views for the sites -cone..cone in steps of two.

        These are the sites sharing the parity of `cone`; they are exactly the
        sites a light cone of that extent can occupy.
        """
        if not 0 <= cone <= self.half_width:
            raise ValueError(f"cone {cone} outside [0, {self.half_width}]")
        s_even, c_even, x0_even, s_odd, c_odd, x0_odd = self._trig_tables()
        if cone % 2 == 0:
            q0 = (-cone - x0_even) // 2
            return s_even[q0:q0 + cone + 1], c_even[q0:q0 + cone + 1]
        q0 = (-cone - x0_odd) // 2
        return s_odd[q0:q0 + cone + 1], c_odd[q0:q0 + cone + 1]


def field_from_config(cfg: dict) -> CoinField:
    """Build a CoinField from plain key-value config entries.

    Recognized keys: epsilon (float), disorder_model (none|hierarchical|extensive),
    W (float, radians), seed (u64), half_width (integer power of two). Values may
    be strings, as parsed from a config file.
    """
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    try:
        epsilon = float(cfg["epsilon"])
        model = str(cfg.get("disorder_model", "none"))
        W = float(cfg.get("W", 0.0))
        seed = int(cfg.get("seed", 0))
        half_width = int(cfg["half_width"])
    except KeyError as exc:
        raise ValueError(f"missing config key: {exc.args[0]}") from exc
    if half_width < 1 or half_width & (half_width - 1):
        raise ValueError(f"half_width must be a power of two, got {half_width}")
    return CoinField(epsilon, DisorderSpec(model=model, W=W, seed=seed), half_width)
