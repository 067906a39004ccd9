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

Every walk, the absorbing-wall walk included, reads the sin and cos of the
site angles from two tables built once per field, one per parity of x
(trig_slice). A field of shared levels takes sin and cos of its ~log2 L
level angles only and gathers them through a table of site levels, cached
per half_width; an extensive field takes them per site. Either way the
tables are byte for byte np.sin and np.cos of base * epsilon^i, with the
field's cumulative epsilon^i, and of 0 at the origin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

THETA0 = math.pi / 4.0

DISORDER_MODELS = ("none", "hierarchical", "extensive")

_MASK64 = (1 << 64) - 1

CONFIG_KEYS = frozenset({"epsilon", "disorder_model", "W", "seed", "half_width"})


def _integer(name: str, value) -> int:
    """value as an int, refused by name unless it is an integer (not a bool)."""
    if type(value) is int:  # a tenth of the Integral check's cost; bool is a subclass, not int
        return value
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value, inside, interval: str) -> float:
    """float(value), refused by name if it is a bool, does not compare with a float or fails inside."""
    if not isinstance(value, (bool, np.bool_)):  # True is not 1.0
        try:
            if not inside(value):
                raise ValueError(f"{name} must lie in {interval}, got {value}")
            return float(value)
        except TypeError:  # a str, None: no comparison with a float
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def require_epsilon(epsilon: float) -> float:
    """epsilon as a float, refused if it is a bool, not a number or outside the barrier range (0, 1]."""
    return _real("epsilon", epsilon, lambda e: 0.0 < e <= 1.0, "(0, 1]")


def require_power_of_two(name: str, value: int) -> int:
    """value, refused unless it is a positive integer power of two."""
    if value < 1 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value


@dataclass(frozen=True)
class DisorderSpec:
    """Disorder model, half-width W of the uniform angle distribution, and seed."""

    model: str = "none"
    W: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in DISORDER_MODELS:
            raise ValueError(f"unknown disorder model {self.model!r}; choose from {DISORDER_MODELS}")
        _real("W", self.W, lambda w: 0.0 <= w <= math.pi, "[0, pi]")
        if not 0 <= _integer("seed", self.seed) <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def draw_base_angles(spec: DisorderSpec, count: int) -> np.ndarray:
    """Base angles drawn uniformly on [pi/4 - W, pi/4 + W].

    The stream is numpy's PCG64 generator seeded from spec.seed, making tables
    bit-identical across runs and platforms. Model "none" bypasses the generator
    and returns the constant pi/4; the other models consume exactly `count`
    uniforms in index order (levels 0,1,... or sites -L..L).
    """
    if _integer("count", count) < 0:
        raise ValueError("count must be non-negative")
    if spec.model == "none":
        return np.full(count, THETA0)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return rng.uniform(THETA0 - spec.W, THETA0 + spec.W, count)


class CoinField:
    """Immutable site -> coin assignment on x in [-L, L].

    Base angles are stored per level (models "none" and "hierarchical"; one draw
    covers both signs of x) or per site ("extensive", ascending site order; the
    origin's draw exists but is never used). The barrier factors epsilon^i are
    tabulated once by cumulative multiplication. A walk takes its coins from
    the field's sin and cos tables of base * epsilon^level, built at the first
    trig_slice call; level_angle gives one level's angle. The origin's coin is
    the identity.
    """

    def __init__(self, epsilon: float, disorder: DisorderSpec, half_width: int):
        self.epsilon = require_epsilon(epsilon)
        self.half_width = _integer("half_width", half_width)
        if self.half_width < 1:
            raise ValueError(f"half_width must be >= 1, got {half_width}")
        self.disorder = disorder
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

    @property
    def mirror_symmetric(self) -> bool:
        """theta(x) = theta(-x) at every site: true unless each site has its own base."""
        return self._site_base is None

    def level_angle(self, i: int) -> float:
        """theta_i = base_i * epsilon^i, shared by every site of level i."""
        if self._level_base is None:
            raise ValueError("extensive disorder assigns no shared per-level coin")
        if not 0 <= _integer("level", i) < self.n_levels:
            raise ValueError(f"level {i} outside [0, {self.n_levels - 1}]")
        return float(self._level_base[i] * self._eps_pow[i])

    def trig_slice(self, cone: int):
        """(sin, cos) views for the sites -cone..cone in steps of two.

        These are the sites sharing the parity of `cone`; they are exactly the
        sites a light cone of that extent can occupy.
        """
        L, cone = self.half_width, _integer("cone", cone)
        if not 0 <= cone <= L:
            raise ValueError(f"cone {cone} outside [0, {L}]")
        if self._trig is None:
            self._trig = self._trig_tables()
        s, c = self._trig[cone % 2]
        q0 = (L - cone) // 2
        return s[q0:q0 + cone + 1], c[q0:q0 + cone + 1]

    def _trig_tables(self):
        """(sin, cos) of the even sites' angles, then of the odd sites': site x at index (x + L) // 2.

        Byte for byte np.sin and np.cos of the site angles base * epsilon^i
        (0 at the origin), whichever way they are gathered.
        """
        L = self.half_width
        levels = _parity_levels(L)
        if self._site_base is None:
            angles = np.append(self._level_base * self._eps_pow, 0.0)
            s, c = np.sin(angles), np.cos(angles)
            return tuple((s[lev], c[lev]) for lev in levels)
        eps_pow = np.append(self._eps_pow, 0.0)
        angles = [self._site_base[p::2] * eps_pow[lev] for p, lev in zip((L % 2, 1 - L % 2), levels)]
        angles[0][L // 2] = 0.0  # the origin, whose draw is unused
        return tuple((np.sin(a), np.cos(a)) for a in angles)


@functools.lru_cache(maxsize=8)
def _parity_levels(half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Hierarchy level of each even site -L + L % 2, ..., then of each odd site; the origin's is n_levels.

    The layout of CoinField's trig tables. Cached per half_width, which the
    fields of one sweep share; the arrays are read-only.
    """
    L = half_width
    ax = np.abs(np.arange(-L, L + 1))
    ax[L] = 1  # placeholder; the origin's level is set below
    lev = (np.frexp((ax & -ax).astype(np.float64))[1] - 1).astype(np.intp)
    lev[L] = L.bit_length()
    out = tuple(np.ascontiguousarray(lev[p::2]) for p in (L % 2, 1 - L % 2))
    for a in out:
        a.setflags(write=False)
    return out


def field_from_config(cfg: dict) -> CoinField:
    """Build a CoinField from plain key-value config entries.

    Recognized keys: epsilon (float), disorder_model (none|hierarchical|extensive),
    W (float, radians), seed (u64), half_width (integer power of two). Values may
    be strings, as parsed from a config file.
    """
    unknown = set(cfg) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    def value(key, convert, default=None):
        if key not in cfg and default is None:
            raise ValueError(f"missing config key: {key}")
        try:
            return convert(cfg.get(key, default))
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from exc

    epsilon = value("epsilon", float)
    spec = DisorderSpec(value("disorder_model", str, "none"), value("W", float, 0.0),
                        value("seed", int, 0))
    return CoinField(epsilon, spec, require_power_of_two("half_width", value("half_width", int)))
