"""Site angles of a CoinField from its public inputs: the tests' oracle for its trig tables.

theta(x) = base(x) * epsilon^i(x), with epsilon^i tabulated by cumulative
multiplication as CoinField does, the base angles redrawn with
draw_base_angles, and the level i taken from the scalar hierarchy_index,
one site at a time. The origin's angle is 0; the walks give it the
identity coin instead.
"""

from dataclasses import dataclass

import numpy as np

from hierwalk import draw_base_angles


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


def site_angles(field, sites) -> np.ndarray:
    """theta(x) for each site x of sites, |x| <= half_width; 0 at the origin."""
    L, spec = field.half_width, field.disorder
    eps_pow = np.ones(field.n_levels)
    eps_pow[1:] = np.cumprod(np.full(field.n_levels - 1, field.epsilon))
    extensive = spec.model == "extensive"
    base = draw_base_angles(spec, 2 * L + 1 if extensive else field.n_levels)
    out = []
    for x in map(int, sites):
        if x == 0:
            out.append(0.0)
            continue
        i = hierarchy_index(x).i
        out.append(base[x + L if extensive else i] * eps_pow[i])
    return np.array(out, dtype=float)
