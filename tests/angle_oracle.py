"""Site angles of a CoinField from its public inputs: the tests' oracle for its trig tables.

theta(x) = base(x) * epsilon^i(x), with epsilon^i tabulated by cumulative
multiplication as CoinField does, the base angles redrawn with
draw_base_angles, and the level i taken from the scalar hierarchy_index.
The origin's angle is 0; the walks give it the identity coin instead.
"""

import numpy as np

from hierwalk import draw_base_angles, hierarchy_index


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
