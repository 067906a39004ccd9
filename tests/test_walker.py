import math
import re
import subprocess
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierwalk import (
    DEFAULT_IC,
    CoinField,
    DisorderSpec,
    WaveState,
    default_sample_times,
    evolve,
    evolve_absorbing,
    evolve_state,
    sigma,
)
from hierwalk import ckernel, walker

from angle_oracle import site_angles

RIGHT_IC = np.array([1.0, 0.0])


def hadamard_field(half_width=256):
    return CoinField(1.0, DisorderSpec(), half_width)


@pytest.fixture
def numpy_loop(monkeypatch):
    """Step light-cone walks in the numpy loop, as where no C compiler is found."""
    monkeypatch.setattr(walker, "_load_kernel", lambda: None)


def dense_reference_run(field, psi_ic, t_max):
    """Site-indexed reference evolution, written independently of the kernel.

    Full arrays over [-L, L], explicit python loop over sites; no light-cone or
    parity bookkeeping at all.
    """
    L = field.half_width
    theta = site_angles(field, range(-L, L + 1))  # theta[x + L]
    up = {0: complex(psi_ic[0])}
    down = {0: complex(psi_ic[1])}
    for _ in range(t_max):
        new_up, new_down = {}, {}
        for x in set(up) | set(down):
            u = up.get(x, 0j)
            d = down.get(x, 0j)
            if x == 0:
                cu, cd = u, d
            else:
                th = theta[x + L]
                cu = math.sin(th) * u + math.cos(th) * d
                cd = math.cos(th) * u - math.sin(th) * d
            if abs(x + 1) <= L:
                new_up[x + 1] = new_up.get(x + 1, 0j) + cu
            if abs(x - 1) <= L:
                new_down[x - 1] = new_down.get(x - 1, 0j) + cd
        up, down = new_up, new_down
    return up, down


def test_init_localized_examples():
    state = evolve_state(hadamard_field(), RIGHT_IC, 0)
    assert state.t == 0
    assert state.norm() == pytest.approx(1.0)
    assert state.spinor_at(0) == (1.0 + 0j, 0j)
    sym = evolve_state(hadamard_field(), DEFAULT_IC, 0)
    assert sym.norm() == pytest.approx(1.0)


def test_init_rejects_unnormalized():
    with pytest.raises(ValueError):
        evolve_state(hadamard_field(), np.array([1.0, 1.0]), 0)
    with pytest.raises(ValueError):
        evolve_state(hadamard_field(), np.array([0.5, 0.5]), 0)


def test_one_step_identity_coin_at_origin():
    state = evolve_state(hadamard_field(), DEFAULT_IC, 1)
    assert state.t == 1
    up1, down1 = state.spinor_at(1)
    upm1, downm1 = state.spinor_at(-1)
    assert up1 == pytest.approx(DEFAULT_IC[0])
    assert down1 == 0j
    assert downm1 == pytest.approx(DEFAULT_IC[1])
    assert upm1 == 0j


def test_two_step_hadamard_by_hand():
    state = evolve_state(hadamard_field(), RIGHT_IC, 2)
    rho = {x: abs(u) ** 2 + abs(d) ** 2
           for x in range(-3, 4)
           for u, d in [state.spinor_at(x)]}
    assert rho[2] == pytest.approx(0.5, abs=1e-14)
    assert rho[0] == pytest.approx(0.5, abs=1e-14)
    assert sum(v for x, v in rho.items() if x not in (0, 2)) == pytest.approx(0.0, abs=1e-14)


def test_norm_conserved_1024_steps():
    f = CoinField(0.7, DisorderSpec(model="hierarchical", W=0.8, seed=3), 1024)
    state = evolve_state(f, DEFAULT_IC, 1024)
    assert abs(state.norm() - 1.0) < 1e-12


def test_parity_symmetric_density_hadamard():
    f = hadamard_field(128)
    for t in range(1, 129):
        rho = evolve_state(f, DEFAULT_IC, t).density()
        np.testing.assert_allclose(rho, rho[::-1], atol=1e-12)


def test_light_cone_exact_zero_outside():
    f = CoinField(0.6, DisorderSpec(model="extensive", W=0.5, seed=9), 64)
    state = evolve_state(f, DEFAULT_IC, 40)
    for x in (41, 55, -41, -64):
        assert state.spinor_at(x) == (0j, 0j)
    # wrong parity class inside the cone is exactly empty too
    for x in (1, -3, 39):
        assert state.spinor_at(x) == (0j, 0j)


def test_matches_dense_reference():
    rng = np.random.default_rng(12)
    for model in ("none", "hierarchical", "extensive"):
        f = CoinField(
            float(rng.uniform(0.3, 1.0)),
            DisorderSpec(model=model, W=float(rng.uniform(0, math.pi)), seed=int(rng.integers(1000))),
            64,
        )
        state = evolve_state(f, DEFAULT_IC, 48)
        ref_up, ref_down = dense_reference_run(f, DEFAULT_IC, 48)
        for x in range(-48, 49):
            u, d = state.spinor_at(x)
            assert u == pytest.approx(ref_up.get(x, 0j), abs=1e-13)
            assert d == pytest.approx(ref_down.get(x, 0j), abs=1e-13)


def full_cone_reference_states(field, psi_ic, t_max, tau):
    """Yield (t, up, down, B) after each step, updating every slot of the cone.

    The plain complex numpy light-cone loop, the oracle for the real, trimmed
    kernel, run twice in the rows of (2, t_max + 1) arrays: row 0 untrimmed,
    row 1 trimmed by the kernel's rule. At every cone 0 mod
    walker._RESCAN_PERIOD row 1 zeros its edge slots whose four parts are all
    below tau, and B sums the 2-norms it zeroed. up and down are copies; B is
    row 1's.
    """
    up = np.zeros((2, t_max + 1), dtype=complex)
    down = np.zeros((2, t_max + 1), dtype=complex)
    up[:, 0], down[:, 0] = psi_ic[0], psi_ic[1]
    bound = 0.0
    for t in range(1, t_max + 1):
        c = t - 1
        if c % walker._RESCAN_PERIOD == 0:
            parts = np.stack([up[1].real, up[1].imag, down[1].real, down[1].imag])[:, :t]
            kept = np.flatnonzero(np.any(np.abs(parts) >= tau, axis=0))
            cut = np.r_[0:kept[0], kept[-1] + 1:t]
            bound += math.sqrt(np.sum(np.abs(up[1, cut]) ** 2 + np.abs(down[1, cut]) ** 2))
            up[1, cut] = down[1, cut] = 0.0
        s, co = field.trig_slice(c)
        cu = s * up[:, :t] + co * down[:, :t]
        cd = co * up[:, :t] - s * down[:, :t]
        if c % 2 == 0:
            cu[:, c // 2] = up[:, c // 2]
            cd[:, c // 2] = down[:, c // 2]
        up[:, 1:t + 1] = cu
        up[:, 0] = 0.0
        down[:, :t] = cd
        down[:, t] = 0.0
        yield t, up[:, :t + 1].copy(), down[:, :t + 1].copy(), bound


ORACLE_FIELDS = [
    CoinField(1.0, DisorderSpec(), 2048),
    CoinField(0.6, DisorderSpec(model="hierarchical", W=1.0, seed=5), 2048),
    CoinField(0.6, DisorderSpec(model="extensive", W=math.pi / 4, seed=5), 2048),
]
MIXED_IC = np.array([0.6, 0.8j])  # Im psi != swap(Re psi): two real walks on any field
IMAG_IC = np.array([0, 1j])  # Re psi = 0: one walk, of Im psi
EPS = np.finfo(float).eps


def rounding(t):
    """Allowance, in 2-norm, for the rounding that tells two unit-norm walks of t steps apart.

    A step rounds each coin product and each sum once, so it adds at most
    2u(|s a| + |c b|) to a part from (a, b), with u = EPS / 2: at most
    2 sqrt(2) u in 2-norm, by Cauchy-Schwarz. The rounded coins are unitary
    to within u, so errors carry forward with growth (1 + u)^t ~ 1. Each of
    the two walks rounds: 4 sqrt(2) u t < 4 t EPS.
    """
    return 4 * t * EPS


def sigma_rounding(t):
    """Allowance for the rounding of sigma^2 itself, computed twice from states on t + 1 sites.

    sigma^2 = sum x^2 rho - (sum x rho)^2 with |x| <= t and sum rho ~ 1; the
    sums of t + 1 terms round by at most (t + 5) u relative, the square of the
    mean doubles that: 3 (t + 6) u t^2 per evaluation.
    """
    return 3 * (t + 6) * t * t * EPS


def assert_within_certificate(state, up, down, bound):
    """A walk trimmed at walker._TINY against the oracle's rows at the same time.

    Against the oracle trimmed by the same rule (row 1): every part bit for
    bit and B to rounding. Against the untrimmed one (row 0): in exact
    arithmetic unitarity bounds ||psi - psi_untrimmed||_2 by B, each trim's
    loss carried forward unchanged in norm, so the distance may exceed B only
    by rounding(t); and for states of unit norm on |x| <= t,
    |sigma^2 - sigma_untrimmed^2| <= 6 t^2 ||psi - psi_untrimmed||_2. Exact
    zeros of the untrimmed walk are exact zeros of the trimmed one.

    Squares of dropped parts below sqrt(DBL_MIN) underflow, so B may miss up
    to sqrt(count * DBL_MIN) ~ 1e-151 of the dropped norm for count < 2^24
    dropped parts: far below rounding(t) >= 4 EPS ~ 1e-15, so it is ignored.
    """
    t = state.t
    for got, ref in ((state.up, up), (state.down, down)):
        assert np.array_equal(got, ref[1])
        for g, r in ((got.real, ref[0].real), (got.imag, ref[0].imag)):
            assert np.all(g[r == 0] == 0)
    assert state.trim_bound == pytest.approx(bound, rel=1e-12, abs=0)
    distance = math.sqrt(np.sum(np.abs(state.up - up[0]) ** 2 + np.abs(state.down - down[0]) ** 2))
    assert distance <= state.trim_bound + rounding(t)
    got, ref = sigma(state), sigma(WaveState(t, up[0], down[0]))
    assert abs(got ** 2 - ref ** 2) <= 6 * t * t * (state.trim_bound + rounding(t)) + sigma_rounding(t)
    return distance


def oracle_cases(test):
    test = pytest.mark.parametrize("psi_ic", [DEFAULT_IC, RIGHT_IC, MIXED_IC, IMAG_IC],
                                   ids=["default_ic", "right_ic", "mixed_ic", "imag_ic"])(test)
    return pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.disorder.model)(test)


@oracle_cases
def test_trimmed_kernel_matches_full_cone_oracle(field, psi_ic):
    series = evolve(field, psi_ic, 2048)
    # the sample times; the first steps, around a rescan, and the end among them
    times = sorted({*series.t, 31, 33, 1000})
    states = dict(zip(times, walker._iterate(field, walker._as_spinor(psi_ic), times)))
    # evolve sums sigma's moments over the real window, in another order than sigma(state)
    for t, got in zip(series.t, series.sigma):
        assert abs(got ** 2 - sigma(states[t]) ** 2) <= sigma_rounding(t)
    for t, up, down, bound in full_cone_reference_states(field, psi_ic, 2048, walker._TINY):
        if t in states:
            assert_within_certificate(states[t], up, down, bound)
    state = states[2048]
    assert 0 < state.trim_bound < 1e-20
    if field.disorder.model == "extensive":  # localized: the cone is largely exact zeros
        nonzero = np.count_nonzero((state.up != 0) | (state.down != 0))
        assert nonzero / state.up.size < 0.7


@oracle_cases
def test_numpy_loop_matches_full_cone_oracle(field, psi_ic, numpy_loop):
    test_trimmed_kernel_matches_full_cone_oracle(field, psi_ic)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.disorder.model)
def test_trim_bound_certifies_a_coarse_trim(field, monkeypatch):
    """At tau = 1e-6 the dropped norm dwarfs rounding, so the certificate is put to a sharp test.

    The walk must stay within B of the untrimmed one, and B must not be
    loose by orders of magnitude.
    """
    monkeypatch.setattr(walker, "_TINY", 1e-6)
    *_, (_, up, down, bound) = full_cone_reference_states(field, MIXED_IC, 1024, 1e-6)
    state = evolve_state(field, MIXED_IC, 1024)
    distance = assert_within_certificate(state, up, down, bound)
    assert state.trim_bound > 1000 * rounding(1024)
    assert distance > state.trim_bound / 100


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.disorder.model)
def test_numpy_loop_trim_bound_certifies_a_coarse_trim(field, numpy_loop, monkeypatch):
    test_trim_bound_certifies_a_coarse_trim(field, monkeypatch)


@pytest.mark.parametrize("field", [CoinField(f.epsilon, f.disorder, 2 ** 13) for f in ORACLE_FIELDS],
                         ids=lambda f: f.disorder.model)
@pytest.mark.parametrize("psi_ic", [DEFAULT_IC, MIXED_IC], ids=["default_ic", "mixed_ic"])
def test_unitarity_and_trim_bound_per_regime(field, psi_ic, monkeypatch):
    """Over 2^13 steps the norm drifts by under 1e-10 and the trim drops under 1e-20, on both loops.

    The two loops certify the same B, bit for bit.
    """
    bounds = []
    for numpy_loop in (False, True):
        if numpy_loop:
            monkeypatch.setattr(walker, "_load_kernel", lambda: None)
        state = evolve_state(field, psi_ic, 2 ** 13)
        assert abs(1.0 - state.norm()) < 1e-10
        assert 0 < state.trim_bound < 1e-20
        bounds.append(state.trim_bound)
    assert bounds[0] == bounds[1]


class _TwoWalkField:
    """A symmetric field that does not say so, which forces the two-walk path."""

    mirror_symmetric = False

    def __init__(self, field):
        self.trig_slice = field.trig_slice


MIRROR_TIMES = (1, 2, 3, 4, 31, 32, 33, 64, 65, 255, 256, 1023, 1024, 1536, 2047, 2048)


@pytest.mark.parametrize("eps, model, W", [
    (1.0, "none", 0.0),
    (0.6, "none", 0.0),
    (0.8, "hierarchical", 0.5),
    (0.6, "hierarchical", 1.0),
    (0.3, "hierarchical", 3.0),
    (1.0, "hierarchical", 1.0),
])
def test_one_walk_and_its_mirror_equal_two_real_walks(eps, model, W):
    field = CoinField(eps, DisorderSpec(model=model, W=W, seed=7), 2048)
    psi = walker._as_spinor(DEFAULT_IC)
    one = walker._iterate(field, psi, MIRROR_TIMES)
    two = walker._iterate(_TwoWalkField(field), psi, MIRROR_TIMES)
    for t, a, b in zip(MIRROR_TIMES, one, two):
        assert a.t == b.t == t
        assert np.array_equal(a.up, b.up) and np.array_equal(a.down, b.down)


def test_trim_leaves_exact_zeros_beyond_the_window():
    """The edges a rescan drops are zeroed, not left behind.

    On the Hadamard walk amplitudes fall below the trim threshold tau at the
    cone edges from t ~ 200 on. The window is rescanned at every cone 0 mod 4
    and grows by one slot per step, so the nonzero slots beyond the outermost
    amplitudes >= tau number at most 2 on each side; the rescan period of 32
    used before two cones per pass fails here. t = 4095 ends on three single
    steps, t = 4096 on a four-cone pass.
    """
    field = hadamard_field(4096)
    for t in (4095, 4096):
        state = evolve_state(field, DEFAULT_IC, t)
        parts = np.stack([state.up.real, state.up.imag, state.down.real, state.down.imag])
        nonzero = np.flatnonzero(np.any(parts != 0, axis=0))
        kept = np.flatnonzero(np.any(np.abs(parts) >= walker._TINY, axis=0))
        assert nonzero[0] > 0 and nonzero[-1] < t  # the trim has dropped edge slots
        assert kept[0] - nonzero[0] <= 2
        assert nonzero[-1] - kept[-1] <= 2


def test_numpy_loop_trim_leaves_exact_zeros_beyond_the_window(numpy_loop):
    test_trim_leaves_exact_zeros_beyond_the_window()


def both_loops(test):
    """Run the test on the fields and spinors where the two loops must give the same bytes."""
    test = pytest.mark.parametrize("psi_ic", [DEFAULT_IC, MIXED_IC, RIGHT_IC],
                                   ids=["default_ic", "mixed_ic", "right_ic"])(test)
    return pytest.mark.parametrize("field", [
        CoinField(1.0, DisorderSpec(), 4096),
        CoinField(0.6, DisorderSpec(model="hierarchical", W=1.0, seed=5), 4096),
        CoinField(0.6, DisorderSpec(model="extensive", W=math.pi / 4, seed=5), 4096),
        # coin angles beyond pi/2 (cos < 0 < sin) turn +0.0 into -0.0 where the walk of
        # Im psi is zero at the cone's edge, so the sign of each zero the loop makes shows
        CoinField(1.0, DisorderSpec(model="hierarchical", W=3.0, seed=5), 4096),
        # one coin on the odd cones, level-dependent coins on the even ones
        CoinField(0.7, DisorderSpec(), 4096),
    ], ids=["none", "hierarchical", "extensive", "obtuse", "none_barriers"])(test)


@both_loops
def test_compiled_loop_gives_the_numpy_loops_bytes(field, psi_ic, monkeypatch):
    if walker.light_cone_kernel() != "compiled":
        pytest.skip("the compiled light-cone loop cannot be built here")
    # the compiled path runs the library's four-cone passes from cones 0 mod 4 with four to
    # go, and numpy's single steps otherwise: single steps only up to 6 (0 -> 2 from the origin's slot),
    # steps at cones 6 and 7, passes, steps at 28 to 30 (6 -> 31), a step at cone 32 with
    # one to go (32 -> 33), steps at 33 to 35 then passes (33 -> 1024), passes then steps
    # at 4092 to 4094 (1024 -> 4095)
    grid = (1, 2, 3, 5, 6, 31, 32, 33, 1024, 4095, 4096)
    psi = walker._as_spinor(psi_ic)
    for times in (grid, grid[1:]):
        monkeypatch.undo()
        compiled = list(walker._iterate(field, psi, times))
        monkeypatch.setattr(walker, "_load_kernel", lambda: None)
        for a, b in zip(compiled, walker._iterate(field, psi, times), strict=True):
            assert a.t == b.t
            assert a.up.tobytes() == b.up.tobytes() and a.down.tobytes() == b.down.tobytes()


@both_loops
def test_compiled_loop_gives_the_numpy_loops_sigma_bytes(field, psi_ic, monkeypatch):
    """evolve takes sigma from the window of either loop's buffers with one helper."""
    if walker.light_cone_kernel() != "compiled":
        pytest.skip("the compiled light-cone loop cannot be built here")
    compiled = evolve(field, psi_ic, 4096)
    monkeypatch.setattr(walker, "_load_kernel", lambda: None)
    assert compiled.sigma.tobytes() == evolve(field, psi_ic, 4096).sigma.tobytes()


@both_loops
def test_compiled_loop_gives_the_numpy_loops_absorption_bytes(field, psi_ic, monkeypatch):
    """evolve_absorbing's records, signs of zeros included, on walls 2 to 4096 sites apart."""
    if walker.light_cone_kernel() != "compiled":
        pytest.skip("the compiled light-cone loop cannot be built here")
    cases = [(1, 5), (3, 64), (8, 700), (12, 256)]
    compiled = [evolve_absorbing(field, l, psi_ic, t_max) for l, t_max in cases]
    monkeypatch.setattr(walker, "_load_kernel", lambda: None)
    for (l, t_max), a in zip(cases, compiled):
        b = evolve_absorbing(field, l, psi_ic, t_max)
        assert (a.t_max, a.first) == (b.t_max, b.first)
        assert a.arrivals.tobytes() == b.arrivals.tobytes()


def build_kernel(source: str, directory) -> object:
    """lightcone_steps of source, built with the library's flags into directory."""
    path = directory / "lightcone.so"
    try:
        subprocess.run(ckernel._command(path), input=source, text=True, capture_output=True,
                       check=True, timeout=120)
    except (OSError, subprocess.SubprocessError):
        pytest.skip("the compiled light-cone loop cannot be built here")
    return ckernel._open(path)


@pytest.fixture(scope="module")
def small_tiles(tmp_path_factory):
    """lightcone_steps built with tiles of 7 pair slots.

    Ring boundaries then fall inside every walk wider than a few slots, and
    the last tile of a pass is partial in most of them.
    """
    source, count = re.subn(r"^#define TILE \d+$", "#define TILE 7", ckernel._SOURCE, flags=re.M)
    assert count == 1, "no #define TILE line to rewrite"
    return build_kernel(source, tmp_path_factory.mktemp("small-tiles"))


@pytest.fixture
def small_tile_loop(small_tiles):
    """Compiled walks step through the small-tile library.

    It replaces ckernel.load, with a MonkeyPatch of its own, so a test's
    monkeypatch, which switches walker._load_kernel between the loops and
    may undo that, leaves it in place.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ckernel, "load", lambda: small_tiles)
        yield


@pytest.fixture(params=["default", "small_tiles"])
def compiled_loop(request):
    """The compiled loop under test: the library walks load, or the small-tile one."""
    if request.param == "small_tiles":
        request.getfixturevalue("small_tile_loop")
    if walker.light_cone_kernel() != "compiled":
        pytest.skip("the compiled light-cone loop cannot be built here")


@both_loops
def test_small_tiles_give_the_numpy_loops_bytes(field, psi_ic, small_tile_loop, monkeypatch):
    """The three comparisons above, through the library with tiles of 7 slots."""
    for compare in (test_compiled_loop_gives_the_numpy_loops_bytes,
                    test_compiled_loop_gives_the_numpy_loops_sigma_bytes,
                    test_compiled_loop_gives_the_numpy_loops_absorption_bytes):
        compare(field, psi_ic, monkeypatch)
        monkeypatch.undo()


CLONE_TARGETS = ("avx512f", "avx2", "baseline")  # the span functions' clones, in the resolver's order


@pytest.fixture(scope="module", params=CLONE_TARGETS)
def one_clone(request, tmp_path_factory):
    """lightcone_steps with its span functions built for one of their clones' targets alone.

    The library walks load runs the clone the resolver picks, so on a CPU
    with AVX-512F no other test runs the AVX2 or the baseline span loops.
    Each target the CPU lacks, as the library's ISA report says, is
    skipped. These libraries' own reports still name the resolver's pick.
    """
    isa = walker.light_cone_isa()
    if isa is None:
        pytest.skip("the compiled light-cone loop cannot be built here")
    if CLONE_TARGETS.index(request.param) < CLONE_TARGETS.index(isa):
        pytest.skip(f"this CPU runs no {request.param} code")
    target = "" if request.param == "baseline" else f' __attribute__((target("{request.param}")))'
    source, count = re.subn(r"^#define CLONED __attribute__\(\(target_clones\(.*$", f"#define CLONED{target}",
                            ckernel._SOURCE, flags=re.M)
    assert count == 1, "no #define CLONED target_clones line to rewrite"
    return build_kernel(source, tmp_path_factory.mktemp(f"clone-{request.param}"))


def sigma_and_absorption_bytes(field, psi_ic) -> tuple:
    """evolve's sigma to 4096, and evolve_absorbing's records on walls 2 to 4096 sites apart, as bytes."""
    absorbing = [evolve_absorbing(field, l, psi_ic, t_max) for l, t_max in [(1, 5), (3, 64), (8, 700), (12, 256)]]
    return evolve(field, psi_ic, 4096).sigma.tobytes(), [(a.first, a.arrivals.tobytes()) for a in absorbing]


@pytest.fixture(scope="module")
def numpy_loop_bytes():
    """sigma_and_absorption_bytes in the numpy loop, computed once per field and spinor for all clones."""
    cache = {}

    def get(field, psi_ic):
        key = id(field), id(psi_ic)  # both_loops' objects, which live as long as the session
        if key not in cache:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(walker, "_load_kernel", lambda: None)
                cache[key] = sigma_and_absorption_bytes(field, psi_ic)
        return cache[key]

    return get


@both_loops
def test_each_clone_gives_the_numpy_loops_bytes(field, psi_ic, one_clone, numpy_loop_bytes, monkeypatch):
    """The sigma and absorption comparisons above, through the span loops of each clone this CPU can run."""
    monkeypatch.setattr(walker, "_load_kernel", lambda: one_clone)
    assert sigma_and_absorption_bytes(field, psi_ic) == numpy_loop_bytes(field, psi_ic)


def window_bytes(field, psi_ic, times, tiny=None) -> list:
    """(up, down, lo, hi, B) at each time of the walks from psi_ic, trimmed at tiny (see walker._windows)."""
    psi = walker._as_spinor(psi_ic)
    mirror, parts = walker._real_walks(psi, field.mirror_symmetric)
    return [(up.tobytes(), down.tobytes(), lo, hi, bound) for _, up, down, lo, hi, bound
            in walker._windows(field.trig_slice, psi, times, mirror, parts, tiny=tiny)]


def assert_loops_agree(walk, monkeypatch) -> None:
    compiled = walk()
    monkeypatch.setattr(walker, "_load_kernel", lambda: None)
    assert compiled == walk()


@both_loops
@pytest.mark.parametrize("tiny", [1e-6, 1e-3])
def test_compiled_loop_gives_the_numpy_loops_bytes_under_a_coarse_trim(field, psi_ic, tiny, compiled_loop,
                                                                      monkeypatch):
    """Windows, B and bytes trimmed at a large tau, where a trim searches up to 7 slots in from an edge.

    The walk ends at an odd time, so its buffers hold an even number of
    slots and its even cones take the coins of the table for cone n - 2.
    """
    assert_loops_agree(partial(window_bytes, field, psi_ic, (2, 33, 512, 1023), tiny), monkeypatch)


@pytest.mark.parametrize("psi_ic", [DEFAULT_IC, MIXED_IC], ids=["mirror", "two_rows"])
def test_compiled_loop_gives_the_numpy_loops_bytes_with_the_start_site_on_tile_boundaries(psi_ic, compiled_loop,
                                                                                        monkeypatch):
    """Untrimmed, the start site crosses tile boundaries, where its identity coin is peeled.

    With tiny = 0 the window is the whole cone, so the tiles of the pass
    from cone c start at slot k TILE (256 k, or 7 k for the small tiles).
    The start site sits at slot c / 2 for the first pair and c / 2 + 1 for
    the second; passes run from every cone 0 mod 4 below 1197, so those
    run through every slot up to 599 and meet each tile boundary below it
    (256 and 512 for the default tiles). The two walks have an odd and an
    even number of slots per buffer.
    """
    field = hadamard_field(1200)
    for times in ((1200,), (1, 1199)):
        assert_loops_agree(partial(window_bytes, field, psi_ic, times, 0.0), monkeypatch)
        monkeypatch.undo()


def test_compiled_loop_gives_the_numpy_loops_bytes_where_the_right_edge_sets_the_left_trim(compiled_loop,
                                                                                         monkeypatch):
    """A mirror walk whose window's left edge is the mirror of its right edge, trimmed between four-cone passes.

    The walk trims at cones 0 mod 4, each before the pass from that cone.
    At some of those the first kept slot from the left lies beyond the
    mirror of the last kept one, so the trim keeps slots left of it that
    are all below tau.
    """
    field = CoinField(0.6, DisorderSpec(model="hierarchical", W=1.0, seed=5), 2048)
    psi = walker._as_spinor(DEFAULT_IC)
    monkeypatch.setattr(walker, "_load_kernel", lambda: None)
    right_sets_left = []
    for _, up, down, lo, hi, _ in walker._windows(field.trig_slice, psi, range(4, 2049, 4), True, ("real",)):
        kept = np.flatnonzero((np.abs(up[0, lo:hi]) >= walker._TINY) | (np.abs(down[0, lo:hi]) >= walker._TINY))
        right_sets_left.append(hi - lo - 1 - kept[-1] < kept[0])
    assert any(right_sets_left)
    monkeypatch.undo()
    assert_loops_agree(partial(window_bytes, field, DEFAULT_IC, (2048,)), monkeypatch)


GRID_T = 1536  # 3 * 2^9: the default grid ends there too


@pytest.mark.parametrize("field, psi_ic", [
    (CoinField(1.0, DisorderSpec(), 2048), DEFAULT_IC),
    # the strong-barrier corner, where the window stays narrow
    (CoinField(0.2, DisorderSpec(model="hierarchical", W=math.pi, seed=1), 2048), DEFAULT_IC),
    (CoinField(0.2, DisorderSpec(model="hierarchical", W=math.pi, seed=1), 2048), MIXED_IC),
    (CoinField(0.6, DisorderSpec(model="extensive", W=math.pi / 4, seed=5), 2048), MIXED_IC),
], ids=["hadamard", "corner_mirror", "corner_two_rows", "extensive_two_rows"])
def test_the_state_does_not_depend_on_the_sample_grid(field, psi_ic, request, monkeypatch):
    """The window is trimmed at cones 0 mod 4, counted from the start, not from where a call starts.

    Grids that end at T stop the loop at odd times, at every time, at cones
    2 mod 4 only, and on the default grid. The bytes of up, down, lo, hi
    and B at T must be one value on every grid, in the numpy loop, the
    compiled loop and the compiled loop with tiles of 7 slots.
    """
    grids = [(GRID_T,), (1, 3, 5, *range(6, GRID_T + 1)), (*range(2, GRID_T, 4), GRID_T),
             default_sample_times(GRID_T)]
    assert all(grid[-1] == GRID_T for grid in grids)
    kernels = [None]
    if walker.light_cone_kernel() == "compiled":
        kernels += [ckernel.load(), request.getfixturevalue("small_tiles")]
    psi = walker._as_spinor(psi_ic)
    mirror, parts = walker._real_walks(psi, field.mirror_symmetric)
    states = []
    for kernel in kernels:
        monkeypatch.setattr(walker, "_load_kernel", lambda: kernel)
        for grid in grids:
            *_, (t, up, down, lo, hi, bound) = walker._windows(field.trig_slice, psi, grid, mirror, parts)
            states.append((t, up.tobytes(), down.tobytes(), lo, hi, bound))
    assert len(states) == len(kernels) * len(grids)
    assert len(set(states)) == 1


@pytest.mark.parametrize("psi_ic", [DEFAULT_IC, MIXED_IC], ids=["mirror", "two_rows"])
def test_the_state_stays_in_one_buffer_pair(psi_ic, request, monkeypatch):
    """Every step leaves the state where it was: _windows yields the same two arrays at every time.

    The grid stops at odd times and at cones 2 mod 4, after single steps,
    in the numpy loop, the compiled loop and the compiled loop with tiles
    of 7 slots.
    """
    field = CoinField(0.6, DisorderSpec(model="hierarchical", W=1.0, seed=5), 4096)
    times = (1, 2, 3, 6, 7, 33, 1024, 4095)
    kernels = [None]
    if walker.light_cone_kernel() == "compiled":
        kernels += [ckernel.load(), request.getfixturevalue("small_tiles")]
    psi = walker._as_spinor(psi_ic)
    mirror, parts = walker._real_walks(psi, field.mirror_symmetric)
    for kernel in kernels:
        monkeypatch.setattr(walker, "_load_kernel", lambda: kernel)
        states = [(up, down) for _, up, down, *_ in walker._windows(field.trig_slice, psi, times, mirror, parts)]
        assert all(up is states[0][0] and down is states[0][1] for up, down in states)


def test_the_library_runs_only_whole_passes(monkeypatch):
    """Every call to the library starts at a cone 0 mod 4 and steps a positive multiple of four cones.

    The numpy loop steps every other cone. The grids stop at odd times and
    before and after whole passes: MIRROR_TIMES, the default grid, and
    evolve_absorbing's single time 3 2^l + 7, both untrimmed.
    """
    library = ckernel.load()
    if library is None:
        pytest.skip("the compiled light-cone loop cannot be built here")
    calls = []

    def recording(*args):
        calls.append(args[12:14])  # lightcone_steps' t0 and t1
        library(*args)

    monkeypatch.setattr(walker, "_load_kernel", lambda: recording)
    field = CoinField(0.6, DisorderSpec(model="hierarchical", W=1.0, seed=5), 2048)
    psi = walker._as_spinor(DEFAULT_IC)
    walks = [lambda: list(walker._iterate(field, psi, MIRROR_TIMES)),
             lambda: evolve(field, MIXED_IC, 2048),
             lambda: evolve_absorbing(field, 3, DEFAULT_IC, 3 * 2 ** 3 + 7),
             lambda: evolve_absorbing(field, 8, MIXED_IC, 3 * 2 ** 8 + 7)]
    for walk in walks:
        calls.clear()
        walk()
        assert calls
        for t0, t1 in calls:
            assert t0 % 4 == 0 and t1 > t0 and (t1 - t0) % 4 == 0, (t0, t1)


def record_one_coins(monkeypatch) -> dict:
    """{cone parity: whether its table has one coin}, filled as the compiled loop's walks start."""
    seen = {}
    one_coin = walker._one_coin

    def recording(sin, cos, cone):
        coin = one_coin(sin, cos, cone)
        seen[cone % 2] = coin is not None
        return coin

    monkeypatch.setattr(walker, "_one_coin", recording)
    return seen


@pytest.mark.parametrize("field, walk, one_coin", [
    (hadamard_field(), evolve, {0: True, 1: True}),
    (CoinField(0.7, DisorderSpec(), 256), evolve, {0: False, 1: True}),
    (CoinField(0.6, DisorderSpec(model="hierarchical", W=1.0, seed=5), 256), evolve,
     {0: False, 1: True}),
    (CoinField(1.0, DisorderSpec(model="extensive", W=math.pi / 4, seed=5), 256), evolve,
     {0: False, 1: False}),
    # never checked: the box's coins are the Hadamard field's, but the sinks past its walls are not
    (hadamard_field(), lambda field, psi_ic, t_max: evolve_absorbing(field, 3, psi_ic, t_max), {}),
], ids=["hadamard", "none_barriers", "hierarchical", "extensive", "absorbing"])
def test_one_coin_per_parity_table(field, walk, one_coin, monkeypatch):
    """Which of a walk's two parity tables the compiled loop reads as one coin: the start site's is skipped.

    evolve_absorbing's walks, which have no start site, are not checked.
    """
    if walker.light_cone_kernel() != "compiled":
        pytest.skip("the compiled light-cone loop cannot be built here")
    seen = record_one_coins(monkeypatch)
    walk(field, DEFAULT_IC, 64)
    assert seen == one_coin


def hand_made_walk(s: np.ndarray, co: np.ndarray, tiny: float | None) -> list:
    """The (up, down) bytes at each time of a walk whose sites -T..T take the coins s[x + T], co[x + T]."""
    T = (len(s) - 1) // 2

    def trig_slice(cone):
        return s[T - cone:T + cone + 1:2], co[T - cone:T + cone + 1:2]

    windows = walker._windows(trig_slice, walker._as_spinor(MIXED_IC), (1, 2, 7, 64, T - 1, T),
                              False, ("real", "imag"), tiny=tiny)
    return [(up.tobytes(), down.tobytes()) for _, up, down, *_ in windows]


@pytest.mark.parametrize("site", [5, -6], ids=["odd_site", "even_site"])
@pytest.mark.parametrize("kind", ["one_ulp", "signed_zero"])
def test_compiled_loop_reads_a_table_that_is_one_coin_but_for_one_slot(site, kind, monkeypatch):
    """A table that differs from one coin at one slot, by one ulp or by the sign of a zero, is read as a table.

    Its slots are compared as bits: a value comparison takes -0.0 for +0.0,
    and with cos = -1 the sign of that zero moves into the amplitudes where
    the walk is zero. The other parity's table has one coin; the origin's
    slot holds another, which the loop replaces by the identity.
    """
    if walker.light_cone_kernel() != "compiled":
        pytest.skip("the compiled light-cone loop cannot be built here")
    T = 100
    if kind == "one_ulp":
        s, co = np.full(2 * T + 1, math.sin(0.3)), np.full(2 * T + 1, math.cos(0.3))
        s[site + T] = np.nextafter(s[site + T], 1.0)
        tiny = None
    else:
        s, co = np.full(2 * T + 1, 0.0), np.full(2 * T + 1, -1.0)
        s[site + T] = -0.0
        tiny = 0.0  # keep the zeros in the window
    s[T], co[T] = 0.0, 1.0  # the origin's table coin, which the loop replaces by the identity
    seen = record_one_coins(monkeypatch)
    compiled = hand_made_walk(s, co, tiny)
    assert seen == {site % 2: False, 1 - site % 2: True}
    monkeypatch.setattr(walker, "_load_kernel", lambda: None)
    assert compiled == hand_made_walk(s, co, tiny)


def test_step_rejects_cone_beyond_lattice():
    f = hadamard_field(4)
    assert evolve_state(f, DEFAULT_IC, 4).t == 4
    with pytest.raises(ValueError):
        evolve_state(f, DEFAULT_IC, 5)


def test_evolve_rejects_horizon_beyond_lattice():
    f = hadamard_field(16)
    with pytest.raises(ValueError):
        evolve(f, DEFAULT_IC, 17)


def test_evolve_validates_sample_times():
    f = hadamard_field(16)
    with pytest.raises(ValueError):
        evolve(f, DEFAULT_IC, 16, [4, 4, 8])
    with pytest.raises(ValueError):
        evolve(f, DEFAULT_IC, 16, [0, 4])
    with pytest.raises(ValueError):
        evolve(f, DEFAULT_IC, 16, [4, 32])
    for times in ([1.9, 3.7, 16], np.array([2.0, 4.0])):  # never truncated to integers
        with pytest.raises(ValueError, match="sample_times must be integers"):
            evolve(f, DEFAULT_IC, 16, times)
    for times in ([True, 2, 16], (1, np.True_, 16), np.array([True, False])):  # True is not t = 1
        with pytest.raises(ValueError, match="sample_times must be integers"):
            evolve(f, DEFAULT_IC, 16, times)
    for times in ([], (), np.array([], dtype=np.int64)):
        with pytest.raises(ValueError, match="^sample_times must not be empty$"):
            evolve(f, DEFAULT_IC, 16, times)
    with pytest.raises(ValueError) as err:
        evolve(f, DEFAULT_IC, 16, [1.9, True, 16])
    assert str(err.value) == "sample_times must be integers, got [1.9, True, 16]"
    assert list(evolve(f, DEFAULT_IC, 16, (1, np.int64(2), 16)).t) == [1, 2, 16]


@pytest.mark.parametrize("t_max", [True, 16.0, 15.5, "16"])
def test_walks_refuse_a_non_integer_t_max(t_max):
    f = hadamard_field(16)
    for walk in (evolve, evolve_state):
        with pytest.raises(ValueError, match="t_max must be an integer"):
            walk(f, DEFAULT_IC, t_max)
    with pytest.raises(ValueError, match="t_max must be an integer"):
        evolve_absorbing(f, 2, DEFAULT_IC, t_max)


def test_sigma_one_at_t1_symmetric():
    f = hadamard_field(8)
    series = evolve(f, DEFAULT_IC, 1, [1])
    assert series.sigma[0] == pytest.approx(1.0, abs=1e-14)


def test_default_sample_times_grid():
    ts = default_sample_times(64)
    assert ts == (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
    ts = default_sample_times(2 ** 13)
    assert ts[0] == 1 and ts[-1] == 2 ** 13
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_ballistic_sigma_over_t_constant():
    f = hadamard_field(2 ** 10)
    series = evolve(f, DEFAULT_IC, 2 ** 10)
    ratio = series.sigma[-4:] / series.t[-4:]
    assert np.all(ratio > 0.0) and np.all(ratio < 1.0)
    assert ratio.std() < 0.02  # already settled near its limit


def test_hierarchy_exponent_at_short_horizon():
    from hierwalk import extrapolation_points, fit_inv_dw, predicted_inv_dw

    f = CoinField(0.6, DisorderSpec(), 2 ** 12)
    series = evolve(f, DEFAULT_IC, 2 ** 12)
    fit = fit_inv_dw(extrapolation_points(series))
    assert abs(fit.inv_dw - predicted_inv_dw(0.6)) < 0.1


# --- absorbing walls ---------------------------------------------------------


def fixed_width_absorbing_reference(field, l, psi_ic, t_max):
    """(right, left) records of the walk between absorbing walls, stepped on the box's sites alone.

    The plain complex numpy loop over the interior sites 1..2^l - 1, the
    oracle for evolve_absorbing's light-cone walk with sink coins: each step
    applies the coins, shifts, then records and removes what reached a wall.
    """
    span = 1 << l
    theta = site_angles(field, range(1, span))
    s, co = np.sin(theta), np.cos(theta)
    up = np.zeros(span + 1, dtype=complex)
    down = np.zeros(span + 1, dtype=complex)
    up[span // 2], down[span // 2] = psi_ic[0], psi_ic[1]
    right = np.zeros((t_max, 2), dtype=complex)
    left = np.zeros((t_max, 2), dtype=complex)
    for t in range(t_max):
        cu = s * up[1:span] + co * down[1:span]
        cd = co * up[1:span] - s * down[1:span]
        up[2:], up[1] = cu, 0.0
        down[:span - 1], down[span - 1] = cd, 0.0
        right[t, 0], up[span] = up[span], 0.0
        left[t, 1], down[0] = down[0], 0.0
    return right, left


ABSORBING_FIELDS = [
    CoinField(1.0, DisorderSpec(), 256),
    CoinField(0.6, DisorderSpec(model="hierarchical", W=0.5, seed=5), 256),
    # W > pi/4: some coins have sin or cos < 0
    CoinField(0.8, DisorderSpec(model="hierarchical", W=3.0, seed=5), 256),
    CoinField(0.6, DisorderSpec(model="extensive", W=math.pi / 4, seed=5), 256),
]


def absorbing_cases(test):
    test = pytest.mark.parametrize("psi_ic", [DEFAULT_IC, RIGHT_IC, MIXED_IC, IMAG_IC],
                                   ids=["default_ic", "right_ic", "mixed_ic", "imag_ic"])(test)
    return pytest.mark.parametrize("field", ABSORBING_FIELDS,
                                   ids=["none", "hierarchical", "obtuse", "extensive"])(test)


@absorbing_cases
def test_absorbing_walk_matches_fixed_width_oracle(field, psi_ic):
    """The arrivals equal the oracle's records at t = first + 2k, in value, bit for bit in every nonzero part.

    The oracle absorbs exactly zero at every other time and in the
    component of the wrong direction: only right-movers reach x = 2^l and
    only left-movers x = 0. cumulative_absorbed() is the oracle's running
    sum of |psi|^2, byte for byte. Horizons before the first arrival at
    t = 2^(l-1), at it, and past several reflections; 3 * 2^8 + 7 lies
    beyond the field's half-width. Only the signs of exact zeros may differ.
    """
    for l in range(1, 9):
        first = 1 << (l - 1)
        for t_max in sorted({max(first - 1, 1), first, 3 * (1 << l) + 7}):
            rec = evolve_absorbing(field, l, psi_ic, t_max)
            right, left = fixed_width_absorbing_reference(field, l, psi_ic, t_max)
            dense = np.cumsum(np.sum(np.abs(right) ** 2 + np.abs(left) ** 2, axis=1))
            assert rec.cumulative_absorbed().tobytes() == dense.tobytes()
            got, ref = rec.arrivals, np.stack([right[first - 1::2, 0], left[first - 1::2, 1]], axis=1)
            assert np.array_equal(got, ref)
            got, ref = got.view(float), ref.view(float)
            nonzero = (got != 0) | (ref != 0)
            assert got[nonzero].tobytes() == ref[nonzero].tobytes()
            right[first - 1::2, 0] = left[first - 1::2, 1] = 0
            assert np.all(right == 0) and np.all(left == 0)


@absorbing_cases
def test_numpy_loop_absorbing_walk_matches_fixed_width_oracle(field, psi_ic, numpy_loop):
    test_absorbing_walk_matches_fixed_width_oracle(field, psi_ic)


def dense_layout(rec):
    """The record's (right, left) arrival spinors at t = 1..t_max, laid out by time from its arrivals."""
    right, left = np.zeros((2, rec.t_max, 2), dtype=complex)
    right[rec.first - 1::2, 0], left[rec.first - 1::2, 1] = rec.arrivals.T
    return right, left


def dense_generating_function(rec, z):
    """sum_t psi_t z^t over every recorded time: generating_function's form before it read the arrivals."""
    powers = np.full(rec.t_max, complex(z)).cumprod()  # z^1 .. z^t_max
    right, left = dense_layout(rec)
    return powers @ right, powers @ left


GENFUN_ZS = [0j, 0.9, -0.9, 0.9j, 0.5 - 0.7j] + [
    complex(z) for z in 0.9 * np.sqrt(np.linspace(0.01, 1.0, 12)) * np.exp(2j * np.pi * np.linspace(0, 1, 12))]


@pytest.mark.parametrize("loop", ["compiled", "numpy"])
@pytest.mark.parametrize("field", ABSORBING_FIELDS, ids=["none", "hierarchical", "obtuse", "extensive"])
def test_generating_function_matches_the_dense_sum(field, loop, monkeypatch):
    """To the rounding of t_max products, |z| up to 0.9, l = 1 (odd first arrival) to 5.

    The horizons stop before the first arrival (no arrival: zeros), at it,
    and past several reflections. The zero entries are +0.0.
    """
    if loop == "numpy":
        monkeypatch.setattr(walker, "_load_kernel", lambda: None)
    elif walker.light_cone_kernel() != "compiled":
        pytest.skip("the compiled loop cannot be built here")
    for l in range(1, 6):
        first = 1 << (l - 1)
        for t_max in sorted({max(first - 1, 1), first, 64}):
            rec = evolve_absorbing(field, l, DEFAULT_IC, t_max)
            for z in GENFUN_ZS:
                got = rec.generating_function(z)
                powers = np.abs(np.full(t_max, z).cumprod())
                scale = sum(powers @ np.abs(part) for part in dense_layout(rec))
                for vec, ref in zip(got, dense_generating_function(rec, z)):
                    assert vec.shape == (2,) and vec.dtype == np.complex128
                    assert np.all(np.abs(vec - ref) <= 4 * t_max * np.finfo(float).eps * scale)
                right, left = got
                assert right[1:].tobytes() == left[:1].tobytes() == bytes(16)
                if first > t_max:
                    assert right.tobytes() == left.tobytes() == bytes(32)


@absorbing_cases
def test_absorbing_record_holds_its_arrivals_at_first_plus_2k(field, psi_ic):
    """One arrival per t = first + 2k <= t_max, and probability absorbed at those times alone.

    cumulative_absorbed() has one entry per time 1..t_max and moves only at
    the arrival times, where it is the running sum of |arrivals[k]|^2; it
    is all zeros where the horizon stops before the first arrival.
    """
    for l in (1, 3, 5):
        first = 1 << (l - 1)
        for t_max in sorted({max(first - 1, 1), first, first + 1, 64}):
            rec = evolve_absorbing(field, l, psi_ic, t_max)
            assert (rec.t_max, rec.first) == (t_max, first)
            assert rec.arrivals.shape == (len(range(first, t_max + 1, 2)), 2)
            assert rec.arrivals.dtype == np.complex128
            cum = rec.cumulative_absorbed()
            assert cum.shape == (t_max,) and cum.dtype == np.float64
            at_arrivals = np.cumsum(np.sum(np.abs(rec.arrivals) ** 2, axis=1))
            assert cum[first - 1::2].tobytes() == at_arrivals.tobytes()
            assert np.all(cum[:first - 1] == 0) and np.all(cum[first::2] == cum[first - 1:t_max - 1:2])
            if first > t_max:
                assert len(rec.arrivals) == 0 and cum.tobytes() == bytes(8 * t_max)


def test_a_record_without_arrivals_still_refuses_a_non_finite_z():
    rec = evolve_absorbing(hadamard_field(16), 4, DEFAULT_IC, 7)  # the first arrival is at t = 8
    assert len(rec.arrivals) == 0
    for z in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="z must be finite"):
            rec.generating_function(z)


def test_absorbing_l1_single_step():
    f = hadamard_field(4)
    rec = evolve_absorbing(f, 1, RIGHT_IC, 5)
    assert rec.first == 1 and rec.arrivals.shape == (3, 2)  # t = 1, 3, 5
    assert rec.arrivals[0, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert rec.arrivals[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    # single interior site: everything is absorbed at t = 1
    assert np.all(rec.arrivals[1:] == 0)
    assert np.all(rec.cumulative_absorbed() == rec.cumulative_absorbed()[0])


def test_absorbing_records_compare_and_hash_by_identity():
    f = hadamard_field(16)
    a, b = (evolve_absorbing(f, 2, DEFAULT_IC, 8) for _ in range(2))
    assert a.arrivals.tobytes() == b.arrivals.tobytes()
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_generating_function_past_the_float_range_is_non_finite():
    """No OverflowError, which z ** first would raise: non-finite wall entries, +0.0 zeros."""
    field = CoinField(0.7, DisorderSpec("hierarchical", 1.0, 3), 4096)
    rec = evolve_absorbing(field, 12, DEFAULT_IC, 4200)
    assert rec.first == 2048 and len(rec.arrivals) > 0
    with pytest.raises(OverflowError):
        complex(2.0) ** rec.first
    with np.errstate(invalid="ignore", over="ignore"):
        right, left = rec.generating_function(2.0)
    assert not np.isfinite(right[0]) and not np.isfinite(left[1])
    assert right[1:].tobytes() == left[:1].tobytes() == bytes(16)


def test_absorbing_total_probability_reaches_one():
    f = CoinField(0.8, DisorderSpec(), 16)
    rec = evolve_absorbing(f, 3, DEFAULT_IC, 1024)
    cum = rec.cumulative_absorbed()
    assert cum[-1] == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 4),
    st.floats(0.3, 1.0),
    st.floats(0.0, math.pi),
    st.integers(0, 2 ** 32),
)
def test_absorbed_probability_monotone_and_bounded(l, eps, W, seed):
    f = CoinField(eps, DisorderSpec(model="hierarchical", W=W, seed=seed), 2 ** l)
    rec = evolve_absorbing(f, l, DEFAULT_IC, 128)
    cum = rec.cumulative_absorbed()
    assert np.all(np.diff(cum) >= -1e-15)
    assert cum[-1] <= 1.0 + 1e-12


def test_absorbing_rejects_bad_arguments():
    f = hadamard_field(16)
    for l in (True, 3.5, 3.0):  # True is not l = 1, and 3.5 is refused before 1 << l
        with pytest.raises(ValueError, match="l must be an integer"):
            evolve_absorbing(f, l, DEFAULT_IC, 10)
    with pytest.raises(ValueError):
        evolve_absorbing(f, 0, DEFAULT_IC, 10)
    with pytest.raises(ValueError):
        evolve_absorbing(f, 1, DEFAULT_IC, 0)
    with pytest.raises(ValueError):
        evolve_absorbing(f, 5, DEFAULT_IC, 10)  # interior site 31 beyond half_width 16
