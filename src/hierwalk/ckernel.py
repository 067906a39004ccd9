"""The light-cone walk's time loop in C, built with the system C compiler on first use.

`load()` returns the loop as a ctypes function, or None where it cannot be
had: no compiler, a compile error, an unwritable cache or a library that will
not load. Then `walker` steps the same loop in numpy. Nothing here runs at
import. Both of walker's walks run on it: evolve_absorbing's passes
origin = 0, its start site taking its table coin, and tiny = 0, no trim.

The library is cached as ${XDG_CACHE_HOME:-~/.cache}/hierwalk/lightcone-<hash>.so,
the hash taken over the C source and the compiler flags. It is written to a
temporary file and renamed into place, so processes that build it at once
never load a half-written file.

The C follows numpy's operation order in `walker._numpy_steps`: each product
of the coin is rounded on its own before the sum (-ffp-contract=off forbids
fused multiply-adds), so every amplitude is bit-identical to the numpy loop,
signed zeros included. So is the trim's certificate B: each trim sums the
squares it drops in one fixed order, which the numpy loop repeats with a
cumulative sum, and adds their square root. Never build it with -ffast-math:
that links code that flushes subnormals to zero in the whole process, numpy
included, and lets the compiler reorder those sums.

Where numpy steps one cone at a time and rescans the window at every even
cone, the C steps the two cones from an even cone in one pass over the
window: the odd cone's amplitude at a slot is recomputed from two slots of
the even cone, with the same products, and never stored. That halves the
passes over memory; rescanning that often keeps the window's edges out of
subnormal arithmetic, which costs far more per update than normal numbers.

A pass streams only the coins that vary. Where every slot of a parity table
but the start site's holds one coin, bit for bit, walker passes that
(sin, cos) as coin_a or coin_b, and pair() multiplies by it instead of
loading the table. On the fields of shared levels (models none and
hierarchical) every odd site is level 0, so every odd cone has one coin; on
the Hadamard field every cone has. pair() is one inlined body that two
constant flags specialize, so each of its four cases compiles to its own
loop.

Where the compiler has target_clones, on x86-64 with glibc (whose ifuncs
pick a clone per CPU when the library loads), lightcone_steps is built twice:
for AVX2 and for the x86-64 baseline. Every helper is always_inline, so
each clone holds the whole loop: a helper left out of line would run its
baseline code in both (a build that clones lightcone_steps alone has no ymm
instruction in its AVX2 clone). Elsewhere the default function alone is
built. The flags name no -march: the CPU is asked when the library loads.

Neither moves a byte. A coin bit-equal to every table entry it stands for
gives the same products, and every clone does the same IEEE operations per
slot: each product rounded on its own (the avx2 target has no FMA, and
-ffp-contract=off forbids contraction anyway), and the trim's sum of
squares in order, as no reassociation is allowed.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import struct
import subprocess
import tempfile
from pathlib import Path

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Every helper is inlined into lightcone_steps, so that each of its clones
   compiles the whole loop for its target. */
#define INLINE static inline __attribute__((always_inline))

/* An AVX2 clone and a default one, chosen for the CPU when the library loads
   (an ifunc, so x86-64 and glibc only); elsewhere the default alone. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONED
#define CLONED
#endif

INLINE int kept(const double *up, const double *down, int64_t rows, int64_t n,
                int64_t q, double tiny)
{
    for (int64_t r = 0; r < rows; r++)
        if (fabs(up[r * n + q]) >= tiny || fabs(down[r * n + q]) >= tiny)
            return 1;
    return 0;
}

/* Move the window [lo, hi) past its edge slots whose every amplitude is
   below tiny, and zero those slots in all four buffers. Adds to *dropped
   the 2-norm of the psi the state loses: the rows' up and down amplitudes
   at the dropped slots, and as much again for the mirror image of a mirror
   walk, whose dropped slots are these slots' mirrors. The squares are
   summed row by row, up before down, left edge before right. */
INLINE void trim(double *const bufs[4], int64_t rows, int64_t n, int32_t mirror,
                 double tiny, int64_t *lo, int64_t *hi, double *dropped)
{
    int64_t first = *lo, last = *hi - 1;
    while (first < *hi && !kept(bufs[0], bufs[1], rows, n, first, tiny))
        first++;
    while (last > first && !kept(bufs[0], bufs[1], rows, n, last, tiny))
        last--;
    if (first == *hi)  /* never true: the state keeps its unit norm */
        return;
    int64_t new_lo = first, new_hi = last + 1;
    if (mirror) {  /* slot q mirrors slot lo + hi - 1 - q */
        if (*lo + *hi - 1 - last < new_lo)
            new_lo = *lo + *hi - 1 - last;
        if (*lo + *hi - first > new_hi)
            new_hi = *lo + *hi - first;
    }
    double sq = 0.0;
    for (int64_t r = 0; r < rows; r++)
        for (int b = 0; b < 2; b++) {
            const double *a = bufs[b] + r * n;
            for (int64_t q = *lo; q < new_lo; q++)
                sq += a[q] * a[q];
            for (int64_t q = new_hi; q < *hi; q++)
                sq += a[q] * a[q];
        }
    *dropped += sqrt(mirror ? 2.0 * sq : sq);
    for (int b = 0; b < 4; b++)
        for (int64_t r = 0; r < rows; r++) {
            for (int64_t q = *lo; q < new_lo; q++)
                bufs[b][r * n + q] = 0.0;
            for (int64_t q = new_hi; q < *hi; q++)
                bufs[b][r * n + q] = 0.0;
        }
    *lo = new_lo;
    *hi = new_hi;
}

/* One step of one walk over the window [lo, hi), with the origin's identity
   coin at slot q0 (pass -1 on odd cones, or for no identity). nd[hi] is not stored: it lies
   beyond the older state's window, so it holds +0.0 already. */
INLINE void step(const double *restrict u, const double *restrict d,
                 double *restrict nu, double *restrict nd,
                 const double *s, const double *co, int64_t lo, int64_t hi, int64_t q0)
{
    for (int64_t q = lo; q < hi; q++) {
        nu[q + 1] = s[q] * u[q] + co[q] * d[q];
        nd[q] = co[q] * u[q] - s[q] * d[q];
    }
    if (lo <= q0 && q0 < hi) {
        nu[q0 + 1] = u[q0];
        nd[q0] = d[q0];
    }
    nu[lo] = 0.0;
}

/* Entry p of a coin table, or with one set, the coin at its slot 0 that every
   slot shares. */
INLINE double coin(const double *a, int64_t p, int one)
{
    return a[one ? 0 : p];
}

/* Two steps of one walk, from the even cone c (coin s0, c0, window [lo, hi),
   origin at slot q0) over cone c + 1 (coin s1, c1) in one pass. The state
   of cone c + 1 at slot p is recomputed from slots p - 1 and p of cone c with
   step()'s products, and never stored. Its slots that are not the coin's are
   peeled: +0.0 up at lo, +0.0 down at hi, and the identity coin, down at q0
   and up at q0 + 1. With one0 (one1) set, cone c (c + 1) has one coin, held
   at slot 0 of its tables; the calls pass constants, so each of the four
   cases compiles to its own loop, which streams only the tables that vary. */
INLINE void pair(const double *restrict u, const double *restrict d,
                 double *restrict nu, double *restrict nd,
                 const double *s0, const double *c0, const double *s1, const double *c1,
                 int64_t lo, int64_t hi, int64_t q0, const int one0, const int one1)
{
    const int origin = lo <= q0 && q0 < hi;
    int64_t peel[4], n_peel = 0;
    peel[n_peel++] = lo;
    if (origin && q0 > lo)
        peel[n_peel++] = q0;
    if (origin && q0 + 1 < hi)
        peel[n_peel++] = q0 + 1;
    peel[n_peel++] = hi;
    int64_t p = lo;
    for (int k = 0; k < n_peel; k++, p++) {
        for (; p < peel[k]; p++) {
            const double mu = coin(s0, p - 1, one0) * u[p - 1] + coin(c0, p - 1, one0) * d[p - 1];
            const double md = coin(c0, p, one0) * u[p] - coin(s0, p, one0) * d[p];
            nu[p + 1] = coin(s1, p, one1) * mu + coin(c1, p, one1) * md;
            nd[p] = coin(c1, p, one1) * mu - coin(s1, p, one1) * md;
        }
        const double mu = p == lo ? 0.0
                        : origin && p - 1 == q0 ? u[q0]
                        : coin(s0, p - 1, one0) * u[p - 1] + coin(c0, p - 1, one0) * d[p - 1];
        const double md = p == hi ? 0.0
                        : origin && p == q0 ? d[q0]
                        : coin(c0, p, one0) * u[p] - coin(s0, p, one0) * d[p];
        nu[p + 1] = coin(s1, p, one1) * mu + coin(c1, p, one1) * md;
        nd[p] = coin(c1, p, one1) * mu - coin(s1, p, one1) * md;
    }
    nu[lo] = 0.0;
}

/* Step rows (1 or 2) real walks from time t0 to t1 >= t0. Each buffer holds
   the rows one after the other, n slots each; slot q of cone c is site
   x = -c + 2q. window = [lo, hi) is the slot range outside which every
   amplitude of up and down is zero; it is read and written back, and so is
   *dropped, to which each trim adds the 2-norm of the psi it drops. next_up
   and next_down hold an earlier state, zero outside the window too. The
   window is trimmed at every even cone, and the two steps from an even cone
   run as one pair; an odd t0 or t1 takes a single step. Returns 1 if the
   state ends in next_up and next_down, 0 if in up and down. The sin and cos
   of cone c start at offset (n - 1 - c) / 2 of the tables for cone n - 1
   (cone parity equal to that of n - 1) or cone n - 2 (the other). The start
   site, slot c / 2 of even cones, has the identity coin if origin is set.
   coin_a (coin_b) is NULL, or the (sin, cos) held by every slot of table a
   (b) but the start site's: then pairs read it in place of the table. */
CLONED int lightcone_steps(double *up, double *down, double *next_up, double *next_down,
                           int64_t rows, int64_t n, int32_t mirror, int32_t origin,
                           const double *sin_a, const double *cos_a,
                           const double *sin_b, const double *cos_b,
                           const double *coin_a, const double *coin_b,
                           int64_t t0, int64_t t1, double tiny, int64_t *window,
                           double *dropped)
{
    int64_t lo = window[0], hi = window[1];
    int swapped = 0;
    for (int64_t c = t0; c < t1;) {
        const int64_t back = n - 1 - c;
        const double *s = ((back & 1) ? sin_b : sin_a) + back / 2;
        const double *co = ((back & 1) ? cos_b : cos_a) + back / 2;
        if (c % 2 == 0) {
            double *const bufs[4] = {up, down, next_up, next_down};
            trim(bufs, rows, n, mirror, tiny, &lo, &hi, dropped);
        }
        const int64_t q0 = c % 2 || !origin ? -1 : c / 2;  /* the origin's slot on even cones */
        const int64_t steps = c % 2 == 0 && c + 2 <= t1 ? 2 : 1;
        /* cone c + 1 takes the other table at offset (back - 1) / 2 */
        const double *s1 = ((back & 1) ? sin_a : sin_b) + (back - 1) / 2;
        const double *c1 = ((back & 1) ? cos_a : cos_b) + (back - 1) / 2;
        const double *k0 = (back & 1) ? coin_b : coin_a, *k1 = (back & 1) ? coin_a : coin_b;
        for (int64_t r = 0; r < rows; r++) {
            double *u = up + r * n, *d = down + r * n, *nu = next_up + r * n, *nd = next_down + r * n;
            if (steps == 1)
                step(u, d, nu, nd, s, co, lo, hi, q0);
            else if (k0 && k1)
                pair(u, d, nu, nd, k0, k0 + 1, k1, k1 + 1, lo, hi, q0, 1, 1);
            else if (k0)
                pair(u, d, nu, nd, k0, k0 + 1, s1, c1, lo, hi, q0, 1, 0);
            else if (k1)
                pair(u, d, nu, nd, s, co, k1, k1 + 1, lo, hi, q0, 0, 1);
            else
                pair(u, d, nu, nd, s, co, s1, c1, lo, hi, q0, 0, 0);
        }
        double *swap = up; up = next_up; next_up = swap;
        swap = down; down = next_down; next_down = swap;
        swapped ^= 1;
        c += steps;
        hi += steps;  /* up moves one slot right per step; the cone gains one slot */
    }
    window[0] = lo;
    window[1] = hi;
    return swapped;
}
"""

_CC = "cc"
# Never -ffast-math (it flushes subnormals process-wide) nor -march=native.
# -fno-math-errno inlines sqrt, so the library needs no libm.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

_P = ctypes.c_void_p
_I64 = ctypes.c_int64
_ARGTYPES = (_P, _P, _P, _P, _I64, _I64, ctypes.c_int32, ctypes.c_int32, _P, _P, _P, _P, _P, _P,
             _I64, _I64, ctypes.c_double, _P, _P)


def library_path() -> Path:
    """Where the library for this source and these flags is cached."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    digest = hashlib.sha256("\0".join((_SOURCE, *_FLAGS)).encode()).hexdigest()[:16]
    return Path(cache) / "hierwalk" / f"lightcone-{digest}.so"


def _truncated_elf(path: Path) -> bool:
    """True if the file is an ELF file that ends before its section headers.

    The linker writes the section headers last, so a truncated library ends
    before them. Mapping a truncated library can kill the process with
    SIGBUS when a page beyond the end of the file is touched, so it must
    never reach dlopen. Any other bad file is refused by dlopen itself.
    """
    with open(path, "rb") as f:
        head = f.read(64)
        size = os.fstat(f.fileno()).st_size
    if head[:4] != b"\x7fELF":
        return False
    if len(head) < 64:  # shorter than a 64-bit header; any library is far longer
        return True
    order = "<" if head[5] == 1 else ">"
    if head[4] == 2:  # 64-bit: e_shoff at 0x28, e_shentsize and e_shnum at 0x3A
        (shoff,) = struct.unpack_from(order + "Q", head, 0x28)
        shentsize, shnum = struct.unpack_from(order + "HH", head, 0x3A)
    else:  # 32-bit: e_shoff at 0x20, e_shentsize and e_shnum at 0x2E
        (shoff,) = struct.unpack_from(order + "I", head, 0x20)
        shentsize, shnum = struct.unpack_from(order + "HH", head, 0x2E)
    return shoff + shentsize * shnum > size


def _open(path: Path):
    if _truncated_elf(path):
        raise OSError(f"{path}: truncated library")
    fn = ctypes.CDLL(str(path)).lightcone_steps
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int
    return fn


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([_CC, *_FLAGS, "-o", tmp, "-x", "c", "-"], input=_SOURCE, text=True,
                       capture_output=True, check=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load():
    """`lightcone_steps` from the cached library, built first if it is missing or will not load.

    None if it can be neither loaded nor built; the result is kept for the
    life of the process.
    """
    path = library_path()
    try:
        return _open(path)
    except (OSError, AttributeError):  # missing, truncated, not a library or not ours: rebuild
        pass
    try:
        _build(path)
        return _open(path)
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
