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

From an even cone c with four cones to go, one pass steps all four and
leaves the state where it was (four_cones). The pair from cone c runs
first on the window's two edges, into next_up and next_down, chunk by
chunk until cone c + 2 has a kept slot at each edge; the trim at c + 2
reads only those edges, so it drops the same slots and adds the same B as
between two passes. The interior then runs in tiles of 256 slots: the
pair from cone c writes cone c + 2 into a ring of two tiles on the stack,
and the pair from cone c + 2 follows one tile behind and writes cone c + 4
over cone c in up and down. The edges take their second pair from
next_up and next_down. Where less than a tile lies between the edges,
cone c + 2 is finished in next_up and next_down and the second pair runs
over the whole window, as two passes would. A wide window thus crosses the
L2 cache once per four cones, reading and writing up and down, where two
passes read two buffers and write two others each: some 32 bytes per
slot and four cones instead of 96. On windows up to about 1,000 slots,
whose four buffers fit the L1 cache, there is no traffic to save, and the
pass's extra calls on its edges and tiles make an update some 15 % dearer.

A pass streams only the coins that vary. Where every slot of a parity table
but the start site's holds one coin, bit for bit, walker passes that
(sin, cos) as coin_a or coin_b, and span() multiplies by it instead of
loading the table. On the fields of shared levels (models none and
hierarchical) every odd site is level 0, so every odd cone has one coin; on
the Hadamard field every cone has. span(), the loop over a range of slots
that every pass calls, is one body that two constant flags specialize; it
is inlined into one function per coin case, so each case compiles to its
own loop.

Where the compiler has target_clones, on x86-64 with glibc (whose ifuncs
pick a clone per CPU when the library loads), each of those four functions
is built three times: for AVX-512F, for AVX2 and for the x86-64 baseline.
The resolver takes the AVX-512F clone where the CPU and the OS support it,
else the AVX2 one, else the baseline. That guard is the only one: every
compiler with target_clones on x86 (GCC 6 on, clang 14 on) knows both
feature names, so no compiler version is tested. The library's
lightcone_isa() names the clone this CPU runs; `_open` keeps it as the
loop's `isa`.
The control code (the edge search, the trim, the ring's bookkeeping and
the single steps) is built once, for the baseline, and calls them
through a pointer; the span body is inlined nowhere else, which keeps the
build under a second (inlined at every call site of a cloned control
loop, it took 6.3 s). Elsewhere the default functions alone are built.
The flags name no -march: the CPU is asked when the library loads.

None of this moves a byte. Every amplitude of cones c + 1 to c + 4 is the
same span() products of the same inputs, whichever buffer or ring tile
holds them, and the trim reads the same cone c + 2 it would read between
two passes. A coin bit-equal to every table entry it stands for gives the
same products, and every clone does the same IEEE operations per slot:
each product rounded on its own, and the trim's sum of squares in order,
in the baseline control code, as no reassociation is allowed. AVX-512F
encodes fused multiply-adds, so the products stay unfused only because
-ffp-contract=off forbids contraction; CI checks that the library holds
no fused multiply-add instruction.
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

/* The four-cone pass steps its interior in tiles of TILE pair slots (at
   least 2), and searches the window's edges in chunks of EDGE slots. */
#define TILE 256
#define EDGE 16

/* The span body is inlined into one function per coin case, so that each
   case compiles to its own loop. */
#define INLINE static inline __attribute__((always_inline))

/* Each of those four functions gets an AVX-512F clone, an AVX2 one and a
   default one, chosen for the CPU when the library loads (an ifunc, so
   x86-64 and glibc only); elsewhere the default alone. Every compiler with
   target_clones on x86 knows both features. The control code is built
   once, for the baseline. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx512f", "avx2", "default")))
#define CLONES 1
#endif
#endif
#ifndef CLONED
#define CLONED
#endif

/* The clone of the span functions that the ifunc resolver picks on this
   CPU: the same feature checks, in its order. "baseline" where there are
   no clones. */
const char *lightcone_isa(void)
{
#ifdef CLONES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "baseline";
}

static int kept(const double *up, const double *down, int64_t rows, int64_t n,
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
   summed row by row, up before down, left edge before right. Reads no slot
   beyond the first kept one from either edge, and the dropped ones. */
static void trim(double *const bufs[4], int64_t rows, int64_t n, int32_t mirror,
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
static void step(const double *restrict u, const double *restrict d,
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

/* The two steps from an even cone c: the coins of cone c (s0, c0) and of
   cone c + 1 (s1, c1), each a table or, in its coin case, one (sin, cos)
   at index 0; cone c's window [lo, hi), its origin slot q0 (-1 for none),
   and the span function of its coin case. */
struct pair;
#define SPAN_PARAMS const double *restrict u, const double *restrict d, int64_t io, \
                    double *restrict nu, double *restrict nd, int64_t oo, int64_t a, int64_t b, \
                    const struct pair *w
typedef void span_fn(SPAN_PARAMS);
struct pair {
    const double *s0, *c0, *s1, *c1;
    int64_t lo, hi, q0;
    span_fn *span;
};

/* Entry p of a coin table, or with one set, the coin at its slot 0 that every
   slot shares. */
INLINE double coin(const double *a, int64_t p, int one)
{
    return a[one ? 0 : p];
}

/* The pair from cone c over the pair slots [a, b), within [lo, hi + 1):
   slot p writes cone c + 2's up at slot p + 1 and down at slot p, from
   cone c's slots p - 1 and p. The state of cone c + 1 at slot p is
   recomputed from those with step()'s products, and never stored. Slot i of
   cone c is u[i - io], d[i - io]; slot i of cone c + 2 is nu[i - oo],
   nd[i - oo]. A span that starts at lo stores +0.0 up there. The slots
   that are not the coins' are peeled: +0.0 up at lo, +0.0 down at hi, and
   the identity coin, down at q0 and up at q0 + 1. With one0 (one1) set,
   cone c (c + 1) has one coin; the callers pass constants, so each of the
   four cases compiles to its own loop, which streams only the tables that
   vary. */
INLINE void span(const double *restrict u, const double *restrict d, int64_t io,
                 double *restrict nu, double *restrict nd, int64_t oo, int64_t a, int64_t b,
                 const struct pair *w, const int one0, const int one1)
{
    const double *s0 = w->s0, *c0 = w->c0, *s1 = w->s1, *c1 = w->c1;
    const int64_t lo = w->lo, hi = w->hi, q0 = w->q0;
    const int origin = lo <= q0 && q0 < hi;
    /* the peeled slots in order, then the span's end */
    const int64_t stops[5] = {lo, origin ? q0 : lo, origin ? q0 + 1 : lo, hi, b};
    int64_t p = a;
    for (int k = 0; k < 5; k++) {
        if (stops[k] < p)  /* before the span, or peeled already */
            continue;
        for (const int64_t end = stops[k] < b ? stops[k] : b; p < end; p++) {
            const double mu = coin(s0, p - 1, one0) * u[p - 1 - io] + coin(c0, p - 1, one0) * d[p - 1 - io];
            const double md = coin(c0, p, one0) * u[p - io] - coin(s0, p, one0) * d[p - io];
            nu[p + 1 - oo] = coin(s1, p, one1) * mu + coin(c1, p, one1) * md;
            nd[p - oo] = coin(c1, p, one1) * mu - coin(s1, p, one1) * md;
        }
        if (p == b)
            break;
        const double mu = p == lo ? 0.0
                        : origin && p - 1 == q0 ? u[q0 - io]
                        : coin(s0, p - 1, one0) * u[p - 1 - io] + coin(c0, p - 1, one0) * d[p - 1 - io];
        const double md = p == hi ? 0.0
                        : origin && p == q0 ? d[q0 - io]
                        : coin(c0, p, one0) * u[p - io] - coin(s0, p, one0) * d[p - io];
        nu[p + 1 - oo] = coin(s1, p, one1) * mu + coin(c1, p, one1) * md;
        nd[p - oo] = coin(c1, p, one1) * mu - coin(s1, p, one1) * md;
        p++;
    }
    if (a == lo)
        nu[lo - oo] = 0.0;
}

/* the span of each coin case: tables for both cones, one coin for cone c, for c + 1, for both */
CLONED static void span_tables(SPAN_PARAMS) { span(u, d, io, nu, nd, oo, a, b, w, 0, 0); }
CLONED static void span_coin0(SPAN_PARAMS) { span(u, d, io, nu, nd, oo, a, b, w, 1, 0); }
CLONED static void span_coin1(SPAN_PARAMS) { span(u, d, io, nu, nd, oo, a, b, w, 0, 1); }
CLONED static void span_coins(SPAN_PARAMS) { span(u, d, io, nu, nd, oo, a, b, w, 1, 1); }

/* Four steps from the even cone c (pair p1, window [*lo, *hi)) to c + 4,
   with the state in up and down before and after, and cone c + 2 trimmed
   as it would be between two pairs. First the pair from cone c runs on the
   window's edges into next_up and next_down, chunk by chunk, until cone
   c + 2 has a kept slot at each edge; trim() at cone c + 2 then reads only
   those edges. Between them, tile by tile, the pair from cone c writes
   cone c + 2 into a ring of two tiles, and the pair from cone c + 2 (p2,
   whose window the trim sets) runs one tile behind and writes cone c + 4
   over cone c in up and down: it overwrites cone c at slots the next tile
   reads, so that tile is stepped first. The edges take their second pair
   from next_up and next_down. With less than a tile between the edges,
   cone c + 2 is finished in next_up and next_down and the second pair runs
   over the window. Every slot is the same span() products either way;
   next_up and next_down stay zero outside the window, as the trim zeroes
   the slots it drops in all four buffers. */
static void four_cones(double *up, double *down, double *next_up, double *next_down,
                       int64_t rows, int64_t n, int32_t mirror, double tiny,
                       const struct pair *p1, struct pair *p2, int64_t *lo, int64_t *hi,
                       double *dropped)
{
    span_fn *const fn = p1->span;  /* and p2's: the two pairs' cones have the same parities */
    int64_t el = *lo, er = *hi + 1;  /* the pair slots [lo, el) and [er, hi + 1) are done */
    for (int64_t q = *lo; el < er;) {  /* slots of cone c + 2 below el are whole */
        const int64_t b = el + EDGE < er ? el + EDGE : er;
        for (int64_t r = 0; r < rows; r++)
            fn(up + r * n, down + r * n, 0, next_up + r * n, next_down + r * n, 0, el, b, p1);
        el = b;
        while (q < el && !kept(next_up, next_down, rows, n, q, tiny))
            q++;
        if (q < el)
            break;
    }
    for (int64_t q = *hi + 1; el < er;) {  /* and above er */
        const int64_t a = er - EDGE > el ? er - EDGE : el;
        for (int64_t r = 0; r < rows; r++)
            fn(up + r * n, down + r * n, 0, next_up + r * n, next_down + r * n, 0, a, er, p1);
        er = a;
        while (q > er && !kept(next_up, next_down, rows, n, q, tiny))
            q--;
        if (q > er)
            break;
    }
    double *const bufs[4] = {next_up, next_down, up, down};
    *hi += 2;
    trim(bufs, rows, n, mirror, tiny, lo, hi, dropped);
    p2->lo = *lo;
    p2->hi = *hi;
    for (int64_t r = 0; r < rows; r++) {
        double *u = up + r * n, *d = down + r * n, *nu = next_up + r * n, *nd = next_down + r * n;
        if (er - el < TILE) {
            fn(u, d, 0, nu, nd, 0, el, er, p1);
            fn(nu, nd, 0, u, d, 0, *lo, *hi + 1, p2);
            continue;
        }
        /* cone c + 2 at the slots [a - 1, a + TILE + 1) of the tile [a, b), slot i at i - (a - 1) */
        double ring_u[2][TILE + 2], ring_d[2][TILE + 2];
        int64_t a = el, b = el + TILE;
        fn(u, d, 0, ring_u[0], ring_d[0], a - 1, a, b, p1);
        ring_u[0][0] = nu[a - 1];  /* the halo, from the left edge */
        ring_u[0][1] = nu[a];
        ring_d[0][0] = nd[a - 1];
        fn(nu, nd, 0, u, d, 0, *lo, el, p2);  /* after the first tile has read cone c at el - 1 and el */
        for (int k = 0; a < er; k ^= 1) {
            const int64_t a1 = b, b1 = b + TILE < er ? b + TILE : er;
            double *hu = nu + b - 1, *hd = nd + b - 1;  /* where the halo goes: next_* after the last tile */
            if (a1 < er) {
                fn(u, d, 0, ring_u[k ^ 1], ring_d[k ^ 1], a1 - 1, a1, b1, p1);
                hu = ring_u[k ^ 1];
                hd = ring_d[k ^ 1];
            }
            hu[0] = ring_u[k][b - a];
            hu[1] = ring_u[k][b - a + 1];
            hd[0] = ring_d[k][b - a];
            fn(ring_u[k], ring_d[k], a - 1, u, d, 0, a, b, p2);
            a = a1;
            b = b1;
        }
        fn(nu, nd, 0, u, d, 0, er, *hi + 1, p2);
    }
    *hi += 2;
}

/* The pair from the even cone c with its coins from the tables of either
   parity, or their one coins, and the start site's slot c / 2 if origin is
   set. The window is the caller's. Cone c takes table a where n - 1 - c is
   even, b where it is odd, so which of coin_a and coin_b is cone c's
   depends on the parity of n. */
static struct pair pair_at(int64_t c, int64_t n, int32_t origin, const double *const tsin[2],
                           const double *const tcos[2], const double *const one[2])
{
    const int64_t back = n - 1 - c;
    const int t0 = back & 1, t1 = !t0;  /* the tables of cone c and of cone c + 1 */
    struct pair w = {tsin[t0] + back / 2, tcos[t0] + back / 2, tsin[t1] + (back - 1) / 2,
                     tcos[t1] + (back - 1) / 2, 0, 0, origin ? c / 2 : -1,
                     one[t0] ? (one[t1] ? span_coins : span_coin0) : (one[t1] ? span_coin1 : span_tables)};
    if (one[t0]) {
        w.s0 = one[t0];
        w.c0 = one[t0] + 1;
    }
    if (one[t1]) {
        w.s1 = one[t1];
        w.c1 = one[t1] + 1;
    }
    return w;
}

/* Step rows (1 or 2) real walks from time t0 to t1 >= t0. Each buffer holds
   the rows one after the other, n slots each; slot q of cone c is site
   x = -c + 2q. window = [lo, hi) is the slot range outside which every
   amplitude of up and down is zero; it is read and written back, and so is
   *dropped, to which each trim adds the 2-norm of the psi it drops. next_up
   and next_down hold an earlier state, zero outside the window too. The
   window is trimmed at every even cone. From an even cone, four steps run
   as one pass that leaves the state in place (four_cones), or where fewer
   remain, two as one pair; an odd t0 or t1 takes a single step. Returns 1
   if the state ends in next_up and next_down, 0 if in up and down. The sin
   and cos of cone c start at offset (n - 1 - c) / 2 of the tables for cone
   n - 1 (cone parity equal to that of n - 1) or cone n - 2 (the other).
   The start site, slot c / 2 of even cones, has the identity coin if
   origin is set. coin_a (coin_b) is NULL, or the (sin, cos) held by every
   slot of table a (b) but the start site's: then pairs read it in place of
   the table. */
int lightcone_steps(double *up, double *down, double *next_up, double *next_down,
                    int64_t rows, int64_t n, int32_t mirror, int32_t origin,
                    const double *sin_a, const double *cos_a,
                    const double *sin_b, const double *cos_b,
                    const double *coin_a, const double *coin_b,
                    int64_t t0, int64_t t1, double tiny, int64_t *window,
                    double *dropped)
{
    const double *const tsin[2] = {sin_a, sin_b}, *const tcos[2] = {cos_a, cos_b};
    const double *const one[2] = {coin_a, coin_b};
    int64_t lo = window[0], hi = window[1];
    int swapped = 0;
    for (int64_t c = t0; c < t1;) {
        if (c % 2 == 0) {
            double *const bufs[4] = {up, down, next_up, next_down};
            trim(bufs, rows, n, mirror, tiny, &lo, &hi, dropped);
        }
        const int64_t steps = c % 2 ? 1 : c + 4 <= t1 ? 4 : c + 2 <= t1 ? 2 : 1;
        struct pair p = pair_at(c, n, origin, tsin, tcos, one);  /* read from even cones only */
        p.lo = lo;
        p.hi = hi;
        if (steps == 4) {
            struct pair p2 = pair_at(c + 2, n, origin, tsin, tcos, one);
            four_cones(up, down, next_up, next_down, rows, n, mirror, tiny, &p, &p2, &lo, &hi, dropped);
        } else {
            const int64_t back = n - 1 - c;
            for (int64_t r = 0; r < rows; r++) {
                double *u = up + r * n, *d = down + r * n, *nu = next_up + r * n, *nd = next_down + r * n;
                if (steps == 2)
                    p.span(u, d, 0, nu, nd, 0, lo, hi + 1, &p);
                else  /* cone c's table, whatever its coin case; the origin's slot on even cones */
                    step(u, d, nu, nd, tsin[back & 1] + back / 2, tcos[back & 1] + back / 2, lo, hi,
                         c % 2 ? -1 : p.q0);
            }
            double *swap = up; up = next_up; next_up = swap;
            swap = down; down = next_down; next_down = swap;
            swapped ^= 1;
            hi += steps;  /* up moves one slot right per step; the cone gains one slot */
        }
        c += steps;
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
    """The library's lightcone_steps, its `isa` the clone of the span functions this CPU runs."""
    if _truncated_elf(path):
        raise OSError(f"{path}: truncated library")
    library = ctypes.CDLL(str(path))
    fn = library.lightcone_steps
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int
    library.lightcone_isa.argtypes = ()
    library.lightcone_isa.restype = ctypes.c_char_p
    fn.isa = library.lightcone_isa().decode()
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
