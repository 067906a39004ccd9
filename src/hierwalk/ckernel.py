"""The light-cone walk's time loop and the RG recursion in C, built with the system C compiler on first use.

`load()` returns the loop, lightcone_steps, as a ctypes function, its
`recursion` the recursion's level loop, rg_absorbed; or None where the
library cannot be had: no compiler, a compile error, an unwritable cache or
a library that will not load. Then `walker` steps the same loop in numpy
and `rgflow` runs the recursion's loop in Python. Nothing here runs at
import. Both of walker's walks run on the time loop: evolve_absorbing's
passes origin = 0, its start site taking its table coin, and tiny = 0, no
trim.

The library is cached as ${XDG_CACHE_HOME:-~/.cache}/hierwalk/lightcone-<hash>.so,
the hash taken over the C source, the compiler flags and the libraries. It
is written to a temporary file and renamed into place, so processes that
build it at once never load a half-written file.

The C follows numpy's operation order in `walker._numpy_steps`: each product
of the coin is rounded on its own before the sum (-ffp-contract=off forbids
fused multiply-adds), so every amplitude is bit-identical to the numpy loop,
signed zeros included. So is the trim's certificate B: each trim sums the
squares it drops in one fixed order, which the numpy loop repeats with a
cumulative sum, and adds their square root. Never build it with -ffast-math:
that links code that flushes subnormals to zero in the whole process, numpy
included, and lets the compiler reorder those sums.

Both loops keep a walk's state in one pair of buffers, up and down, and
every step leaves it there. Both rescan the window at every cone 0 mod 4,
which keeps the window's edges out of subnormal arithmetic, far costlier
per update than normal numbers. The rescan cones are counted from the
start, not from where a call starts, so the state at a time does not
depend on which earlier times were sampled. Where numpy steps one cone at
a time, the C steps the four cones from a rescan cone c in one pass,
untrimmed at c + 2 (four_cones), and steps nothing else: a call to the
library starts at a rescan cone and runs whole passes. Every other cone,
before a walk's first rescan cone or after its last pass, takes
_numpy_steps' single step, on either path; on the default sample grid
only cones 0 to 7 do. The pass is made of pairs: the pair from
an even cone recomputes the odd cone's amplitude at a slot from two slots
of the even cone, with the same products, and never stores it. It runs in
tiles of 256 slots: the pair from cone c writes cone c + 2 into a ring of
two tiles on the stack, and the pair from cone c + 2 follows one tile
behind and writes cone c + 4 over cone c in up and down. A window
narrower than a tile is one partial tile. A wide window thus crosses the
L2 cache once per four cones, reading and writing up and down: some 32
bytes per slot and four cones, where two-cone passes between two buffer
pairs moved 96.

A pass streams only the coins that vary. Where every slot of a parity table
but the start site's holds one coin, bit for bit, walker passes that
(sin, cos) as coin_a or coin_b, and span() multiplies by it instead of
loading the table. On the fields of shared levels (models none and
hierarchical) every odd site is level 0, so every odd cone has one coin; on
the Hadamard field every cone has. A pair reads its even cone's one coin
only where its odd cone has one too; else the table, whose every entry it
reads is bit-equal to that coin. span(), the loop over a range of slots
that the pass calls, is one body that two constant flags specialize; it
is inlined into one function per coin case (tables, one coin for the odd
cone, one for both), so each case compiles to its own loop.

Where the compiler has target_clones, on x86-64 with glibc (whose ifuncs
pick a clone per CPU when the library loads), each of those three functions
is built three times: for AVX-512F, for AVX2 and for the x86-64 baseline.
The resolver takes the AVX-512F clone where the CPU and the OS support it,
else the AVX2 one, else the baseline. That guard is the only one: every
compiler with target_clones on x86 (GCC 6 on, clang 14 on) knows both
feature names, so no compiler version is tested. The library's
lightcone_isa() names the clone this CPU runs; `_open` keeps it as the
loop's `isa`.
The control code (the trim and the ring's bookkeeping) is built once,
for the baseline, and calls them through a pointer; the span body is
inlined nowhere else, which keeps the build under a second (inlined at
every call site of a cloned control loop, it took 6.3 s).
Elsewhere the default functions alone are built.
The flags name no -march: the CPU is asked when the library loads.

None of this moves a byte. Every amplitude of cones c + 1 to c + 4 is the
same products of the same inputs as four of numpy's single steps give,
whichever buffer or ring tile holds them, and both loops trim at the same
cones. A
coin bit-equal to every table entry it stands for gives the same
products, and every clone does the same IEEE operations per slot: each
product rounded on its own, and the trim's sum of squares in order, in
the baseline control code, as no reassociation is allowed. AVX-512F
encodes fused multiply-adds, so the products stay unfused only because
-ffp-contract=off forbids contraction; CI checks that the library holds
no fused multiply-add instruction.

The recursion. rg_absorbed is rgflow.absorbed_amplitude's loop over the
levels for one z, operation for operation, in CPython's complex arithmetic
as Objects/complexobject.c has it in 3.10 to 3.13: _Py_c_prod's products,
_Py_c_quot's division (Smith's algorithm, with its NaN branch), and
_Py_c_abs's modulus: inf where a part is infinite, even beside a NaN, else
NaN where a part is NaN, else hypot, whose overflow makes Python raise
OverflowError, as rgflow then does. A float operand is (x, +0.0), as
CPython promotes it, and every expression keeps Python's left-to-right
order, (a g00) a. Every product is rounded on its own, as -ffp-contract=off
keeps it. hypot comes from libm (-lm), the function Python's abs() of a
complex calls. So every amplitude, every refusal and its condition keep
the bits of rgflow's Python loop; the tests hold both to a step-by-step
oracle byte for byte. CPython 3.14 multiplies a float by a complex without
promoting it, so there the Python loop's signed zeros and infinities may
differ. A call at l = 8 costs some 3.9 us where the Python loop takes
10.5-11.0; the ctypes call itself is 0.65 us of it, and the rest is
rgflow's checks and the two vectors it returns, views of io.
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

/* The four-cone pass steps the window in tiles of TILE pair slots, at
   least 2: the second pair writes up at the first slot of the next tile,
   which that tile's first pair reads at its first two slots. */
#define TILE 256

/* The span body is inlined into one function per coin case, so that each
   case compiles to its own loop. */
#define INLINE static inline __attribute__((always_inline))

/* Each of those three functions gets an AVX-512F clone, an AVX2 one and a
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
   below tiny, and zero those slots in up and down. Adds to *dropped
   the 2-norm of the psi the state loses: the rows' up and down amplitudes
   at the dropped slots, and as much again for the mirror image of a mirror
   walk, whose dropped slots are these slots' mirrors. The squares are
   summed row by row, up before down, left edge before right. Reads no slot
   beyond the first kept one from either edge, and the dropped ones. */
static void trim(double *up, double *down, int64_t rows, int64_t n, int32_t mirror,
                 double tiny, int64_t *lo, int64_t *hi, double *dropped)
{
    int64_t first = *lo, last = *hi - 1;
    while (first < *hi && !kept(up, down, rows, n, first, tiny))
        first++;
    while (last > first && !kept(up, down, rows, n, last, tiny))
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
            double *a = (b ? down : up) + r * n;
            for (int64_t q = *lo; q < new_lo; q++) {
                sq += a[q] * a[q];
                a[q] = 0.0;
            }
            for (int64_t q = new_hi; q < *hi; q++) {
                sq += a[q] * a[q];
                a[q] = 0.0;
            }
        }
    *dropped += sqrt(mirror ? 2.0 * sq : sq);
    *lo = new_lo;
    *hi = new_hi;
}

/* The two steps from an even cone c, a pair: the coins of cone c (s0, c0)
   and of cone c + 1 (s1, c1), each a table or, in its coin case, one
   (sin, cos) at index 0; cone c's window [lo, hi), its origin slot q0 (-1
   for none), and the span function of its coin case. */
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
   recomputed from those with the products of a single step, and never
   stored. Slot i of cone c is u[i - io], d[i - io]; slot i of cone c + 2
   is nu[i - oo], nd[i - oo]. A span that starts at lo stores +0.0 up there. The slots
   that are not the coins' are peeled: +0.0 up at lo, +0.0 down at hi, and
   the identity coin, down at q0 and up at q0 + 1. With one0 (one1) set,
   cone c (c + 1) has one coin, and one0 only with one1; the callers pass
   constants, so each of the three cases compiles to its own loop, which
   streams only the tables that vary. */
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

/* the span of each coin case: tables for both cones, one coin for cone c + 1, for both */
CLONED static void span_tables(SPAN_PARAMS) { span(u, d, io, nu, nd, oo, a, b, w, 0, 0); }
CLONED static void span_coin1(SPAN_PARAMS) { span(u, d, io, nu, nd, oo, a, b, w, 0, 1); }
CLONED static void span_coins(SPAN_PARAMS) { span(u, d, io, nu, nd, oo, a, b, w, 1, 1); }

/* Four steps from the cone c = 0 mod 4 (pair p1, window [lo, hi)) to
   c + 4, untrimmed at c + 2, with the state in up and down before and
   after. Tile by tile, the pair from cone c writes cone c + 2 into a ring
   of two tiles, and the pair from cone c + 2 (p2, window [lo, hi + 2))
   runs one tile behind and writes cone c + 4 over cone c in up and down:
   it overwrites cone c at slots the next tile reads, so that tile is
   stepped first. A window narrower than a tile is one partial tile. */
static void four_cones(double *up, double *down, int64_t rows, int64_t n,
                       const struct pair *p1, const struct pair *p2)
{
    span_fn *const fn = p1->span;  /* and p2's: the two pairs' cones have the same parities */
    const int64_t lo = p1->lo, end = p1->hi + 1;  /* the first pair's slots [lo, end) */
    for (int64_t r = 0; r < rows; r++) {
        double *u = up + r * n, *d = down + r * n;
        /* cone c + 2 at the slots [a - 1, a + TILE + 1) of the tile [a, b), slot i at i - (a - 1) */
        double ring_u[2][TILE + 2], ring_d[2][TILE + 2];
        int64_t a = lo, b = lo + TILE < end ? lo + TILE : end;
        ring_u[0][0] = ring_d[0][0] = 0.0;  /* the halo at lo - 1 */
        fn(u, d, 0, ring_u[0], ring_d[0], a - 1, a, b, p1);
        int k = 0;
        while (b < end) {
            const int64_t b1 = b + TILE < end ? b + TILE : end;
            fn(u, d, 0, ring_u[k ^ 1], ring_d[k ^ 1], b - 1, b, b1, p1);
            /* the halo: what the next tile's pair does not write, up at b - 1 and b, down at b - 1 */
            ring_u[k ^ 1][0] = ring_u[k][b - a];
            ring_u[k ^ 1][1] = ring_u[k][b - a + 1];
            ring_d[k ^ 1][0] = ring_d[k][b - a];
            fn(ring_u[k], ring_d[k], a - 1, u, d, 0, a, b, p2);
            a = b;
            b = b1;
            k ^= 1;
        }
        ring_d[k][end - a + 1] = 0.0;  /* cone c + 2's down at its last slot, hi + 1 */
        fn(ring_u[k], ring_d[k], a - 1, u, d, 0, a, end + 2, p2);
    }
}

/* The pair from the even cone c over the window [lo, hi), with its coins
   from the tables of either parity, or their one coins, and the start
   site's slot c / 2 if origin is set. Cone c takes table a where n - 1 - c
   is even, b where it is odd, so which of coin_a and coin_b is cone c's
   depends on the parity of n. Cone c reads its one coin only where cone
   c + 1 has one too; else its table, every entry of which but the start
   site's, which span() peels, is bit-equal to that coin. */
static struct pair pair_at(int64_t c, int64_t lo, int64_t hi, int64_t n, int32_t origin,
                           const double *const tsin[2], const double *const tcos[2],
                           const double *const one[2])
{
    const int64_t back = n - 1 - c;
    const int t0 = back & 1, t1 = !t0;  /* the tables of cone c and of cone c + 1 */
    struct pair w = {tsin[t0] + back / 2, tcos[t0] + back / 2, tsin[t1] + (back - 1) / 2,
                     tcos[t1] + (back - 1) / 2, lo, hi, origin ? c / 2 : -1, span_tables};
    if (one[t1]) {
        w.s1 = one[t1];
        w.c1 = one[t1] + 1;
        w.span = span_coin1;
        if (one[t0]) {
            w.s0 = one[t0];
            w.c0 = one[t0] + 1;
            w.span = span_coins;
        }
    }
    return w;
}

/* Step rows (1 or 2) real walks in up and down from time t0 to t1 in
   whole four-cone passes, in place: t0 must be 0 mod 4 and t1 - t0 a
   multiple of 4. A pass never starts with fewer than four steps to go, so
   no call writes a cone beyond t1; walker steps every other cone in numpy.
   Each buffer holds the rows one after the other, n slots each; slot q of
   cone c is site x = -c + 2q. window = [lo, hi) is the slot range outside
   which every amplitude of up and down is zero; it is read and written
   back, and so is *dropped, to which each trim adds the 2-norm of the psi
   it drops. Each pass trims the window at its first cone c = 0 mod 4, then
   steps the four cones (four_cones), so the state at t1 does not depend on
   where earlier calls stopped. The sin and cos of cone c start at offset
   (n - 1 - c) / 2 of the tables for cone n - 1 (cone parity equal to that
   of n - 1) or cone n - 2 (the other). The start site, slot c / 2 of even
   cones, has the identity coin if origin is set. coin_a (coin_b) is NULL,
   or the (sin, cos) held by every slot of table a (b) but the start
   site's: then passes may read it in place of the table. */
void lightcone_steps(double *up, double *down, int64_t rows, int64_t n, int32_t mirror, int32_t origin,
                     const double *sin_a, const double *cos_a,
                     const double *sin_b, const double *cos_b,
                     const double *coin_a, const double *coin_b,
                     int64_t t0, int64_t t1, double tiny, int64_t *window,
                     double *dropped)
{
    const double *const tsin[2] = {sin_a, sin_b}, *const tcos[2] = {cos_a, cos_b};
    const double *const one[2] = {coin_a, coin_b};
    int64_t lo = window[0], hi = window[1];
    for (int64_t c = t0; c + 4 <= t1; c += 4) {
        trim(up, down, rows, n, mirror, tiny, &lo, &hi, dropped);
        const struct pair p1 = pair_at(c, lo, hi, n, origin, tsin, tcos, one);
        const struct pair p2 = pair_at(c + 2, lo, hi + 2, n, origin, tsin, tcos, one);
        four_cones(up, down, rows, n, &p1, &p2);
        hi += 4;  /* up moves one slot right per step; the cone gains one slot */
    }
    window[0] = lo;
    window[1] = hi;
}

/* CPython's complex arithmetic, as Objects/complexobject.c has it in 3.10 to
   3.13, so that the recursion below gives the bits of rgflow's Python loop.
   A float operand is (x, +0.0), as CPython promotes it. */
typedef struct { double real, imag; } pycomplex;

static pycomplex c_sum(pycomplex a, pycomplex b)
{
    return (pycomplex){a.real + b.real, a.imag + b.imag};
}

static pycomplex c_diff(pycomplex a, pycomplex b)
{
    return (pycomplex){a.real - b.real, a.imag - b.imag};
}

static pycomplex c_neg(pycomplex a)
{
    return (pycomplex){-a.real, -a.imag};
}

/* _Py_c_prod */
static pycomplex c_prod(pycomplex a, pycomplex b)
{
    return (pycomplex){a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real};
}

/* _Py_c_quot: Smith's algorithm, dividing through by the larger part of b;
   NaN where b holds a NaN. b = 0, where Python raises ZeroDivisionError,
   never comes here: the caller refuses it first. */
static pycomplex c_quot(pycomplex a, pycomplex b)
{
    const double abs_breal = b.real < 0 ? -b.real : b.real;
    const double abs_bimag = b.imag < 0 ? -b.imag : b.imag;
    if (abs_breal >= abs_bimag) {
        const double ratio = b.imag / b.real;
        const double denom = b.real + b.imag * ratio;
        return (pycomplex){(a.real + a.imag * ratio) / denom, (a.imag - a.real * ratio) / denom};
    }
    if (abs_bimag >= abs_breal) {
        const double ratio = b.real / b.imag;
        const double denom = b.real * ratio + b.imag;
        return (pycomplex){(a.real * ratio + a.imag) / denom, (a.imag * ratio - a.real) / denom};
    }
    return (pycomplex){NAN, NAN};
}

/* _Py_c_abs: an infinite part gives inf, even beside a NaN; else a NaN part
   gives NaN; else hypot. Sets *overflow where hypot overflows: there Python
   raises OverflowError. */
static double c_abs(pycomplex z, int *overflow)
{
    if (!isfinite(z.real) || !isfinite(z.imag)) {
        if (isinf(z.real))
            return fabs(z.real);
        if (isinf(z.imag))
            return fabs(z.imag);
        return NAN;
    }
    const double r = hypot(z.real, z.imag);
    if (!isfinite(r))
        *overflow = 1;
    return r;
}

/* What rg_absorbed returns: the amplitudes, or the refusal it met first. */
enum { RG_OK, RG_SINGULAR_COIN, RG_SINGULAR_RESOLVENT, RG_CONDITION, RG_OVERFLOW };

/* rgflow.absorbed_amplitude's loop over its levels 0 to l - 1, operation
   for operation. levels holds per level the seven entries of rgflow's
   table, m00, q01, q10, m11, m00 * m11, |m00| and |m11|, each as (real,
   imag): RG_LEVEL doubles. It holds only the levels before level
   singular, whose coin is singular; no level from there on is read. io
   holds 8 doubles: z, psi0 and psi1 as (real, imag), then cond_limit. The
   two wall 2-vectors are written over all 8 as the rows of a 2x2 complex
   array: the right wall's (up, +0.0), then the left wall's (+0.0, down);
   or with RG_CONDITION the condition over io[0]. */
#define RG_LEVEL 14
int rg_absorbed(int32_t l, const double *levels, int32_t singular, double *io)
{
    const pycomplex psi0 = {io[2], io[3]}, psi1 = {io[4], io[5]}, one = {1.0, 0.0};
    const double cond_limit = io[6];
    pycomplex a = {io[0], io[1]}, b = a, m_ab = {0.0, 0.0}, m_ba = m_ab;
    pycomplex g00, g01, g10, g11;
    for (int32_t k = 0;; k++) {
        if (k == singular)
            return RG_SINGULAR_COIN;
        const double *e = levels + RG_LEVEL * k;
        const pycomplex m00 = {e[0], e[1]}, q01 = {e[2], e[3]}, q10 = {e[4], e[5]};
        const pycomplex m11 = {e[6], e[7]}, m00_m11 = {e[8], e[9]};
        const pycomplex m01 = c_diff(q01, m_ab), m10 = c_diff(q10, m_ba);
        const pycomplex det_m = c_diff(m00_m11, c_prod(m01, m10));
        if (det_m.real == 0.0 && det_m.imag == 0.0)
            return RG_SINGULAR_RESOLVENT;
        const pycomplex inv = c_quot(one, det_m);
        g00 = c_prod(m11, inv);
        g01 = c_prod(c_neg(m01), inv);
        g10 = c_prod(c_neg(m10), inv);
        g11 = c_prod(m00, inv);
        int overflow = 0;
        const double x = e[10] + c_abs(m10, &overflow), y = c_abs(m01, &overflow) + e[12];
        const double p = c_abs(g00, &overflow) + c_abs(g10, &overflow);
        const double q = c_abs(g01, &overflow) + c_abs(g11, &overflow);
        if (overflow)
            return RG_OVERFLOW;
        const double cond = (y > x ? y : x) * (q > p ? q : p);
        if (!isfinite(cond) || cond > cond_limit) {
            io[0] = cond;
            return RG_CONDITION;
        }
        if (k == l - 1)
            break;
        const pycomplex a1 = c_prod(c_prod(a, g00), a), b1 = c_prod(c_prod(b, g11), b);
        m_ab = c_sum(m_ab, c_prod(c_prod(a, g01), b));
        m_ba = c_sum(m_ba, c_prod(c_prod(b, g10), a));
        a = a1;
        b = b1;
    }
    const pycomplex right = c_sum(c_prod(c_prod(a, g00), psi0), c_prod(c_prod(a, g01), psi1));
    const pycomplex left = c_sum(c_prod(c_prod(b, g10), psi0), c_prod(c_prod(b, g11), psi1));
    io[0] = right.real;
    io[1] = right.imag;
    io[2] = io[3] = io[4] = io[5] = 0.0;
    io[6] = left.real;
    io[7] = left.imag;
    return RG_OK;
}
"""

_CC = "cc"
# Never -ffast-math (it flushes subnormals process-wide) nor -march=native.
# -fno-math-errno inlines sqrt; hypot, for the recursion's moduli, comes from
# libm, the one Python's abs() of a complex calls.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
_LIBS = ("-lm",)  # after the source, so that the linker keeps it

_P = ctypes.c_void_p
_I32 = ctypes.c_int32
_I64 = ctypes.c_int64
_ARGTYPES = (_P, _P, _I64, _I64, _I32, _I32, _P, _P, _P, _P, _P, _P,
             _I64, _I64, ctypes.c_double, _P, _P)
_RG_ARGTYPES = (_I32, _P, _I32, _P)


def address(array) -> int:
    """The address of a writable, C-contiguous, nonempty array's first element.

    A third of the cost of array.ctypes.data, which builds a Python object
    at every call: a walk takes eight addresses, some 4 us against 11.
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def library_path() -> Path:
    """Where the library for this source and these flags is cached."""
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    digest = hashlib.sha256("\0".join((_SOURCE, *_FLAGS, *_LIBS)).encode()).hexdigest()[:16]
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
    """The library's lightcone_steps.

    Its `isa` is the clone of the span functions this CPU runs, and its
    `recursion` the library's rg_absorbed.
    """
    if _truncated_elf(path):
        raise OSError(f"{path}: truncated library")
    library = ctypes.CDLL(str(path))
    fn = library.lightcone_steps
    fn.argtypes = _ARGTYPES
    fn.restype = None
    library.lightcone_isa.argtypes = ()
    library.lightcone_isa.restype = ctypes.c_char_p
    fn.isa = library.lightcone_isa().decode()
    fn.recursion = library.rg_absorbed
    fn.recursion.argtypes = _RG_ARGTYPES
    fn.recursion.restype = ctypes.c_int
    return fn


def _command(output) -> list:
    """The compiler command that builds the library from _SOURCE, on its stdin, into output."""
    return [_CC, *_FLAGS, "-o", str(output), "-x", "c", "-", *_LIBS]


def _build(path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(_command(tmp), input=_SOURCE, text=True,
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
