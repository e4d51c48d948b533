/* Montgomery modular exponentiation for the Diffie-Hellman groups.
 *
 * Computes out = base^exp mod p for an odd modulus p of n 64-bit limbs:
 * the exact result of CPython's pow(base, exp, p), which is what
 * repro.crypto.dh.DHGroup.power_reference returns (parity-pinned by test).
 *
 * - Montgomery multiplication is CIOS (coarsely integrated operand
 *   scanning) with 64-bit limbs and unsigned __int128 products.
 * - The exponent is consumed in fixed 4-bit windows over its whole
 *   padded width: every window costs four squarings and one multiply,
 *   and the multiplier is picked by scanning all 16 table entries under
 *   a mask, so neither a branch nor a table index depends on the secret
 *   exponent.  The final conditional subtraction is a masked select too.
 * - Every buffer lives on the stack, so the kernel is reentrant and
 *   ctypes callers may run it from many threads at once (ctypes releases
 *   the GIL around the call).
 *
 * The per-modulus context (R^2 mod p and -p^-1 mod 2^64, R = 2^(64n)) is
 * computed and memoized by the caller, repro.native.  All integers cross
 * the boundary as little-endian byte strings, so the layout does not
 * depend on the host's byte order.
 *
 * Compilers without 128-bit integers build a stub that always fails;
 * repro.native's load-time probe then disables this entry point and
 * callers keep pow().
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* 4096-bit moduli; the protocol's groups use 8 (modp512) and 32 (modp2048).
 * repro.native.MODEXP_MAX_LIMBS mirrors this; wider moduli are refused. */
#define MODEXP_MAX_LIMBS 64

#if defined(__SIZEOF_INT128__)

typedef unsigned __int128 u128;

static void load_le(uint64_t *dst, const uint8_t *src, size_t n)
{
    size_t i;
    int j;

    for (i = 0; i < n; i++) {
        uint64_t v = 0;
        for (j = 7; j >= 0; j--)
            v = (v << 8) | src[8 * i + j];
        dst[i] = v;
    }
}

static void store_le(uint8_t *dst, const uint64_t *src, size_t n)
{
    size_t i;
    int j;

    for (i = 0; i < n; i++)
        for (j = 0; j < 8; j++)
            dst[8 * i + j] = (uint8_t)(src[i] >> (8 * j));
}

/* All ones when a == b, zero otherwise, without a branch. */
static uint64_t eq_mask(uint64_t a, uint64_t b)
{
    uint64_t x = a ^ b;
    return ((x | (0 - x)) >> 63) - 1;
}

/* r = a * b * R^-1 mod p for a, b < p.  r may alias a or b.
 *
 * Each outer step folds the b[i] product row and the m*p reduction row
 * into one pass over the limbs with two independent carry chains. */
static inline __attribute__((always_inline)) void
mont_mul(uint64_t *r, const uint64_t *a, const uint64_t *b,
         const uint64_t *p, uint64_t n0inv, size_t n)
{
    uint64_t t[MODEXP_MAX_LIMBS + 1];
    uint64_t d[MODEXP_MAX_LIMBS];
    uint64_t borrow = 0, keep;
    size_t i, j;
    u128 x, y;

    memset(t, 0, (n + 1) * sizeof(uint64_t));
    for (i = 0; i < n; i++) {
        uint64_t bi = b[i], m, c1, c2;

        x = (u128)a[0] * bi + t[0];
        c1 = (uint64_t)(x >> 64);
        m = (uint64_t)x * n0inv;
        y = (u128)m * p[0] + (uint64_t)x;
        c2 = (uint64_t)(y >> 64);
        for (j = 1; j < n; j++) {
            x = (u128)a[j] * bi + t[j] + c1;
            c1 = (uint64_t)(x >> 64);
            y = (u128)m * p[j] + (uint64_t)x + c2;
            c2 = (uint64_t)(y >> 64);
            t[j - 1] = (uint64_t)y;
        }
        x = (u128)t[n] + c1 + c2;
        t[n - 1] = (uint64_t)x;
        t[n] = (uint64_t)(x >> 64);
    }

    /* t < 2p: keep t - p unless the subtraction went negative. */
    for (j = 0; j < n; j++) {
        x = (u128)t[j] - p[j] - borrow;
        d[j] = (uint64_t)x;
        borrow = (uint64_t)(x >> 64) & 1;
    }
    keep = 0 - (borrow & ~t[n] & 1);
    for (j = 0; j < n; j++)
        r[j] = (t[j] & keep) | (d[j] & ~keep);
}

static inline __attribute__((always_inline)) int
modexp(const uint8_t *base, const uint8_t *exp, size_t exp_limbs,
       const uint8_t *mod, const uint8_t *r2, uint64_t n0inv,
       size_t n, uint8_t *out)
{
    uint64_t p[MODEXP_MAX_LIMBS], rr[MODEXP_MAX_LIMBS];
    uint64_t one[MODEXP_MAX_LIMBS], acc[MODEXP_MAX_LIMBS];
    uint64_t sel[MODEXP_MAX_LIMBS];
    uint64_t table[16][MODEXP_MAX_LIMBS];
    size_t i, j, w;
    int k, s;

    if (base == NULL || exp == NULL || mod == NULL || r2 == NULL
        || out == NULL || n == 0 || n > MODEXP_MAX_LIMBS)
        return -1;
    load_le(p, mod, n);
    if (!(p[0] & 1))
        return -1;
    load_le(rr, r2, n);
    load_le(table[1], base, n);
    memset(one, 0, n * sizeof(uint64_t));
    one[0] = 1;

    /* table[k] = base^k in Montgomery form; table[0] = R mod p. */
    mont_mul(table[0], rr, one, p, n0inv, n);
    mont_mul(table[1], table[1], rr, p, n0inv, n);
    for (k = 2; k < 16; k++)
        mont_mul(table[k], table[k - 1], table[1], p, n0inv, n);

    memcpy(acc, table[0], n * sizeof(uint64_t));
    for (i = 16 * exp_limbs; i-- > 0;) {
        for (s = 0; s < 4; s++)
            mont_mul(acc, acc, acc, p, n0inv, n);
        w = (exp[i >> 1] >> ((i & 1) * 4)) & 15;
        memset(sel, 0, n * sizeof(uint64_t));
        for (k = 0; k < 16; k++) {
            uint64_t mask = eq_mask((uint64_t)k, (uint64_t)w);
            for (j = 0; j < n; j++)
                sel[j] |= table[k][j] & mask;
        }
        mont_mul(acc, acc, sel, p, n0inv, n);
    }
    mont_mul(acc, acc, one, p, n0inv, n);
    store_le(out, acc, n);
    return 0;
}

/* out = base^exp mod p.
 *
 * base, p, r2 and out are n limbs (8n little-endian bytes) with base < p,
 * r2 = R^2 mod p and n0inv = -p^-1 mod 2^64; exp is exp_limbs limbs.
 * Returns 0 on success, -1 on bad arguments. */
int repro_modexp(const uint8_t *base, const uint8_t *exp, size_t exp_limbs,
                 const uint8_t *mod, const uint8_t *r2, uint64_t n0inv,
                 size_t n, uint8_t *out)
{
    /* A constant limb count lets the compiler unroll the 8-limb (512-bit)
     * loops, about 1.4x faster; a 32-limb instantiation measured no gain. */
    if (n == 8)
        return modexp(base, exp, exp_limbs, mod, r2, n0inv, 8, out);
    return modexp(base, exp, exp_limbs, mod, r2, n0inv, n, out);
}

#else /* no 128-bit products: always refuse, callers keep pow() */

int repro_modexp(const uint8_t *base, const uint8_t *exp, size_t exp_limbs,
                 const uint8_t *mod, const uint8_t *r2, uint64_t n0inv,
                 size_t n, uint8_t *out)
{
    (void)base; (void)exp; (void)exp_limbs; (void)mod; (void)r2;
    (void)n0inv; (void)n; (void)out;
    return -1;
}

#endif
