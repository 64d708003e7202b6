/* Modular exponentiation over OpenSSL BIGNUMs: a fixed-base comb and a
 * variable-base Montgomery modexp.
 *
 * The proof-journey kernel raises the one group generator to ~7.5
 * fresh 160-bit exponents per simulated user; the pure-Python comb in
 * fastexp.py already collapses each call to ~20 CPython big-int
 * modmuls, but the interpreter-level cost of those multiplies (~90us a
 * call) is the single largest line in a 100k-user profile.  The comb
 * below is the same table with the window walk in C: the table lives
 * in Montgomery form, one call does the ~20 BN_mod_mul_montgomery steps
 * (~0.2us each) and converts out once.
 *
 * Every other base (VRF sortition's per-round elements, subgroup
 * membership checks, keys without a known discrete log) goes through
 * repro_modexp_pow: BN_mod_exp_mont against a Montgomery context built
 * once for the modulus, ~10x faster than CPython's builtin pow on the
 * 1024-bit group.
 *
 * Deliberately dependency-free: only libcrypto, which the Python
 * runtime already links for hashlib.  Built on demand by
 * repro.crypto.native with the host toolchain; every result is
 * cross-checked against the pure-Python path before the extension is
 * trusted, and any failure (no compiler, no headers, mismatch) falls
 * back to the Python path with a warning.  Outputs are bit-identical by
 * construction.
 *
 * Build: cc -O2 -fPIC -shared -o _combext.so _combext.c -lcrypto
 */

#include <openssl/bn.h>
#include <stdlib.h>

#define WINDOW_VALUES 256 /* 8-bit windows; index 0 unused (no-op) */

typedef struct {
    BN_CTX *ctx;
    BN_MONT_CTX *mont;
    BIGNUM *mod;
    BIGNUM **table; /* windows x 256, Montgomery form */
    BIGNUM *one_mont;
    BIGNUM *acc;
    BIGNUM *tmp;
    int windows;
} comb_t;

void repro_comb_free(comb_t *c);

/* Returns NULL on any allocation/arithmetic failure (the caller falls
 * back to the Python comb); every failure path frees what was built. */
comb_t *repro_comb_new(const unsigned char *mod_be, int mod_len,
                       const unsigned char *base_be, int base_len,
                       int max_exponent_bits)
{
    BIGNUM *base = NULL;
    BIGNUM *radix = NULL; /* base ** (256 ** i), Montgomery form */
    comb_t *c = calloc(1, sizeof(comb_t));
    if (c == NULL)
        return NULL;
    c->windows = (max_exponent_bits + 7) / 8;
    c->ctx = BN_CTX_new();
    c->mont = BN_MONT_CTX_new();
    c->mod = BN_bin2bn(mod_be, mod_len, NULL);
    c->one_mont = BN_new();
    c->acc = BN_new();
    c->tmp = BN_new();
    base = BN_bin2bn(base_be, base_len, NULL);
    radix = BN_new();
    if (c->ctx == NULL || c->mont == NULL || c->mod == NULL ||
        c->one_mont == NULL || c->acc == NULL || c->tmp == NULL ||
        base == NULL || radix == NULL)
        goto fail;
    if (!BN_MONT_CTX_set(c->mont, c->mod, c->ctx))
        goto fail;
    BN_one(c->tmp);
    if (!BN_to_montgomery(c->one_mont, c->tmp, c->mont, c->ctx))
        goto fail;
    if (!BN_nnmod(c->tmp, base, c->mod, c->ctx) ||
        !BN_to_montgomery(radix, c->tmp, c->mont, c->ctx))
        goto fail;
    c->table = calloc((size_t)c->windows * WINDOW_VALUES, sizeof(BIGNUM *));
    if (c->table == NULL)
        goto fail;
    for (int i = 0; i < c->windows; i++) {
        BIGNUM **row = c->table + (size_t)i * WINDOW_VALUES;
        for (int w = 1; w < WINDOW_VALUES; w++) {
            row[w] = BN_new();
            if (row[w] == NULL)
                goto fail;
            if (w == 1) {
                if (!BN_copy(row[1], radix))
                    goto fail;
            } else if (!BN_mod_mul_montgomery(row[w], row[w - 1], radix,
                                              c->mont, c->ctx)) {
                goto fail;
            }
        }
        /* next tooth's unit: radix ** 256 */
        if (!BN_mod_mul_montgomery(radix, row[WINDOW_VALUES - 1], radix,
                                   c->mont, c->ctx))
            goto fail;
    }
    BN_free(base);
    BN_free(radix);
    return c;
fail:
    BN_free(base);
    BN_free(radix);
    repro_comb_free(c);
    return NULL;
}

/* base ** exp % mod -> out (big-endian, zero-padded to out_len).
 * exp_be is big-endian, at most `windows` bytes.  Returns 1 on
 * success, 0 on failure (caller falls back to Python). */
int repro_comb_pow(comb_t *c, const unsigned char *exp_be, int exp_len,
                   unsigned char *out, int out_len)
{
    if (exp_len > c->windows)
        return 0;
    if (!BN_copy(c->acc, c->one_mont))
        return 0;
    for (int i = 0; i < exp_len; i++) {
        unsigned int w = exp_be[exp_len - 1 - i]; /* lowest window first */
        if (w != 0 &&
            !BN_mod_mul_montgomery(c->acc, c->acc,
                                   c->table[(size_t)i * WINDOW_VALUES + w],
                                   c->mont, c->ctx))
            return 0;
    }
    if (!BN_from_montgomery(c->tmp, c->acc, c->mont, c->ctx))
        return 0;
    return BN_bn2binpad(c->tmp, out, out_len) >= 0;
}

void repro_comb_free(comb_t *c)
{
    if (c == NULL)
        return;
    if (c->table != NULL) {
        for (size_t i = 0; i < (size_t)c->windows * WINDOW_VALUES; i++)
            BN_free(c->table[i]);
        free(c->table);
    }
    BN_free(c->one_mont);
    BN_free(c->acc);
    BN_free(c->tmp);
    BN_free(c->mod);
    BN_MONT_CTX_free(c->mont);
    BN_CTX_free(c->ctx);
    free(c);
}

/* Variable-base exponentiation modulo one fixed odd modulus. */
typedef struct {
    BN_CTX *ctx;
    BN_MONT_CTX *mont;
    BIGNUM *mod;
    BIGNUM *base;
    BIGNUM *exp;
    BIGNUM *out;
} modexp_t;

void repro_modexp_free(modexp_t *m);

/* Returns NULL on any allocation/arithmetic failure (the caller falls
 * back to builtin pow); every failure path frees what was built. */
modexp_t *repro_modexp_new(const unsigned char *mod_be, int mod_len)
{
    modexp_t *m = calloc(1, sizeof(modexp_t));
    if (m == NULL)
        return NULL;
    m->ctx = BN_CTX_new();
    m->mont = BN_MONT_CTX_new();
    m->mod = BN_bin2bn(mod_be, mod_len, NULL);
    m->base = BN_new();
    m->exp = BN_new();
    m->out = BN_new();
    if (m->ctx == NULL || m->mont == NULL || m->mod == NULL ||
        m->base == NULL || m->exp == NULL || m->out == NULL ||
        !BN_is_odd(m->mod) || !BN_MONT_CTX_set(m->mont, m->mod, m->ctx)) {
        repro_modexp_free(m);
        return NULL;
    }
    return m;
}

/* base ** exp % mod -> out (big-endian, zero-padded to out_len).  Both
 * inputs are big-endian and unbounded (BN_mod_exp_mont reduces a base
 * >= mod itself).
 * Returns 1 on success, 0 on failure (caller falls back to Python). */
int repro_modexp_pow(modexp_t *m, const unsigned char *base_be, int base_len,
                     const unsigned char *exp_be, int exp_len,
                     unsigned char *out, int out_len)
{
    if (BN_bin2bn(base_be, base_len, m->base) == NULL ||
        BN_bin2bn(exp_be, exp_len, m->exp) == NULL)
        return 0;
    if (!BN_mod_exp_mont(m->out, m->base, m->exp, m->mod, m->ctx, m->mont))
        return 0;
    return BN_bn2binpad(m->out, out, out_len) >= 0;
}

void repro_modexp_free(modexp_t *m)
{
    if (m == NULL)
        return;
    BN_free(m->base);
    BN_free(m->exp);
    BN_free(m->out);
    BN_free(m->mod);
    BN_MONT_CTX_free(m->mont);
    BN_CTX_free(m->ctx);
    free(m);
}
