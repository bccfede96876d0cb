/* dnacipher's compiled kernel library, compiled on first use and loaded
 * through ctypes by dnacipher.core; the package uses it only if all four
 * loops load and pass their self-checks.
 *   logistic_orbit  the orbit of dnacipher.keystream.logistic_orbit;
 *   mask_bytes      a key's L mask bytes M = T ^ Z straight from its two
 *                   orbits (dnacipher.keystream.keystreams);
 *   sbox_words      the S-box word of each pixel (dnacipher.cipher.sbox_words);
 *   sbox_pixels     the cipher on pixel bytes: S-box and mask byte
 *                   (dnacipher.cipher.apply_sbox, and
 *                   dnacipher.core.cipher_ppm for the CLI's encrypt and
 *                   decrypt, which import no numpy).
 * Build with -ffp-contract=off: a product fused with the subtraction that
 * uses it (one step's x feeds the next step's 1.0 - x) rounds once instead
 * of twice, and the loops must match the binary64 Python loop bit for bit. */
#include <stdint.h>
#include <string.h>

void logistic_orbit(double x, double mu, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        x = (mu * x) * (1.0 - x);
        out[i] = x;
    }
}

/* The z-orbit to its end first, 4 iterates per pixel, each bit above 0.5
 * the digit 3 in its place, most significant first; then the t-orbit, one
 * iterate per pixel, XOR-ing floor(x * 1e5) mod 256.  Every iterate must lie
 * in (0, 1): at the first that does not, the loop stores its step (counted
 * from 1 within its orbit) and value and returns 1 for the z-orbit, 2 for
 * the t-orbit.  Returns 0 when both orbits stay inside. */
int mask_bytes(double x0, double mu0, double x0p, double mu0p, int64_t n,
               uint8_t *out, int64_t *bad_step, double *bad_value)
{
    double x = x0;
    for (int64_t i = 0; i < n; i++) {
        unsigned z = 0;
        for (int j = 0; j < 4; j++) {
            x = (mu0 * x) * (1.0 - x);
            if (!(x > 0.0 && x < 1.0)) {
                *bad_step = 4 * i + j + 1;
                *bad_value = x;
                return 1;
            }
            z = z << 2 | (x > 0.5 ? 3 : 0);
        }
        out[i] = (uint8_t)z;
    }
    x = x0p;
    for (int64_t i = 0; i < n; i++) {
        x = (mu0p * x) * (1.0 - x);
        if (!(x > 0.0 && x < 1.0)) {
            *bad_step = i + 1;
            *bad_value = x;
            return 2;
        }
        out[i] ^= (uint8_t)(int32_t)(x * 1e5);
    }
    return 0;
}

/* The S-box word of pixel (r, g, b): the 4096-entry table at its high
 * nibbles r<<8 | g<<4 | b, shifted by 4, OR-ed with the table at its low
 * nibbles.  Its first three memory bytes are the output bytes. */
static inline uint32_t sbox_word(const uint32_t *table, uint32_t r, uint32_t g, uint32_t b)
{
    return table[(r << 4 & 0xF00) | (g & 0xF0) | b >> 4] << 4
         | table[(r & 15) << 8 | (g & 15) << 4 | (b & 15)];
}

void sbox_words(const uint32_t *table, const uint8_t *pixels, int64_t n,
                uint32_t *out)
{
    for (int64_t i = 0; i < n; i++, pixels += 3)
        out[i] = sbox_word(table, pixels[0], pixels[1], pixels[2]);
}

/* Three output bytes per pixel: the S-box word's bytes, then XOR with the
 * pixel's mask byte; with `inverse`, the XOR comes first. */
void sbox_pixels(const uint32_t *table, const uint8_t *pixels, const uint8_t *masks,
                 int64_t n, int inverse, uint8_t *out)
{
    for (int64_t i = 0; i < n; i++, pixels += 3, out += 3) {
        uint8_t before = inverse ? masks[i] : 0, after = inverse ? 0 : masks[i];
        uint32_t word = sbox_word(table, pixels[0] ^ before, pixels[1] ^ before,
                                  pixels[2] ^ before);
        uint8_t bytes[4];
        memcpy(bytes, &word, 4);
        out[0] = bytes[0] ^ after;
        out[1] = bytes[1] ^ after;
        out[2] = bytes[2] ^ after;
    }
}
