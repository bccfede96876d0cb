/* dnacipher's compiled kernel library: the logistic orbit loop of
 * dnacipher.keystream.logistic_orbit and the S-box word loop of
 * dnacipher.cipher.sbox_words (one table, read at a pixel's high and low
 * nibbles), compiled on first use and loaded through ctypes; the package
 * uses them only if both load and pass their self-checks.  Build with
 * -ffp-contract=off: a product fused with the subtraction that uses it (one
 * step's x feeds the next step's 1.0 - x) rounds once instead of twice, and
 * the loop must match the binary64 Python loop bit for bit. */
#include <stdint.h>

void logistic_orbit(double x, double mu, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        x = (mu * x) * (1.0 - x);
        out[i] = x;
    }
}

/* One word per (r, g, b) pixel: the 4096-entry table at its high nibbles
 * r<<8 | g<<4 | b, shifted by 4, OR-ed with the table at its low nibbles. */
void sbox_words(const uint32_t *table, const uint8_t *pixels, int64_t n,
                uint32_t *out)
{
    for (int64_t i = 0; i < n; i++, pixels += 3) {
        uint32_t r = pixels[0], g = pixels[1], b = pixels[2];
        out[i] = table[(r << 4 & 0xF00) | (g & 0xF0) | b >> 4] << 4
               | table[(r & 15) << 8 | (g & 15) << 4 | (b & 15)];
    }
}
