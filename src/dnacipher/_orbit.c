/* The logistic orbit loop of dnacipher.keystream.logistic_orbit, compiled on
 * first use and loaded through ctypes.  Build with -ffp-contract=off: a
 * product fused with the subtraction that uses it (one step's x feeds the
 * next step's 1.0 - x) rounds once instead of twice, and the loop must match
 * the binary64 Python loop bit for bit. */
#include <stdint.h>

void logistic_orbit(double x, double mu, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        x = (mu * x) * (1.0 - x);
        out[i] = x;
    }
}
