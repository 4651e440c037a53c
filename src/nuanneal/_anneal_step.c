/* Metropolis step loop of nuanneal.annealer.anneal_many for one threshold
 * chunk: the same visits, thresholds and arithmetic as the numpy lockstep
 * loop, so both give bit-identical spins.  Problems are ranked largest
 * first; the problems that step at sweep position t are 0 .. starts[t+1] -
 * starts[t] - 1, and their visits and thresholds sit in columns
 * starts[t] .. starts[t+1] - 1.  Row p * n + j of lin, quad, spin and field
 * belongs to variable j of problem p; spin and field rows hold one value
 * per read.  Build with -ffp-contract=off: flip is -1, 0 or +1, so every
 * product is exact and only the additions round, as in numpy. */
#include <stddef.h>

void anneal_steps(ptrdiff_t sweeps, ptrdiff_t n, ptrdiff_t cols, ptrdiff_t reads,
                  const ptrdiff_t *starts, const ptrdiff_t *sizes,
                  const ptrdiff_t *visits, const double *thresholds,
                  const double *lin, const double *quad,
                  double *spin, double *field, double *flip)
{
    for (ptrdiff_t s = 0; s < sweeps; s++) {
        for (ptrdiff_t t = 0; t < n; t++) {
            for (ptrdiff_t k = starts[t]; k < starts[t + 1]; k++) {
                ptrdiff_t p = k - starts[t], row = visits[s * cols + k];
                const double *limit = thresholds + (s * cols + k) * reads;
                double *sp = spin + row * reads, *fr = field + row * reads;
                int accepted = 0;
                for (ptrdiff_t r = 0; r < reads; r++) {
                    double delta_e = (fr[r] + lin[row]) * sp[r];
                    int accept = delta_e < limit[r];
                    flip[r] = accept ? sp[r] : 0.0;
                    accepted |= accept;
                }
                if (!accepted)
                    continue;
                for (ptrdiff_t r = 0; r < reads; r++) {
                    sp[r] -= flip[r];
                    sp[r] -= flip[r];
                }
                const double *q = quad + row * n;
                double *f = field + p * n * reads;
                for (ptrdiff_t i = 0; i < sizes[p]; i++)
                    for (ptrdiff_t r = 0; r < reads; r++)
                        f[i * reads + r] += q[i] * flip[r];
            }
        }
    }
}
