/* Metropolis step loop of nuanneal.annealer.anneal for one threshold chunk:
 * the same visits, thresholds and arithmetic as the numpy loop, so both give
 * bit-identical spins.  Step k (sweep k / n, position k % n) visits variable
 * visits[k] against thresholds[k * reads .. k * reads + reads - 1].  Row j
 * of quad, spin and field belongs to variable j; spin and field rows hold
 * one value per read.  Build with -ffp-contract=off: flip is -1, 0 or +1, so
 * every product is exact and only the additions round, as in numpy. */
#include <stddef.h>

void anneal_steps(ptrdiff_t steps, ptrdiff_t n, ptrdiff_t reads,
                  const ptrdiff_t *visits, const double *thresholds,
                  const double *lin, const double *quad,
                  double *spin, double *field, double *flip)
{
    for (ptrdiff_t k = 0; k < steps; k++) {
        ptrdiff_t v = visits[k];
        const double *limit = thresholds + k * reads;
        double *sp = spin + v * reads, *fr = field + v * reads;
        int accepted = 0;
        for (ptrdiff_t r = 0; r < reads; r++) {
            double delta_e = (fr[r] + lin[v]) * sp[r];
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
        const double *q = quad + v * n;
        for (ptrdiff_t i = 0; i < n; i++)
            for (ptrdiff_t r = 0; r < reads; r++)
                field[i * reads + r] += q[i] * flip[r];
    }
}
