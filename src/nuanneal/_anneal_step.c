/* Metropolis step loop of nuanneal.annealer.anneal for one threshold chunk:
 * the same visits, thresholds and arithmetic as the numpy loop, so both give
 * bit-identical spins and fields.  Step k (sweep k / n, position k % n)
 * visits variable visits[k] against thresholds[k * reads .. k * reads +
 * reads - 1].  Row j of quad, spin and field belongs to variable j; spin and
 * field rows hold one value per read.
 *
 * Each visit runs two loops across the reads, which the compiler vectorises
 * (the reads are independent replicas).  The accept loop is branchless: it
 * stores flip = s where dE = (field + lin) * s is below the threshold and 0
 * elsewhere, sets spin to s - flip - flip and counts the flips.  When no read
 * flips the visit ends, as in numpy's count_nonzero guard.  Otherwise every
 * field row i gains quad[v, i] * flip, numpy's fields += quad[v, :, None] *
 * flip element for element.  A flip of 0 where numpy has -0 can change only
 * the sign of a field that is exactly zero, and +0 and -0 compare the same
 * against every threshold.
 *
 * Built with -O3 -march=native -ffp-contract=off: the library is compiled on
 * the host that loads it, so native is that host's vector width.  Without
 * -ffast-math and with contraction off, each element is the same IEEE
 * operation as in numpy, whatever the vector width: spin and flip are -1, 0
 * or +1, so every product is exact and only the additions round. */
#include <stddef.h>

void anneal_steps(ptrdiff_t steps, ptrdiff_t n, ptrdiff_t reads,
                  const ptrdiff_t *restrict visits,
                  const double *restrict thresholds,
                  const double *restrict lin, const double *restrict quad,
                  double *restrict spin, double *restrict field,
                  double *restrict flip)
{
    for (ptrdiff_t k = 0; k < steps; k++) {
        ptrdiff_t v = visits[k];
        const double *limit = thresholds + k * reads;
        const double *fr = field + v * reads;
        double *sp = spin + v * reads, lv = lin[v];
        ptrdiff_t count = 0;
        for (ptrdiff_t r = 0; r < reads; r++) {
            double s = sp[r];
            int accept = (fr[r] + lv) * s < limit[r];
            double f = accept ? s : 0.0;
            flip[r] = f;
            sp[r] = s - f - f;
            count += accept;
        }
        if (count == 0)
            continue;
        const double *q = quad + v * n;
        for (ptrdiff_t i = 0; i < n; i++) {
            double qi = q[i], *fi = field + i * reads;
            for (ptrdiff_t r = 0; r < reads; r++)
                fi[r] += qi * flip[r];
        }
    }
}
