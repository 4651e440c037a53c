/* Metropolis step loop of nuanneal.annealer.anneal for one chunk of sweeps:
 * the same visits, thresholds and arithmetic as the numpy loop, so both give
 * bit-identical spins and fields.  Step k = s * n + t (sweep s, position t)
 * visits variable visits[k] against the thresholds log_u[k * reads + r] /
 * neg_beta[s], one per read r.  Row j of quad, spin and field belongs to
 * variable j; spin and field rows hold one value per read.
 *
 * The threshold divide happens here, in the accept loop, where numpy
 * divides the whole chunk of log-uniforms by the sweep's -beta before its
 * loop.  Both are one correctly rounded IEEE division of the same operands:
 * the quotient, an overflow to +inf and log(0) = -inf over -beta = +inf come
 * out the same.
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
 * -ffast-math (which would allow the divide to become a multiply by a
 * rounded reciprocal) and with contraction off, each element is the same
 * IEEE operation as in numpy, whatever the vector width: spin and flip are
 * -1, 0 or +1, so every product is exact and only the divide and the
 * additions round. */
#include <stddef.h>

void anneal_steps(ptrdiff_t sweeps, ptrdiff_t n, ptrdiff_t reads,
                  const ptrdiff_t *restrict visits,
                  const double *restrict log_u,
                  const double *restrict neg_beta,
                  const double *restrict lin, const double *restrict quad,
                  double *restrict spin, double *restrict field,
                  double *restrict flip)
{
    for (ptrdiff_t k = 0; k < sweeps * n; k++) {
        ptrdiff_t v = visits[k];
        const double *lu = log_u + k * reads;
        const double nb = neg_beta[k / n];
        const double *fr = field + v * reads;
        double *sp = spin + v * reads, lv = lin[v];
        ptrdiff_t count = 0;
        for (ptrdiff_t r = 0; r < reads; r++) {
            double s = sp[r];
            int accept = (fr[r] + lv) * s < lu[r] / nb;
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
