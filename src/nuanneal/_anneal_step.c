/* Metropolis step loop of nuanneal.annealer.anneal for one threshold chunk:
 * the same visits, thresholds and arithmetic as the numpy loop, so both give
 * bit-identical spins.  Step k (sweep k / n, position k % n) visits variable
 * visits[k] against thresholds[k * reads .. k * reads + reads - 1].  Row j
 * of quad, spin and field belongs to variable j; spin and field rows hold
 * one value per read.
 *
 * Each visit runs two passes.  The first, branchless, writes the indices of
 * the reads that accept into flipped; the second flips only those reads and
 * adds quad[v] * spin down their field columns.  The numpy loop also adds
 * quad[v] * 0 = +-0 to the fields of the other reads, which can change only
 * the sign of a field that is exactly zero, and a later sum with that field
 * is the same unless it is zero too.  The sign never matters: dE = (field +
 * lin) * spin is then +-0 or lin * spin, and +0 and -0 compare the same
 * against every threshold.  Build with -ffp-contract=off: spin is -1 or
 * +1, so every product is exact and only the additions round, as in numpy. */
#include <stddef.h>

void anneal_steps(ptrdiff_t steps, ptrdiff_t n, ptrdiff_t reads,
                  const ptrdiff_t *visits, const double *thresholds,
                  const double *lin, const double *quad,
                  double *spin, double *field, ptrdiff_t *flipped)
{
    for (ptrdiff_t k = 0; k < steps; k++) {
        ptrdiff_t v = visits[k];
        const double *limit = thresholds + k * reads;
        double *sp = spin + v * reads, *fr = field + v * reads;
        ptrdiff_t count = 0;
        for (ptrdiff_t r = 0; r < reads; r++) {
            flipped[count] = r;
            count += (fr[r] + lin[v]) * sp[r] < limit[r];
        }
        const double *q = quad + v * n;
        for (ptrdiff_t c = 0; c < count; c++) {
            ptrdiff_t r = flipped[c];
            double s = sp[r];
            sp[r] = -s;
            for (ptrdiff_t i = 0; i < n; i++)
                field[i * reads + r] += q[i] * s;
        }
    }
}
