/* The native kernels of repro, built into one library by repro._native.
 *
 * greedy_walk  the routers' greedy spill walk (repro.routing.base)
 * ar1_rows     the AR(1) recursion of repro.markets.model.ar1_filter
 *
 * Both repeat, on the same IEEE-754 doubles in the same order, the
 * arithmetic of the code they replaced, so their outputs are bitwise
 * equal to it. Build with -ffp-contract=off and never -ffast-math.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* greedy_walk: the greedy spill walk of repro.routing.base, over a batch
 * of steps.
 *
 * For every step i and every state s in that step's processing order,
 * pour the state's demand down its preference row: take
 * `h < remaining ? h : remaining` from each listed cluster with
 * positive headroom, subtract it from the cluster's headroom and from
 * the state's remaining demand, and stop once nothing remains. Demand
 * left over after the whole row (more than 1e-9) spills into the
 * clusters the row does not list, visited by descending headroom as
 * it stood when the fallback began, ties toward the lower index, NaN
 * last (numpy's stable argsort of -headroom). Listed clusters are not
 * revisited: after a full pass each one holds no positive headroom.
 *
 * Every comparison and subtraction is the one the Python walk made, on
 * the same IEEE-754 doubles in the same order, so the takes are bitwise
 * equal.
 *
 * Inputs (all C-contiguous):
 *   demand   (n_steps, n_states)
 *   prefs    (n_pref_blocks, n_states, n_prefs) preference rows; step
 *            i walks block pref_blocks[i], or block i when pref_blocks
 *            is NULL, or block 0 for all steps when there is one block.
 *            Negative entries are padding and are skipped; repeated
 *            entries are harmless (a revisited cluster takes nothing).
 *   headroom (n_steps, n_clusters), consumed in place
 *   order    (n_steps, n_states) state processing order per step
 *   out      (n_out_rows, n_states, n_clusters), zero-filled; step i
 *            writes row out_rows[i] (row i when out_rows is NULL).
 *
 * Returns WALK_OK, or WALK_INFEASIBLE with failure = {step, state,
 * demand that could not be placed}, or
 * WALK_BAD_INDEX when an order, preference, block or output row index
 * is out of range, or WALK_NOMEM.
 */

enum { WALK_OK = 0, WALK_INFEASIBLE = 1, WALK_BAD_INDEX = 2, WALK_NOMEM = 3 };

/* Does headroom a sort strictly before headroom b in the fallback? */
static int visits_before(double a, double b)
{
    return a > b || (b != b && a == a);
}

int greedy_walk(int64_t n_steps, int64_t n_states, int64_t n_clusters, int64_t n_prefs,
                const double *demand, const int64_t *prefs, int64_t n_pref_blocks,
                const int64_t *pref_blocks, double *headroom, const int64_t *order, double *out, int64_t n_out_rows,
                const int64_t *out_rows, double *failure)
{
    int status = WALK_OK;
    char *listed = malloc((size_t)n_clusters + 1);
    int64_t *rest = malloc(((size_t)n_clusters + 1) * sizeof *rest);
    if (listed == NULL || rest == NULL) {
        status = WALK_NOMEM;
        goto done;
    }
    for (int64_t i = 0; i < n_steps; i++) {
        const double *step_demand = demand + i * n_states;
        const int64_t *step_order = order + i * n_states;
        double *head = headroom + i * n_clusters;
        int64_t block = pref_blocks != NULL ? pref_blocks[i] : n_pref_blocks == 1 ? 0 : i;
        int64_t row = out_rows != NULL ? out_rows[i] : i;
        if (block < 0 || block >= n_pref_blocks || row < 0 || row >= n_out_rows) {
            status = WALK_BAD_INDEX;
            goto done;
        }
        const int64_t *step_prefs = prefs + block * n_states * n_prefs;
        double *step_out = out + row * n_states * n_clusters;
        for (int64_t rank = 0; rank < n_states; rank++) {
            int64_t s = step_order[rank];
            if (s < 0 || s >= n_states) {
                status = WALK_BAD_INDEX;
                goto done;
            }
            double remaining = step_demand[s];
            if (remaining <= 0.0)
                continue;
            const int64_t *pref = step_prefs + s * n_prefs;
            double *cell = step_out + s * n_clusters;
            for (int64_t k = 0; k < n_prefs; k++) {
                if (remaining <= 0.0)
                    break;
                int64_t c = pref[k];
                if (c < 0)
                    continue;
                if (c >= n_clusters) {
                    status = WALK_BAD_INDEX;
                    goto done;
                }
                double h = head[c];
                double take = h < remaining ? h : remaining;
                if (take <= 0.0)
                    continue;
                cell[c] = take;
                head[c] = h - take;
                remaining -= take;
            }
            if (remaining > 1e-9) {
                memset(listed, 0, (size_t)n_clusters);
                /* The row was walked in full, so every entry is in range. */
                for (int64_t k = 0; k < n_prefs; k++)
                    if (pref[k] >= 0)
                        listed[pref[k]] = 1;
                /* Stable insertion sort of the unlisted clusters. */
                int64_t n_rest = 0;
                for (int64_t c = 0; c < n_clusters; c++) {
                    if (listed[c])
                        continue;
                    int64_t j = n_rest++;
                    while (j > 0 && visits_before(head[c], head[rest[j - 1]])) {
                        rest[j] = rest[j - 1];
                        j--;
                    }
                    rest[j] = c;
                }
                for (int64_t j = 0; j < n_rest; j++) {
                    int64_t c = rest[j];
                    double h = head[c];
                    double take = h < remaining ? h : remaining;
                    if (take <= 0.0)
                        continue;
                    cell[c] = take;
                    head[c] = h - take;
                    remaining -= take;
                    if (remaining <= 0.0)
                        break;
                }
            }
            if (remaining > 1e-6) {
                failure[0] = (double)i;
                failure[1] = (double)s;
                failure[2] = remaining;
                status = WALK_INFEASIBLE;
                goto done;
            }
        }
    }
done:
    free(listed);
    free(rest);
    return status;
}

/* ar1_rows: y[t] = phi*y[t-1] + x[t] along each of n_rows C-contiguous
 * rows of n samples, in place. Sample 0 of a row is its y[0]; the others
 * hold the scaled shocks x[t] on entry and y[t] on return.
 *
 * This is scipy.signal.lfilter([1.0], [1.0, -phi], x, zi=phi*y[0]) to
 * the bit: its order-1 direct form II transposed runs y = z + 1.0*x and
 * then z = x*0.0 - y*(-phi), whose 1.0*x and x*0.0 terms keep lfilter's
 * signed zeros and its NaN where an infinite shock meets the zero tap.
 */
void ar1_rows(int64_t n_rows, int64_t n, double phi, double *data)
{
    if (n < 2)
        return;
    for (int64_t r = 0; r < n_rows; r++) {
        double *row = data + r * n;
        double z = phi * row[0];
        for (int64_t t = 1; t < n; t++) {
            double x = row[t];
            double y = z + 1.0 * x;
            z = x * 0.0 - y * (-phi);
            row[t] = y;
        }
    }
}
