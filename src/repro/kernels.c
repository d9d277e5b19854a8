/* The native kernels of repro, built into one library by repro._native.
 *
 * greedy_walk  the routers' greedy spill walk (repro.routing.base)
 * ar1_rows     the AR(1) recursion of repro.markets.model.ar1_filter
 * price_rank   the price router's choice, fit test and spill orders
 *              (repro.routing.price)
 * fold_rows    the engine ledger's per-step loads and running chunk sum
 *              (repro.sim.engine)
 *
 * Each repeats, on the same IEEE-754 doubles in the same order, the
 * arithmetic of the code it replaced (kept as test oracles under
 * tests/), so its outputs are bitwise equal to it. Build with
 * -ffp-contract=off and never -ffast-math.
 */

#include <math.h>
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
 *   out      (n_out_rows, n_states, n_clusters); step i zero-fills row
 *            out_rows[i] (row i when out_rows is NULL) and writes its
 *            takes there, while the row is in cache, so callers need
 *            not zero the tensor first. Other rows are not touched.
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
        memset(step_out, 0, (size_t)(n_states * n_clusters) * sizeof *step_out);
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

/* price_rank: the price-conscious router's per-step choice (§6.1).
 *
 * For every step t and state s, over the state's candidate clusters
 * (row s of by_distance: candidate indices ordered by distance, ties
 * toward the lower index, padded with -1):
 *
 *   min     the lowest candidate price (+inf for no candidate);
 *   cutoff  min + price_threshold, one double add;
 *   cheap   the candidates priced <= cutoff;
 *   choice  the nearest cheap candidate, lowest index on ties, or
 *           cluster 0 when no cheap candidate has a finite distance
 *           (np.argmin of the cheap candidates' distances, inf
 *           elsewhere, as the numpy router computed it).
 *
 * The step fits when every cluster's load, the sum of its choosing
 * states' demand in state order from 0.0, is <= limit + 1e-9; a
 * fitting step zero-fills row t of out and writes demand[t, s] to
 * out[t, s, choice[s]]. A step that does not fit is listed in spill
 * (ascending) and gets a block of spill orders: each state's
 * candidates ordered by (bucket, price within bucket, distance,
 * index), bucket 0 being prices not above the cutoff, where price
 * does not count, and bucket 1 the rest. This is the stable
 * np.lexsort of the numpy router, -0.0 == 0.0 included; with a NaN
 * cutoff (a -inf minimum plus an infinite threshold) every candidate
 * is in bucket 0 and none is cheap. Entries past a state's candidates
 * are -1, which the greedy walk skips.
 *
 * Everything above depends on the step's price row alone, through
 * comparisons and the cutoff add, so a row equal to the last one
 * ranked (== per cluster; -0.0 matches 0.0, NaN matches nothing)
 * reuses its choice, and its block of orders: spill_blocks[i] is the
 * block of spill row i, for greedy_walk's pref_blocks.
 *
 * Inputs (all C-contiguous): prices (n_steps, n_clusters); by_distance
 * (n_states, n_prefs); distances (n_states, n_clusters); demand
 * (n_steps, n_states); limits (n_limit_rows, n_clusters), one shared
 * row or one per step; out (n_steps, n_states, n_clusters), whose
 * spilling rows are left as they were, for the walk to fill. Outputs:
 * spill (n_steps,), spill_blocks (n_steps,) and orders (n_steps,
 * n_states, n_prefs), of which the first n_spill entries and the
 * blocks they name are written. Every by_distance entry must be a
 * cluster index or -1: the caller builds it, and nothing is checked.
 *
 * Returns n_spill, or -1 when the scratch buffers cannot be allocated.
 */

/* Rank one state's candidates into row: bucket 0 in distance order,
 * then bucket 1 by a stable insertion sort on price. */
static void rank_state(const double *price, const int64_t *cands, int64_t n_prefs, double cutoff,
                       int64_t *row)
{
    int64_t n = 0;
    for (int64_t k = 0; k < n_prefs && cands[k] >= 0; k++)
        if (!(price[cands[k]] > cutoff))
            row[n++] = cands[k];
    int64_t *pricier = row + n;
    int64_t n_pricier = 0;
    for (int64_t k = 0; k < n_prefs && cands[k] >= 0; k++) {
        int64_t c = cands[k];
        double p = price[c];
        if (!(p > cutoff))
            continue;
        int64_t j = n_pricier++;
        while (j > 0 && p < price[pricier[j - 1]]) {
            pricier[j] = pricier[j - 1];
            j--;
        }
        pricier[j] = c;
    }
    for (int64_t k = n + n_pricier; k < n_prefs; k++)
        row[k] = -1;
}

int64_t price_rank(int64_t n_steps, int64_t n_states, int64_t n_clusters, int64_t n_prefs,
                   const double *prices, const int64_t *by_distance, const double *distances,
                   double price_threshold, const double *demand, const double *limits,
                   int64_t n_limit_rows, double *out, int64_t *spill, int64_t *spill_blocks,
                   int64_t *orders)
{
    double *cutoff = malloc(((size_t)n_states + 1) * sizeof *cutoff);
    double *loads = malloc(((size_t)n_clusters + 1) * sizeof *loads);
    int64_t *choice = malloc(((size_t)n_states + 1) * sizeof *choice);
    if (cutoff == NULL || loads == NULL || choice == NULL) {
        free(cutoff);
        free(loads);
        free(choice);
        return -1;
    }
    int64_t n_spill = 0, n_blocks = 0;
    const double *ranked = NULL;  /* the price row choice and cutoff hold */
    const double *blocked = NULL; /* the price row of block n_blocks - 1 */
    for (int64_t t = 0; t < n_steps; t++) {
        const double *price = prices + t * n_clusters;
        const double *step_demand = demand + t * n_states;
        int same = ranked != NULL;
        for (int64_t c = 0; same && c < n_clusters; c++)
            same = price[c] == ranked[c];
        if (!same) {
            for (int64_t s = 0; s < n_states; s++) {
                const int64_t *cands = by_distance + s * n_prefs;
                double low = INFINITY;
                for (int64_t k = 0; k < n_prefs && cands[k] >= 0; k++)
                    if (price[cands[k]] < low)
                        low = price[cands[k]];
                double cut = low + price_threshold;
                int64_t pick = 0;
                for (int64_t k = 0; k < n_prefs && cands[k] >= 0; k++) {
                    int64_t c = cands[k];
                    if (price[c] <= cut) {
                        if (distances[s * n_clusters + c] < INFINITY)
                            pick = c;
                        break;
                    }
                }
                cutoff[s] = cut;
                choice[s] = pick;
            }
            ranked = price;
        }
        for (int64_t c = 0; c < n_clusters; c++)
            loads[c] = 0.0;
        for (int64_t s = 0; s < n_states; s++)
            loads[choice[s]] += step_demand[s];
        const double *limit = limits + (n_limit_rows == 1 ? 0 : t) * n_clusters;
        int fits = 1;
        for (int64_t c = 0; c < n_clusters; c++)
            if (!(loads[c] <= limit[c] + 1e-9))
                fits = 0;
        if (fits) {
            double *step_out = out + t * n_states * n_clusters;
            memset(step_out, 0, (size_t)(n_states * n_clusters) * sizeof *step_out);
            for (int64_t s = 0; s < n_states; s++)
                step_out[s * n_clusters + choice[s]] = step_demand[s];
            continue;
        }
        int fresh = blocked == NULL;
        for (int64_t c = 0; !fresh && c < n_clusters; c++)
            fresh = !(price[c] == blocked[c]);
        if (fresh) {
            int64_t *block = orders + n_blocks * n_states * n_prefs;
            for (int64_t s = 0; s < n_states; s++)
                rank_state(price, by_distance + s * n_prefs, n_prefs, cutoff[s],
                           block + s * n_prefs);
            blocked = price;
            n_blocks++;
        }
        spill[n_spill] = t;
        spill_blocks[n_spill] = n_blocks - 1;
        n_spill++;
    }
    free(cutoff);
    free(loads);
    free(choice);
    return n_spill;
}

/* fold_rows: one pass of the engine ledger over n_rows steps of
 * (n_states, n_clusters) allocations. Row t writes
 * loads[t, c] = sum over s of a[t, s, c], added in state order from
 * 0.0, and adds a[t] into the running chunk sum partial (n_states,
 * n_clusters), step after step. These are the adds of numpy's
 * a.sum(axis=1) and of a buffered chunk's sum(axis=0) wherever numpy
 * adds in sequence, which is every shape with n_clusters > 1 and
 * n_states * n_clusters > 1; on the degenerate ones numpy coalesces
 * the axis into a pairwise sum, and this order is the contract.
 */
void fold_rows(int64_t n_rows, int64_t n_states, int64_t n_clusters, const double *allocations,
               double *loads, double *partial)
{
    int64_t cells = n_states * n_clusters;
    for (int64_t t = 0; t < n_rows; t++) {
        const double *a = allocations + t * cells;
        double *load = loads + t * n_clusters;
        for (int64_t c = 0; c < n_clusters; c++)
            load[c] = 0.0;
        for (int64_t s = 0; s < n_states; s++) {
            const double *cell = a + s * n_clusters;
            double *sum = partial + s * n_clusters;
            for (int64_t c = 0; c < n_clusters; c++) {
                load[c] += cell[c];
                sum[c] += cell[c];
            }
        }
    }
}
