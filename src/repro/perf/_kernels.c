/* Compiled twins of three scalar loops of the evaluation accelerator:
 * the two invocation-propagation loops (repro_opt_propagate_blocked,
 * repro_adaptive_propagate_blocked) and the cold path's fused plan
 * expansion + region trace + compile (repro_traced_compile).
 *
 * Built at runtime by repro/perf/native.py (cc with native.CFLAGS:
 * -O2 -ffp-contract=off -fPIC -shared) and loaded through ctypes.
 * All three replace pure-Python scalar loops whose operation order
 * is fully determined, so a C double performs the identical IEEE-754
 * operation sequence and the results are bitwise equal to the
 * interpreter's.  That holds only without fast-math (no reassociation)
 * and without FP contraction: fusing `+= c * rate` into one FMA would
 * round once where the reference rounds twice.  NumPy reductions
 * (ndarray.sum, np.dot) are *not* reimplemented here: their
 * pairwise/BLAS accumulation order is an implementation detail this
 * repo must reproduce, so those stay in NumPy (see
 * repro/perf/batch.py::batched_cache_pressure).
 *
 * The propagation kernels
 * -----------------------
 *
 * Both kernels process representatives in blocks of `block`, walking
 * methods in the outer loop within each block over a (n_methods,
 * block) method-major scratch matrix and transposing the finished
 * block back into the rep-major counts output.  For a given
 * representative the operation sequence — the zero fill, the entry
 * seed, the mid-order self-rate division and edge accumulations — is
 * exactly the reference loop's, so every row of counts is bitwise
 * identical for any block width; blocking only changes *which other
 * representatives'* work happens between two of one representative's
 * operations.  The win is locality: within a block, one method's
 * cache entry (self_rate + CSR row) is loaded once and applied to
 * every representative while hot, instead of being re-fetched per
 * representative after the whole program's worth of other entries
 * evicted it.
 *
 * scratch: caller-provided working memory of at least
 *          n_methods * block doubles; `block` is its row stride
 * counts:  (n_reps, n_methods) output, fully written by the kernel
 *
 * Error protocol: both propagation kernels return 0 on success and
 * -(mid + 1) when method `mid` is invoked but has no compiled version
 * — the Python wrapper raises the same SimulationError the reference
 * loop raises.  When several representatives in one block miss
 * different methods, the reported mid is the first in (method,
 * representative) order rather than the reference's (representative,
 * method) order; success paths are unaffected.
 *
 * The compiled cold path
 * ----------------------
 *
 * repro_traced_compile runs TracedCompiler's loop (repro/perf/
 * fastcompile.py) over a whole missing list in one call: for each
 * requested method, the depth-first inline walk with the Figure 3/4
 * decision cascade, the integer parameter-region bounds, the absorbed
 * work and residual-edge sums, and the final cycle formulas.  Per
 * method, every floating-point operation has the Python loop's
 * operands in the Python loop's order; the outputs go to flat arrays
 * the Python side turns back into CompiledMethod / ParamRegion
 * records.
 */

#include <stdint.h>

/* Mirror of EvaluationAccelerator._propagate over a batch of
 * representative rows (the Opt scenario's accounting hot loop).
 *
 * resolved:  (n_reps, n_methods) cache-entry ids, -1 = unresolved
 * self_rate: per-entry residual self-recursion rate
 * edge_offsets/edge_callees/edge_rates: CSR of the per-entry residual
 *            forward edges, in edge order
 */
int64_t repro_opt_propagate_blocked(
    int64_t n_reps,
    int64_t n_methods,
    int64_t entry_id,
    int64_t block,
    const int64_t *resolved,
    const double *self_rate,
    const int64_t *edge_offsets,
    const int64_t *edge_callees,
    const double *edge_rates,
    double *scratch,
    double *counts)
{
    int64_t b0, r, m, mid, k, bw;
    for (b0 = 0; b0 < n_reps; b0 += block) {
        bw = n_reps - b0;
        if (bw > block)
            bw = block;
        for (m = 0; m < n_methods; m++) {
            double *row = scratch + m * block;
            for (r = 0; r < bw; r++)
                row[r] = 0.0;
        }
        {
            double *row = scratch + entry_id * block;
            for (r = 0; r < bw; r++)
                row[r] = 1.0;
        }
        for (mid = 0; mid < n_methods; mid++) {
            double *c_m = scratch + mid * block;
            const int64_t *res = resolved + b0 * n_methods + mid;
            for (r = 0; r < bw; r++) {
                double c = c_m[r];
                int64_t entry;
                double sr;
                if (c <= 0.0)
                    continue;
                entry = res[r * n_methods];
                if (entry < 0)
                    return -(mid + 1);
                sr = self_rate[entry];
                if (sr > 0.0) {
                    c = c / (1.0 - sr);
                    c_m[r] = c;
                }
                for (k = edge_offsets[entry]; k < edge_offsets[entry + 1]; k++)
                    scratch[edge_callees[k] * block + r] += c * edge_rates[k];
            }
        }
        for (r = 0; r < bw; r++) {
            double *out = counts + (b0 + r) * n_methods;
            for (m = 0; m < n_methods; m++)
                out[m] = scratch[m * block + r];
        }
    }
    return 0;
}

/* Mirror of EvaluationAccelerator._propagate_adaptive over a batch of
 * representatives (the Adapt scenario's matrix propagation).
 *
 * Promoted methods resolve their compiled version per representative
 * through entry_matrix (indexed by promoted_slot); baseline methods
 * use the per-method baseline CSR shared by every representative,
 * which the method-major order resolves once per (method, block)
 * instead of once per (representative, method).
 *
 * entry_matrix:  (n_reps, n_promoted) cache-entry ids
 * promoted_slot: per-method column index into entry_matrix rows, or
 *                -1 for baseline methods
 * base_present:  per-method flag: 1 when the baseline skeleton holds
 *                a compiled version for the method
 */
int64_t repro_adaptive_propagate_blocked(
    int64_t n_reps,
    int64_t n_methods,
    int64_t entry_id,
    int64_t n_promoted,
    int64_t block,
    const int64_t *entry_matrix,
    const int64_t *promoted_slot,
    const double *entry_self_rate,
    const int64_t *entry_offsets,
    const int64_t *entry_callees,
    const double *entry_rates,
    const uint8_t *base_present,
    const double *base_self_rate,
    const int64_t *base_offsets,
    const int64_t *base_callees,
    const double *base_rates,
    double *scratch,
    double *counts)
{
    int64_t b0, r, m, mid, k, bw;
    for (b0 = 0; b0 < n_reps; b0 += block) {
        bw = n_reps - b0;
        if (bw > block)
            bw = block;
        for (m = 0; m < n_methods; m++) {
            double *row = scratch + m * block;
            for (r = 0; r < bw; r++)
                row[r] = 0.0;
        }
        {
            double *row = scratch + entry_id * block;
            for (r = 0; r < bw; r++)
                row[r] = 1.0;
        }
        for (mid = 0; mid < n_methods; mid++) {
            double *c_m = scratch + mid * block;
            int64_t slot = promoted_slot[mid];
            for (r = 0; r < bw; r++) {
                double c = c_m[r];
                double sr;
                int64_t lo, hi;
                const int64_t *cal;
                const double *rat;
                if (c <= 0.0)
                    continue;
                if (slot >= 0) {
                    int64_t e = entry_matrix[(b0 + r) * n_promoted + slot];
                    if (e < 0)
                        return -(mid + 1);
                    sr = entry_self_rate[e];
                    lo = entry_offsets[e];
                    hi = entry_offsets[e + 1];
                    cal = entry_callees;
                    rat = entry_rates;
                } else {
                    if (!base_present[mid])
                        return -(mid + 1);
                    sr = base_self_rate[mid];
                    lo = base_offsets[mid];
                    hi = base_offsets[mid + 1];
                    cal = base_callees;
                    rat = base_rates;
                }
                if (sr > 0.0) {
                    c = c / (1.0 - sr);
                    c_m[r] = c;
                }
                for (k = lo; k < hi; k++)
                    scratch[cal[k] * block + r] += c * rat[k];
            }
        }
        for (r = 0; r < bw; r++) {
            double *out = counts + (b0 + r) * n_methods;
            for (m = 0; m < n_methods; m++)
                out[m] = scratch[m * block + r];
        }
    }
    return 0;
}

/* Per-program tables of repro_traced_compile, built once per program
 * by repro/perf/fastcompile.py::TracedCompiler and mirrored field for
 * field by native._TracedProgram.  The call sites form a CSR in source
 * order: method m's sites are site_*[site_offsets[m]:site_offsets[m+1]].
 *
 * fwd/fwd_seen/touched: per-method scratch for one compile's residual
 *          forward edges; fwd_seen must be all zero between calls
 * frame_*: suspended-descent arena of at least depth_limit slots: a
 *          descent needs depth <= depth_limit, so at most depth_limit
 *          frames are ever suspended
 */
typedef struct {
    int64_t n_methods;
    int64_t depth_limit;
    int64_t n_levels;
    const double *sizes;
    const double *work;
    const double *growth;
    const int64_t *ceil_sizes;
    const int64_t *floor_sizes;
    const int64_t *site_offsets;
    const int64_t *site_callee;
    const double *site_rate;
    const double *bonus_factor;
    const double *level_rate;
    const double *level_speed;
    double code_density;
    double superlinear_scale;
    double work_cycle_scale;
    double app_cycle_factor;
    double call_cost;
    double *fwd;
    uint8_t *fwd_seen;
    int64_t *touched;
    int64_t *frame_depth;
    double *frame_mult;
    int64_t *frame_site;
    int64_t *frame_end;
} repro_traced_program;

/* unbounded upper region limit: repro.jvm.inlining._REGION_UNBOUNDED */
#define REPRO_REGION_UNBOUNDED ((int64_t)1 << 62)

/* math.ceil for the non-negative expanded sizes the p3 bounds come
 * from (exact below 2**63; no libm, so the object links stand-alone) */
static int64_t ceil_nonneg(double x)
{
    int64_t i = (int64_t)x;
    return (double)i < x ? i + 1 : i;
}

/* Mirror of TracedCompiler's Python loop (itself the fused twin of
 * OptimizingCompiler.compile_traced) over a whole missing list: every
 * (methods[k], levels[k]) compiles under the one parameter vector
 * `values`.  The depth-first walk, the Figure 3/4 decision cascade
 * with its integer region bounds, and every floating-point operation
 * happen in the Python loop's order with its operands, so each output
 * is bitwise equal to it.
 *
 * site_hot: per-site flags of the profiler-hot sites, or NULL when the
 *           hot-site heuristic is off (or no site is hot)
 * bounds:   (n, 10) region bounds per compile: lo[0..4], hi[0..4]
 * scalars:  (n, 4) code_size, compile_cycles, cycles_per_invocation,
 *           residual_self_rate
 * inlined:  (n) inlined site count
 * edge_offsets/edge_callees/edge_rates: CSR of each compile's residual
 *           forward edges in ascending callee order; edges past
 *           edge_capacity are counted but not written
 *
 * Returns the total number of residual forward edges (the caller grows
 * its edge buffers and calls again when that exceeds edge_capacity),
 * or -(k + 1) when request k names an unknown method or level.
 */
int64_t repro_traced_compile(
    const repro_traced_program *prog,
    const int64_t *values,
    int64_t n,
    const int64_t *methods,
    const int64_t *levels,
    const uint8_t *site_hot,
    int64_t *bounds,
    double *scalars,
    int64_t *inlined,
    int64_t *edge_offsets,
    int64_t edge_capacity,
    int64_t *edge_callees,
    double *edge_rates)
{
    const double *sizes = prog->sizes;
    const double *work = prog->work;
    const double *growth = prog->growth;
    const int64_t *ceil_sizes = prog->ceil_sizes;
    const int64_t *floor_sizes = prog->floor_sizes;
    const int64_t *site_offsets = prog->site_offsets;
    const int64_t *site_callee = prog->site_callee;
    const double *site_rate = prog->site_rate;
    const double *bonus_factor = prog->bonus_factor;
    double *fwd = prog->fwd;
    uint8_t *fwd_seen = prog->fwd_seen;
    int64_t *touched = prog->touched;
    const int64_t depth_limit = prog->depth_limit;
    const int64_t p0 = values[0], p1 = values[1], p2 = values[2];
    /* Python compares float > int exactly; the conversion is exact
     * below 2**53, and above it no expanded size can exceed p3 either
     * way */
    const double p3 = (double)values[3];
    const int64_t p4 = values[4];
    int64_t k, n_edges = 0;

    for (k = 0; k < n; k++) {
        if (methods[k] < 0 || methods[k] >= prog->n_methods
            || levels[k] < 0 || levels[k] >= prog->n_levels)
            return -(k + 1);
    }
    edge_offsets[0] = 0;
    for (k = 0; k < n; k++) {
        const int64_t method_id = methods[k];
        int64_t lo0 = 0, lo1 = 0, lo2 = 0, lo4 = 0;
        int64_t hi0 = REPRO_REGION_UNBOUNDED, hi1 = REPRO_REGION_UNBOUNDED;
        int64_t hi2 = REPRO_REGION_UNBOUNDED, hi4 = REPRO_REGION_UNBOUNDED;
        /* deferred p3 bounds, as in the Python loop: the extreme
         * expanded sizes seen at failed / passed p3 tests (hi3_seen
         * stands for the Python loop's infinite initial value) */
        double lo3_expanded = -1.0, hi3_expanded = 0.0;
        int hi3_seen = 0;
        double expanded = sizes[method_id];
        double absorbed = 0.0, call_rate = 0.0, self_rate = 0.0;
        double mult = 1.0, superlinear, compile_rate, speed, *out;
        int64_t n_inlined = 0, n_touched = 0, sp = 0, depth = 1, t, *b;
        int64_t site = site_offsets[method_id];
        int64_t end = site_offsets[method_id + 1];

        for (;;) {
            int64_t callee, csc, csf, bound;
            double rate;
            int inline_it;
            if (site == end) {
                if (!sp)
                    break;
                sp--;
                depth = prog->frame_depth[sp];
                mult = prog->frame_mult[sp];
                site = prog->frame_site[sp];
                end = prog->frame_end[sp];
                continue;
            }
            callee = site_callee[site];
            rate = mult * site_rate[site];
            csc = ceil_sizes[callee];

            if (depth > depth_limit) {
                inline_it = 0; /* implementation guard: unconstrained */
            } else if (site_hot != 0 && depth == 1 && site_hot[site]) {
                if (csc > p4) {
                    bound = csc - 1;
                    if (bound < hi4)
                        hi4 = bound;
                    inline_it = 0;
                } else {
                    if (csc > lo4)
                        lo4 = csc;
                    inline_it = 1;
                }
            } else if (csc > p0) {
                bound = csc - 1;
                if (bound < hi0)
                    hi0 = bound;
                inline_it = 0;
            } else {
                if (csc > lo0)
                    lo0 = csc;
                csf = floor_sizes[callee];
                if (csf < p1) {
                    bound = csf + 1;
                    if (bound > lo1)
                        lo1 = bound;
                    inline_it = 1;
                } else {
                    if (csf < hi1)
                        hi1 = csf;
                    if (depth > p2) {
                        bound = depth - 1;
                        if (bound < hi2)
                            hi2 = bound;
                        inline_it = 0;
                    } else {
                        if (depth > lo2)
                            lo2 = depth;
                        if (expanded > p3) {
                            if (!hi3_seen || expanded < hi3_expanded) {
                                hi3_expanded = expanded;
                                hi3_seen = 1;
                            }
                            inline_it = 0;
                        } else {
                            if (expanded > lo3_expanded)
                                lo3_expanded = expanded;
                            inline_it = 1;
                        }
                    }
                }
            }
            site++;

            if (inline_it) {
                absorbed += rate * work[callee] * bonus_factor[depth];
                n_inlined++;
                expanded += growth[callee];
                if (site_offsets[callee] < site_offsets[callee + 1]) {
                    prog->frame_depth[sp] = depth;
                    prog->frame_mult[sp] = mult;
                    prog->frame_site[sp] = site;
                    prog->frame_end[sp] = end;
                    sp++;
                    depth++;
                    mult = rate;
                    site = site_offsets[callee];
                    end = site_offsets[callee + 1];
                }
            } else {
                call_rate += rate;
                if (callee == method_id) {
                    self_rate += rate;
                } else {
                    if (!fwd_seen[callee]) {
                        fwd_seen[callee] = 1;
                        fwd[callee] = 0.0;
                        touched[n_touched++] = callee;
                    }
                    fwd[callee] += rate;
                }
            }
        }

        b = bounds + 10 * k;
        b[0] = lo0;
        b[1] = lo1;
        b[2] = lo2;
        b[3] = lo3_expanded >= 0.0 ? ceil_nonneg(lo3_expanded) : 0;
        b[4] = lo4;
        b[5] = hi0;
        b[6] = hi1;
        b[7] = hi2;
        b[8] = hi3_seen
            ? ceil_nonneg(hi3_expanded) - 1
            : REPRO_REGION_UNBOUNDED;
        b[9] = hi4;

        compile_rate = prog->level_rate[levels[k]];
        speed = prog->level_speed[levels[k]];
        superlinear = 1.0 + expanded / prog->superlinear_scale;
        out = scalars + 4 * k;
        out[0] = expanded * prog->code_density;
        out[1] = compile_rate * expanded * superlinear;
        out[2] = (work[method_id] + absorbed)
            * speed
            * prog->work_cycle_scale
            * prog->app_cycle_factor
            + call_rate * prog->call_cost;
        out[3] = self_rate;
        inlined[k] = n_inlined;

        /* residual forward edges in ascending callee order (insertion
         * sort: a compile touches few distinct callees) */
        for (t = 1; t < n_touched; t++) {
            int64_t c = touched[t], j = t;
            while (j > 0 && touched[j - 1] > c) {
                touched[j] = touched[j - 1];
                j--;
            }
            touched[j] = c;
        }
        for (t = 0; t < n_touched; t++) {
            int64_t c = touched[t];
            if (n_edges < edge_capacity) {
                edge_callees[n_edges] = c;
                edge_rates[n_edges] = fwd[c];
            }
            n_edges++;
            fwd_seen[c] = 0;
        }
        edge_offsets[k + 1] = n_edges;
    }
    return n_edges;
}
