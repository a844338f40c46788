/* Compiled twins of four loops of the evaluation accelerator, in three
 * exported functions: the two invocation-propagation loops
 * (repro_opt_propagate_blocked, repro_adaptive_propagate_blocked), and
 * the whole-generation resolve (repro_resolve_generation) with the cold
 * path's fused plan expansion + region trace + compile (compile_method)
 * inside it.
 *
 * Built at runtime by repro/perf/native.py (cc with native.CFLAGS:
 * -O2 -ffp-contract=off -fPIC -shared) and loaded through ctypes.
 * All four replace Python loops whose operation order is fully
 * determined, so a C double performs the identical IEEE-754 operation
 * sequence and the results are bitwise equal to the interpreter's.
 * That holds only without fast-math (no reassociation) and without FP
 * contraction: fusing `+= c * rate` into one FMA would round once
 * where the reference rounds twice.  NumPy reductions (ndarray.sum,
 * np.dot) are *not* reimplemented here: their pairwise/BLAS
 * accumulation order is an implementation detail this repo must
 * reproduce, so those stay in NumPy (see
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
 * compile_method runs TracedCompiler's loop (repro/perf/fastcompile.py)
 * for one method: the depth-first inline walk with the Figure 3/4
 * decision cascade, the integer parameter-region bounds, the absorbed
 * work and residual-edge sums, and the final cycle formulas, every
 * floating-point operation with the Python loop's operands in the
 * Python loop's order.  repro_resolve_generation resolves a whole
 * generation of one program in one call — the broadcast match against
 * every cached region, each genome's compiles appended to the plan
 * cache's column buffers in place, and the fan-out of every new entry
 * to the later genomes its region covers — the compiled twin of
 * EvaluationAccelerator._resolve_pending (repro/perf/engine.py).  The
 * serial path resolves its one genome through the same call, its
 * missing methods as the slots.  The outputs are flat columns the
 * Python side turns into CompiledMethod / ParamRegion records on first
 * access.
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

/* Per-program tables of compile_method, built once per program by
 * repro/perf/fastcompile.py::TracedCompiler and mirrored field for
 * field by native._TracedProgramStruct.  The call sites form a CSR in
 * source order: method m's sites are
 * site_*[site_offsets[m]:site_offsets[m+1]].
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

/* One compile's outputs: the region bounds lo[0..4] then hi[0..4], the
 * scalars code_size, compile_cycles, cycles_per_invocation and
 * residual_self_rate, and the inlined site count */
typedef struct {
    int64_t bounds[10];
    double scalars[4];
    int64_t inlined;
} compiled_row;

/* Mirror of TracedCompiler's Python loop (itself the fused twin of
 * OptimizingCompiler.compile_traced) for one method: `method_id`
 * compiles at `level` under the parameter vector `values`.  The
 * depth-first walk, the Figure 3/4 decision cascade with its integer
 * region bounds, and every floating-point operation happen in the
 * Python loop's order with its operands, so each output is bitwise
 * equal to it.
 *
 * site_hot: per-site flags of the profiler-hot sites, or NULL when the
 *           hot-site heuristic is off (or no site is hot)
 * The residual forward edges go to edge_callees/edge_rates from index
 * `pos` on, in ascending callee order; edges past edge_capacity are
 * counted but not written.  Returns `pos` plus the edge count.
 */
static int64_t compile_method(
    const repro_traced_program *prog,
    const int64_t *values,
    int64_t method_id,
    int64_t level,
    const uint8_t *site_hot,
    compiled_row *out,
    int64_t pos,
    int64_t edge_capacity,
    int64_t *edge_callees,
    double *edge_rates)
{
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
    int64_t lo0 = 0, lo1 = 0, lo2 = 0, lo4 = 0;
    int64_t hi0 = REPRO_REGION_UNBOUNDED, hi1 = REPRO_REGION_UNBOUNDED;
    int64_t hi2 = REPRO_REGION_UNBOUNDED, hi4 = REPRO_REGION_UNBOUNDED;
    /* deferred p3 bounds, as in the Python loop: the extreme expanded
     * sizes seen at failed / passed p3 tests (hi3_seen stands for the
     * Python loop's infinite initial value) */
    double lo3_expanded = -1.0, hi3_expanded = 0.0;
    int hi3_seen = 0;
    double expanded = prog->sizes[method_id];
    double absorbed = 0.0, call_rate = 0.0, self_rate = 0.0;
    double mult = 1.0, superlinear;
    int64_t n_inlined = 0, n_touched = 0, sp = 0, depth = 1, t;
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

    out->bounds[0] = lo0;
    out->bounds[1] = lo1;
    out->bounds[2] = lo2;
    out->bounds[3] = lo3_expanded >= 0.0 ? ceil_nonneg(lo3_expanded) : 0;
    out->bounds[4] = lo4;
    out->bounds[5] = hi0;
    out->bounds[6] = hi1;
    out->bounds[7] = hi2;
    out->bounds[8] = hi3_seen
        ? ceil_nonneg(hi3_expanded) - 1
        : REPRO_REGION_UNBOUNDED;
    out->bounds[9] = hi4;

    superlinear = 1.0 + expanded / prog->superlinear_scale;
    out->scalars[0] = expanded * prog->code_density;
    out->scalars[1] = prog->level_rate[level] * expanded * superlinear;
    out->scalars[2] = (work[method_id] + absorbed)
        * prog->level_speed[level]
        * prog->work_cycle_scale
        * prog->app_cycle_factor
        + call_rate * prog->call_cost;
    out->scalars[3] = self_rate;
    out->inlined = n_inlined;

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
        if (pos < edge_capacity) {
            edge_callees[pos] = c;
            edge_rates[pos] = fwd[c];
        }
        pos++;
        fwd_seen[c] = 0;
    }
    return pos;
}

/* A plan cache's column buffers (repro/perf/plancache.py::
 * MethodPlanCache.columns), mirrored field for field by
 * native._PlanColumnsStruct.  Entries 0..n_entries-1 and edges
 * 0..n_edges-1 are committed; repro_resolve_generation writes new rows
 * past them and advances both counts genome by genome.  When it stops
 * early, want_entries/want_edges give the extent of the rows of the
 * genome it stopped at (see its return codes).
 */
typedef struct {
    int64_t *lo;
    int64_t *hi;
    int64_t *method;
    int64_t *level;
    double *code_size;
    double *compile_cycles;
    double *cycles_per_invocation;
    double *self_rate;
    int64_t *inline_count;
    int64_t *edge_offsets;
    int64_t *edge_callees;
    double *edge_rates;
    int64_t entry_capacity;
    int64_t edge_capacity;
    int64_t n_entries;
    int64_t n_edges;
    int64_t want_entries;
    int64_t want_edges;
} repro_plan_columns;

#define REPRO_RESOLVE_DONE 0
#define REPRO_RESOLVE_GROW 1
#define REPRO_RESOLVE_INVALID 2

/* whether the region lo[0..4] .. hi[0..4] holds the vector v */
static int region_covers(const int64_t *lo, const int64_t *hi, const int64_t *v)
{
    return lo[0] <= v[0] && v[0] <= hi[0]
        && lo[1] <= v[1] && v[1] <= hi[1]
        && lo[2] <= v[2] && v[2] <= hi[2]
        && lo[3] <= v[3] && v[3] <= hi[3]
        && lo[4] <= v[4] && v[4] <= hi[4];
}

/* One program's generation resolve, the compiled twin of
 * EvaluationAccelerator._resolve_pending (repro/perf/engine.py):
 *
 * 1. every genome's vector against every committed entry's region:
 *    resolved[g][method] is the covering entry, or -1 (later entries
 *    overwrite, as MethodPlanCache.match_many's scatter does; regions
 *    of one method are disjoint, so there is at most one);
 * 2. genomes in population order: the slots (slot_method[k],
 *    slot_level[k]) a genome's row leaves open compile in slot order
 *    through compile_method into the rows past the committed ones, are
 *    checked as CompiledMethod checks its fields, and are committed;
 *    the genome's row takes the new entries, and each new entry is
 *    fanned out to every later genome its region covers (an entry
 *    covering at least one counts a grouped compile).
 *
 * progress: [genome to carry on at, compiles, grouped compiles, genomes
 *           covered by those fan-outs]; the counters accumulate, and
 *           step 1 runs only when the first entry is 0
 * resolved: (n_genomes, n_methods) output
 *
 * Returns REPRO_RESOLVE_DONE; REPRO_RESOLVE_GROW when the genome it
 * stopped at (progress[0]) needs cols->want_entries entries or
 * cols->want_edges edges of capacity: everything before it is
 * committed and every later row is exact for the committed entries,
 * so the caller grows the buffers and calls again with the same
 * resolved and progress, which carries on at that genome (a stop at
 * genome 0 has committed nothing, and its re-match is exact too);
 * REPRO_RESOLVE_INVALID when a row of that genome fails the record
 * checks (its rows lie uncommitted at n_entries..want_entries-1); or
 * -(k + 1) when slot k names an unknown method or level.
 */
int64_t repro_resolve_generation(
    const repro_traced_program *prog,
    repro_plan_columns *cols,
    int64_t n_genomes,
    const int64_t *values,
    int64_t n_slots,
    const int64_t *slot_method,
    const int64_t *slot_level,
    const uint8_t *site_hot,
    int64_t *resolved,
    int64_t *progress)
{
    const int64_t n_methods = prog->n_methods;
    int64_t k, g, e, h, j;
    compiled_row out;

    for (k = 0; k < n_slots; k++) {
        if (slot_method[k] < 0 || slot_method[k] >= n_methods
            || slot_level[k] < 0 || slot_level[k] >= prog->n_levels)
            return -(k + 1);
    }
    if (progress[0] == 0) {
        for (k = 0; k < n_genomes * n_methods; k++)
            resolved[k] = -1;
        for (e = 0; e < cols->n_entries; e++) {
            const int64_t *lo = cols->lo + 5 * e, *hi = cols->hi + 5 * e;
            int64_t *column = resolved + cols->method[e];
            for (g = 0; g < n_genomes; g++) {
                if (region_covers(lo, hi, values + 5 * g))
                    column[g * n_methods] = e;
            }
        }
    }

    for (g = progress[0]; g < n_genomes; g++) {
        int64_t *row = resolved + g * n_methods;
        const int64_t *v = values + 5 * g;
        const int64_t first = cols->n_entries;
        int64_t stop = first, pos = cols->n_edges;
        for (k = 0; k < n_slots; k++)
            stop += row[slot_method[k]] < 0;
        if (stop == first)
            continue;
        progress[0] = g;
        cols->want_entries = stop;
        cols->want_edges = pos;
        if (stop > cols->entry_capacity)
            return REPRO_RESOLVE_GROW;
        for (k = 0, e = first; k < n_slots; k++) {
            const int64_t mid = slot_method[k];
            if (row[mid] >= 0)
                continue;
            pos = compile_method(
                prog, v, mid, slot_level[k], site_hot, &out, pos,
                cols->edge_capacity, cols->edge_callees, cols->edge_rates);
            for (j = 0; j < 5; j++) {
                cols->lo[5 * e + j] = out.bounds[j];
                cols->hi[5 * e + j] = out.bounds[5 + j];
            }
            cols->method[e] = mid;
            cols->level[e] = slot_level[k];
            cols->code_size[e] = out.scalars[0];
            cols->compile_cycles[e] = out.scalars[1];
            cols->cycles_per_invocation[e] = out.scalars[2];
            cols->self_rate[e] = out.scalars[3];
            cols->inline_count[e] = out.inlined;
            cols->edge_offsets[e + 1] = pos;
            e++;
        }
        cols->want_edges = pos;
        if (pos > cols->edge_capacity)
            return REPRO_RESOLVE_GROW;
        for (e = first; e < stop; e++) {
            /* CompiledMethod's checks; NaN passes exactly where the
             * record's comparisons let it */
            const double sr = cols->self_rate[e];
            if (cols->code_size[e] <= 0.0 || cols->compile_cycles[e] < 0.0
                || cols->cycles_per_invocation[e] < 0.0
                || !(sr >= 0.0 && sr < 1.0))
                return REPRO_RESOLVE_INVALID;
        }
        cols->n_entries = stop;
        cols->n_edges = pos;
        progress[1] += stop - first;
        for (e = first; e < stop; e++) {
            const int64_t *lo = cols->lo + 5 * e, *hi = cols->hi + 5 * e;
            const int64_t mid = cols->method[e];
            int64_t covered = 0;
            row[mid] = e;
            for (h = g + 1; h < n_genomes; h++) {
                if (region_covers(lo, hi, values + 5 * h)) {
                    resolved[h * n_methods + mid] = e;
                    covered++;
                }
            }
            if (covered) {
                progress[2]++;
                progress[3] += covered;
            }
        }
    }
    progress[0] = n_genomes;
    return REPRO_RESOLVE_DONE;
}
