/* generated by repro.codegen.backends.c [ssyrk] */
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#ifndef RP_INDEX
#define RP_INDEX int32_t
#endif
typedef RP_INDEX rp_index;
int64_t repro_index_bytes(void) { return (int64_t) sizeof(rp_index); }

#if defined(_OPENMP)
#include <omp.h>
/* marks the OpenMP object: absent from the serial build */
int64_t repro_openmp(void) { return 1; }
#include <stdatomic.h>

typedef struct {
    int64_t *tgt;
    double *val;
    int64_t len;
    int64_t cap;   /* tgt capacity, entries */
    int64_t vcap;  /* val capacity, elements */
} repro_log;

/* NULL on allocation failure: whichever realloc
   succeeded is stored back (the old pointer is dead
   after a successful realloc) but the capacities only
   advance when both do, so release still frees
   consistently and the caller reports the failure. */
static double *repro_log_slot(repro_log *lg, int64_t tgt, int64_t width) {
    if (lg->len == lg->cap || (lg->len + 1) * width > lg->vcap) {
        int64_t cap = lg->cap ? 2 * lg->cap : 1024;
        int64_t vcap = cap * width;
        if (vcap < lg->vcap) { vcap = lg->vcap; }
        int64_t *t = (int64_t *) realloc(lg->tgt, (size_t) cap * sizeof(int64_t));
        double *v = (double *) realloc(lg->val, (size_t) vcap * sizeof(double));
        if (t) { lg->tgt = t; }
        if (v) { lg->val = v; }
        if (!t || !v) { return 0; }
        lg->cap = cap;
        lg->vcap = vcap;
    }
    lg->tgt[lg->len] = tgt;
    return lg->val + lg->len++ * width;
}

static repro_log *rp_pool = 0;
static int64_t rp_pool_cap = 0;
static atomic_flag rp_pool_busy = ATOMIC_FLAG_INIT;

static repro_log *repro_log_acquire(int64_t nthreads, int *rp_pooled) {
    if (!atomic_flag_test_and_set(&rp_pool_busy)) {
        if (rp_pool_cap < nthreads) {
            repro_log *grown = (repro_log *) realloc(rp_pool, (size_t) nthreads * sizeof(repro_log));
            if (grown) {
                int64_t rp_i;
                for (rp_i = rp_pool_cap; rp_i < nthreads; ++rp_i) {
                    grown[rp_i].tgt = 0; grown[rp_i].val = 0;
                    grown[rp_i].len = 0; grown[rp_i].cap = 0; grown[rp_i].vcap = 0;
                }
                rp_pool = grown;
                rp_pool_cap = nthreads;
            }
        }
        if (rp_pool_cap >= nthreads) {
            int64_t rp_i;
            for (rp_i = 0; rp_i < nthreads; ++rp_i) { rp_pool[rp_i].len = 0; }
            *rp_pooled = 1;
            return rp_pool;
        }
        atomic_flag_clear(&rp_pool_busy);
    }
    {
        /* NULL on failure; the caller reports status 1 */
        repro_log *rp_logs = (repro_log *) calloc((size_t) nthreads, sizeof(repro_log));
        *rp_pooled = 0;
        return rp_logs;
    }
}

static void repro_log_release(repro_log *rp_logs, int64_t nthreads, int rp_pooled) {
    if (rp_pooled) {
        atomic_flag_clear(&rp_pool_busy);
        return;
    }
    {
        int64_t rp_i;
        for (rp_i = 0; rp_i < nthreads; ++rp_i) {
            free(rp_logs[rp_i].tgt);
            free(rp_logs[rp_i].val);
        }
        free(rp_logs);
    }
}
#endif

/* returns 0 on success, 1 when a runtime allocation failed
   (per-thread workspace or the ordered scatter log) */
int64_t kernel(double *restrict out,
               const int64_t *restrict out_dims,
               const rp_index *restrict A__full_p10_idx1,
               const rp_index *restrict A__full_p10_pos1,
               const double *restrict A__full_p10_vals,
               int64_t n_i,
               int64_t n_j,
               int64_t n_k,
               int64_t repro_nthreads)
{
    int64_t rp_status = 0;
    (void) repro_nthreads;
    (void) rp_status;
    int64_t i = 0, j = 0, k = 0, q0_1 = 0, q1_1 = 0;
    double t0 = 0.0, t1 = 0.0;
    #if defined(_OPENMP)
    if (repro_nthreads > 1) {
        int64_t rp_oom = 0;
        int rp_pooled = 0;
        repro_log *rp_logs = repro_log_acquire(repro_nthreads, &rp_pooled);
        if (!rp_logs) {
            rp_status = 1;
        } else {
            #pragma omp parallel num_threads((int) repro_nthreads)
            {
                repro_log *rp_my = &rp_logs[omp_get_thread_num()];
                int64_t i = 0, j = 0, q0_1 = 0, q1_1 = 0;
                double t0 = 0.0, t1 = 0.0;
                #pragma omp for schedule(static)
                for (k = 0; k < n_k; ++k) {
                    for (q0_1 = A__full_p10_pos1[k]; q0_1 < A__full_p10_pos1[(k + 1)]; ++q0_1) {
                        j = A__full_p10_idx1[q0_1];
                        t0 = A__full_p10_vals[q0_1];
                        for (q1_1 = A__full_p10_pos1[k]; q1_1 < (q0_1 + 1); ++q1_1) {
                            i = A__full_p10_idx1[q1_1];
                            t1 = A__full_p10_vals[q1_1];
                            { double *rp_slot = repro_log_slot(rp_my, (j) * out_dims[1] + i, 1);
                                if (!rp_slot) {
                                    #pragma omp atomic write
                                    rp_oom = 1;
                                } else { *rp_slot = (t0 * t1); } }
                        }
                    }
                }
            }
            if (rp_oom) {
                rp_status = 1;
            } else {
                int64_t rp_t = 0, rp_e = 0, rp_w = 0;
                (void) rp_w;
                for (rp_t = 0; rp_t < repro_nthreads; ++rp_t) {
                    repro_log *rp_lg = &rp_logs[rp_t];
                    for (rp_e = 0; rp_e < rp_lg->len; ++rp_e) {
                        int64_t rp_g = rp_lg->tgt[rp_e];
                        double rp_val = rp_lg->val[rp_e];
                        out[rp_g] += rp_val;
                    }
                }
            }
            repro_log_release(rp_logs, repro_nthreads, rp_pooled);
        }
    } else
    #endif
    {
        {
            int64_t rp_tile = 1048576 / ((out_dims[1] > 0 ? out_dims[1] : 1) * (int64_t) sizeof(double));
            if (rp_tile < 8) { rp_tile = 8; }
            int64_t rp_nb = (out_dims[0] + rp_tile - 1) / rp_tile;
            int64_t rp_cap = (n_k) > 0 ? A__full_p10_pos1[n_k] / (4 * (n_k)) : 0;
            if (rp_nb > rp_cap) { rp_nb = rp_cap; }
            if (rp_nb < 1) { rp_nb = 1; }
            rp_tile = (out_dims[0] + rp_nb - 1) / rp_nb;
            if (rp_tile < 1) { rp_tile = 1; }
            int64_t rp_tb, rp_thi;
            for (rp_tb = 0; rp_tb < out_dims[0]; rp_tb += rp_tile) {
                rp_thi = rp_tb + rp_tile;
                for (k = 0; k < n_k; ++k) {
                    for (q0_1 = A__full_p10_pos1[k]; q0_1 < A__full_p10_pos1[(k + 1)]; ++q0_1) {
                        j = A__full_p10_idx1[q0_1];
                        if (j >= rp_thi) { break; }
                        if (j < rp_tb) { continue; }
                        t0 = A__full_p10_vals[q0_1];
                        for (q1_1 = A__full_p10_pos1[k]; q1_1 < (q0_1 + 1); ++q1_1) {
                            i = A__full_p10_idx1[q1_1];
                            t1 = A__full_p10_vals[q1_1];
                            out[(j) * out_dims[1] + i] += (t0 * t1);
                        }
                    }
                }
            }
        }
    }
    return rp_status;
}
