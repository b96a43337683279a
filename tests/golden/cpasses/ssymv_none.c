/* generated by repro.codegen.backends.c [ssymv] */
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
               const rp_index *restrict A__diagonal_idx1,
               const rp_index *restrict A__diagonal_pos1,
               const double *restrict A__diagonal_vals,
               const rp_index *restrict A__strict_idx1,
               const rp_index *restrict A__strict_pos1,
               const double *restrict A__strict_vals,
               const double *restrict x,
               const int64_t *restrict x_dims,
               int64_t n_i,
               int64_t n_j,
               int64_t repro_nthreads)
{
    int64_t rp_status = 0;
    (void) repro_nthreads;
    (void) rp_status;
    int64_t i = 0, j = 0, q0_1 = 0;
    double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0, t4 = 0.0, ws0 = 0.0;
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
                int64_t i = 0, q0_1 = 0;
                double t0 = 0.0, t1 = 0.0, t2 = 0.0, ws0 = 0.0;
                #pragma omp for schedule(static)
                for (j = 0; j < n_j; ++j) {
                    t1 = x[j];
                    ws0 = 0.0;
                    for (q0_1 = A__strict_pos1[j]; q0_1 < A__strict_pos1[(j + 1)]; ++q0_1) {
                        i = A__strict_idx1[q0_1];
                        t0 = A__strict_vals[q0_1];
                        t2 = x[i];
                        { double *rp_slot = repro_log_slot(rp_my, i, 1);
                            if (!rp_slot) {
                                #pragma omp atomic write
                                rp_oom = 1;
                            } else { *rp_slot = (t0 * t1); } }
                        ws0 += (t0 * t2);
                    }
                    { double *rp_slot = repro_log_slot(rp_my, j, 1);
                        if (!rp_slot) {
                            #pragma omp atomic write
                            rp_oom = 1;
                        } else { *rp_slot = ws0; } }
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
        for (j = 0; j < n_j; ++j) {
            t1 = x[j];
            ws0 = 0.0;
            for (q0_1 = A__strict_pos1[j]; q0_1 < A__strict_pos1[(j + 1)]; ++q0_1) {
                i = A__strict_idx1[q0_1];
                t0 = A__strict_vals[q0_1];
                t2 = x[i];
                out[i] += (t0 * t1);
                ws0 += (t0 * t2);
            }
            out[j] += ws0;
        }
    }
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
                int64_t i = 0, q0_1 = 0;
                double t3 = 0.0, t4 = 0.0;
                #pragma omp for schedule(static)
                for (j = 0; j < n_j; ++j) {
                    t4 = x[j];
                    for (q0_1 = A__diagonal_pos1[j]; q0_1 < A__diagonal_pos1[(j + 1)]; ++q0_1) {
                        i = A__diagonal_idx1[q0_1];
                        t3 = A__diagonal_vals[q0_1];
                        { double *rp_slot = repro_log_slot(rp_my, i, 1);
                            if (!rp_slot) {
                                #pragma omp atomic write
                                rp_oom = 1;
                            } else { *rp_slot = (t3 * t4); } }
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
        for (j = 0; j < n_j; ++j) {
            t4 = x[j];
            for (q0_1 = A__diagonal_pos1[j]; q0_1 < A__diagonal_pos1[(j + 1)]; ++q0_1) {
                i = A__diagonal_idx1[q0_1];
                t3 = A__diagonal_vals[q0_1];
                out[i] += (t3 * t4);
            }
        }
    }
    return rp_status;
}
