/* generated by repro.codegen.backends.c [bellmanford] */
#include <stdint.h>
#include <stddef.h>
void *malloc(size_t);
void *calloc(size_t, size_t);
void free(void *);

#ifndef RP_INDEX
#define RP_INDEX int32_t
#endif
typedef RP_INDEX rp_index;
int64_t repro_index_bytes(void) { return (int64_t) sizeof(rp_index); }

static __attribute__((noinline)) void rp_clear(volatile double *rp_p, int64_t rp_n, double rp_v)
{
    int64_t rp_k;
    for (rp_k = 0; rp_k < rp_n; ++rp_k) { rp_p[rp_k] = rp_v; }
}

static inline double rp_fmin(double a, double b) { return b < a ? b : a; }

#if defined(_OPENMP)
#include <omp.h>
/* marks the OpenMP object: absent from the serial build */
int64_t repro_openmp(void) { return 1; }
#endif

/* returns 0 on success, 1 when a runtime allocation failed
   (a workspace, a padded row copy or a per-thread buffer) */
int64_t kernel(double *restrict out,
               const int64_t *restrict out_dims,
               const rp_index *restrict A__diagonal_idx1,
               const rp_index *restrict A__diagonal_pos1,
               const double *restrict A__diagonal_vals,
               const rp_index *restrict A__strict_idx1,
               const rp_index *restrict A__strict_pos1,
               const double *restrict A__strict_vals,
               const double *restrict d,
               const int64_t *restrict d_dims,
               int64_t n_i,
               int64_t n_j,
               int64_t repro_nthreads)
{
    int64_t rp_status = 0;
    (void) repro_nthreads;
    (void) rp_status;
    int64_t i = 0, j = 0, q0_1 = 0;
    double t0 = 0.0, t1 = 0.0, t2 = 0.0, t3 = 0.0, t4 = 0.0, ws0 = 0.0;
    rp_clear(out, out_dims[0], __builtin_inff());
    #if defined(_OPENMP)
    if (repro_nthreads > 1) {
        int64_t rp_oom = 0;
        double *pv_all = NULL;
        int64_t pv_team = 1;
        #pragma omp parallel num_threads((int) repro_nthreads)
        {
            int64_t pv_total = out_dims[0];
            int64_t pv_k = 0, pv_s = 0, pv_b = 0;
            #pragma omp single
            {
                pv_team = omp_get_num_threads();
                pv_all = (double *) malloc((size_t) (pv_total * pv_team) * sizeof(double));
            }
            if (pv_all) {
                double *pv_out = pv_all + (int64_t) omp_get_thread_num() * pv_total;
                int64_t i = 0, q0_1 = 0;
                double t0 = 0.0, t1 = 0.0, t2 = 0.0, ws0 = 0.0;
                for (pv_k = 0; pv_k < pv_total; ++pv_k) { pv_out[pv_k] = __builtin_inff(); }
                #pragma omp for schedule(static)
                for (j = 0; j < n_j; ++j) {
                    t1 = d[j];
                    ws0 = __builtin_inff();
                    for (q0_1 = A__strict_pos1[j]; q0_1 < A__strict_pos1[(j + 1)]; ++q0_1) {
                        i = A__strict_idx1[q0_1];
                        t0 = A__strict_vals[q0_1];
                        t2 = d[i];
                        pv_out[i] = rp_fmin(pv_out[i], (t0 + t1));
                        ws0 = rp_fmin(ws0, (t0 + t2));
                    }
                    pv_out[j] = rp_fmin(pv_out[j], ws0);
                }
                for (pv_s = 1; pv_s < pv_team; pv_s *= 2) {
                    #pragma omp for schedule(static)
                    for (pv_k = 0; pv_k < pv_total; ++pv_k) {
                        for (pv_b = 0; pv_b + pv_s < pv_team; pv_b += 2 * pv_s) {
                            pv_all[pv_b * pv_total + pv_k] = rp_fmin(pv_all[pv_b * pv_total + pv_k], pv_all[(pv_b + pv_s) * pv_total + pv_k]);
                        }
                    }
                }
                #pragma omp for schedule(static)
                for (pv_k = 0; pv_k < pv_total; ++pv_k) { out[pv_k] = rp_fmin(out[pv_k], pv_all[pv_k]); }
            }
        }
        if (!pv_all || rp_oom) { rp_status = 1; }
        free(pv_all);
    } else
    #endif
    {
        for (j = 0; j < n_j; ++j) {
            t1 = d[j];
            ws0 = __builtin_inff();
            for (q0_1 = A__strict_pos1[j]; q0_1 < A__strict_pos1[(j + 1)]; ++q0_1) {
                i = A__strict_idx1[q0_1];
                t0 = A__strict_vals[q0_1];
                t2 = d[i];
                out[i] = rp_fmin(out[i], (t0 + t1));
                ws0 = rp_fmin(ws0, (t0 + t2));
            }
            out[j] = rp_fmin(out[j], ws0);
        }
    }
    #if defined(_OPENMP)
    if (repro_nthreads > 1) {
        int64_t rp_oom = 0;
        double *pv_all = NULL;
        int64_t pv_team = 1;
        #pragma omp parallel num_threads((int) repro_nthreads)
        {
            int64_t pv_total = out_dims[0];
            int64_t pv_k = 0, pv_s = 0, pv_b = 0;
            #pragma omp single
            {
                pv_team = omp_get_num_threads();
                pv_all = (double *) malloc((size_t) (pv_total * pv_team) * sizeof(double));
            }
            if (pv_all) {
                double *pv_out = pv_all + (int64_t) omp_get_thread_num() * pv_total;
                int64_t i = 0, q0_1 = 0;
                double t3 = 0.0, t4 = 0.0;
                for (pv_k = 0; pv_k < pv_total; ++pv_k) { pv_out[pv_k] = __builtin_inff(); }
                #pragma omp for schedule(static)
                for (j = 0; j < n_j; ++j) {
                    t4 = d[j];
                    for (q0_1 = A__diagonal_pos1[j]; q0_1 < A__diagonal_pos1[(j + 1)]; ++q0_1) {
                        i = A__diagonal_idx1[q0_1];
                        t3 = A__diagonal_vals[q0_1];
                        pv_out[i] = rp_fmin(pv_out[i], (t3 + t4));
                    }
                }
                for (pv_s = 1; pv_s < pv_team; pv_s *= 2) {
                    #pragma omp for schedule(static)
                    for (pv_k = 0; pv_k < pv_total; ++pv_k) {
                        for (pv_b = 0; pv_b + pv_s < pv_team; pv_b += 2 * pv_s) {
                            pv_all[pv_b * pv_total + pv_k] = rp_fmin(pv_all[pv_b * pv_total + pv_k], pv_all[(pv_b + pv_s) * pv_total + pv_k]);
                        }
                    }
                }
                #pragma omp for schedule(static)
                for (pv_k = 0; pv_k < pv_total; ++pv_k) { out[pv_k] = rp_fmin(out[pv_k], pv_all[pv_k]); }
            }
        }
        if (!pv_all || rp_oom) { rp_status = 1; }
        free(pv_all);
    } else
    #endif
    {
        for (j = 0; j < n_j; ++j) {
            t4 = d[j];
            for (q0_1 = A__diagonal_pos1[j]; q0_1 < A__diagonal_pos1[(j + 1)]; ++q0_1) {
                i = A__diagonal_idx1[q0_1];
                t3 = A__diagonal_vals[q0_1];
                out[i] = rp_fmin(out[i], (t3 + t4));
            }
        }
    }
    return rp_status;
}
