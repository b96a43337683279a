/* generated by repro.codegen.backends.c [ssymv] */
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
    rp_clear(out, out_dims[0], 0.0);
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
    for (j = 0; j < n_j; ++j) {
        t4 = x[j];
        for (q0_1 = A__diagonal_pos1[j]; q0_1 < A__diagonal_pos1[(j + 1)]; ++q0_1) {
            i = A__diagonal_idx1[q0_1];
            t3 = A__diagonal_vals[q0_1];
            out[i] += (t3 * t4);
        }
    }
    return rp_status;
}
