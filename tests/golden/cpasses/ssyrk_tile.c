/* generated by repro.codegen.backends.c [ssyrk] */
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
            for (i = rp_tb; i < rp_thi && i < n_i; ++i) {
                rp_clear(out + (i) * out_dims[1], (i + 1), 0.0);
            }
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
    return rp_status;
}

void finish(const double *out, const int64_t *restrict out_dims, volatile double *res)
{
    int64_t a0, a1;
    for (a0 = 0; a0 < out_dims[0]; ++a0) {
        for (a1 = a0; a1 < out_dims[1]; ++a1) {
            res[(a0) * out_dims[1] + a1] = res[(a1) * out_dims[0] + a0];
        }
    }
}
