/* generated by repro.codegen.backends.c [mttkrp3d] */
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
               const rp_index *restrict A__diagonal_idx2,
               const rp_index *restrict A__diagonal_pos1,
               const rp_index *restrict A__diagonal_pos2,
               const double *restrict A__diagonal_vals,
               const rp_index *restrict A__strict_idx1,
               const rp_index *restrict A__strict_idx2,
               const rp_index *restrict A__strict_pos1,
               const rp_index *restrict A__strict_pos2,
               const double *restrict A__strict_vals,
               const double *restrict B,
               const int64_t *restrict B_dims,
               int64_t n_i,
               int64_t n_j,
               int64_t n_k,
               int64_t n_l,
               int64_t repro_nthreads)
{
    int64_t rp_status = 0;
    (void) repro_nthreads;
    (void) rp_status;
    int64_t _code = 0, i = 0, k = 0, l = 0, q0_1 = 0, q0_2 = 0, _v = 0;
    double _f = 0.0, t0 = 0.0, t4 = 0.0;
    const double *t1 = 0, *t2 = 0, *t3 = 0, *t5 = 0, *t6 = 0, *t7 = 0;
    double *w0 = (double *) malloc((size_t)(n_j) * sizeof(double));
    double *w1 = (double *) malloc((size_t)(n_j) * sizeof(double));
    double *ws0 = (double *) malloc((size_t)(n_j) * sizeof(double));
    double *ws1 = (double *) malloc((size_t)(n_j) * sizeof(double));
    double *w2 = (double *) malloc((size_t)(n_j) * sizeof(double));
    double *ws2 = (double *) malloc((size_t)(n_j) * sizeof(double));
    double *ws3 = (double *) malloc((size_t)(n_j) * sizeof(double));
    if (!w0 || !w1 || !ws0 || !ws1 || !w2 || !ws2 || !ws3) {
        free(w0);
        free(w1);
        free(ws0);
        free(ws1);
        free(w2);
        free(ws2);
        free(ws3);
        return 1;
    }
    static const double _lut0[4] = {0.0, 1.0, 1.0, 0.3333333333333333};
    rp_clear(out, out_dims[0] * out_dims[1], 0.0);
    for (l = 0; l < n_l; ++l) {
        t1 = B + (l) * B_dims[1];
        for (_v = 0; _v < n_j; ++_v) { w0[_v] = (2.0 * t1[_v]); }
        for (_v = 0; _v < n_j; ++_v) { ws1[_v] = 0.0; }
        for (q0_1 = A__strict_pos1[l]; q0_1 < A__strict_pos1[(l + 1)]; ++q0_1) {
            k = A__strict_idx1[q0_1];
            t2 = B + (k) * B_dims[1];
            for (_v = 0; _v < n_j; ++_v) { w1[_v] = (w0[_v] * t2[_v]); }
            for (_v = 0; _v < n_j; ++_v) { ws0[_v] = 0.0; }
            for (q0_2 = A__strict_pos2[q0_1]; q0_2 < A__strict_pos2[(q0_1 + 1)]; ++q0_2) {
                i = A__strict_idx2[q0_2];
                t0 = A__strict_vals[q0_2];
                t3 = B + (i) * B_dims[1];
                for (_v = 0; _v < n_j; ++_v) { out[(i) * out_dims[1] + _v] += (w1[_v] * t0); }
                for (_v = 0; _v < n_j; ++_v) { ws0[_v] += (t0 * t3[_v]); }
            }
            for (_v = 0; _v < n_j; ++_v) { out[(k) * out_dims[1] + _v] += (w0[_v] * ws0[_v]); }
            for (_v = 0; _v < n_j; ++_v) { ws1[_v] += (t2[_v] * ws0[_v]); }
        }
        for (_v = 0; _v < n_j; ++_v) { out[(l) * out_dims[1] + _v] += (2.0 * ws1[_v]); }
    }
    for (l = 0; l < n_l; ++l) {
        t5 = B + (l) * B_dims[1];
        for (_v = 0; _v < n_j; ++_v) { ws3[_v] = 0.0; }
        for (q0_1 = A__diagonal_pos1[l]; q0_1 < A__diagonal_pos1[(l + 1)]; ++q0_1) {
            k = A__diagonal_idx1[q0_1];
            t6 = B + (k) * B_dims[1];
            for (_v = 0; _v < n_j; ++_v) { w2[_v] = (t5[_v] * t6[_v]); }
            for (_v = 0; _v < n_j; ++_v) { ws2[_v] = 0.0; }
            for (q0_2 = A__diagonal_pos2[q0_1]; q0_2 < A__diagonal_pos2[(q0_1 + 1)]; ++q0_2) {
                i = A__diagonal_idx2[q0_2];
                t4 = A__diagonal_vals[q0_2];
                t7 = B + (i) * B_dims[1];
                _code = ((i == k) | ((k == l) << 1));
                _f = _lut0[_code];
                for (_v = 0; _v < n_j; ++_v) { out[(i) * out_dims[1] + _v] += ((w2[_v] * _f) * t4); }
                for (_v = 0; _v < n_j; ++_v) { ws2[_v] += ((_f * t4) * t7[_v]); }
            }
            for (_v = 0; _v < n_j; ++_v) { out[(k) * out_dims[1] + _v] += (t5[_v] * ws2[_v]); }
            for (_v = 0; _v < n_j; ++_v) { ws3[_v] += (t6[_v] * ws2[_v]); }
        }
        for (_v = 0; _v < n_j; ++_v) { out[(l) * out_dims[1] + _v] += ws3[_v]; }
    }
    free(w0);
    free(w1);
    free(ws0);
    free(ws1);
    free(w2);
    free(ws2);
    free(ws3);
    return rp_status;
}
