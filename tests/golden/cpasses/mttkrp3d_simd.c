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
    static const double _lut0[4] = {0.0, 1.0, 1.0, 0.3333333333333333};
    {
        int64_t rp_vb = 0, rp_r = 0, rp_w = (n_j + 15) / 16 * 16;
        double *rp_out = out, *rp_B = (double *) B;
        if (rp_w != n_j) {
            rp_out = (double *) calloc((size_t) (out_dims[0] * rp_w + 1), sizeof(double));
            rp_B = (double *) calloc((size_t) (B_dims[0] * rp_w + 1), sizeof(double));
            if (rp_out && rp_B) {
                for (rp_r = 0; rp_r < B_dims[0]; ++rp_r) { __builtin_memcpy(rp_B + rp_r * rp_w, B + rp_r * B_dims[1], (size_t) n_j * sizeof(double)); }
            } else {
                rp_status = 1;
            }
        }
        if (!rp_status) {
            if (rp_w == n_j) {
                rp_clear(rp_out, out_dims[0] * rp_w, 0.0);
            }
            for (rp_vb = 0; rp_vb < rp_w; rp_vb += 16) {
                for (l = 0; l < n_l; ++l) {
                    t1 = rp_B + (l) * rp_w;
                    double w0[16];
                    #pragma omp simd
                    for (_v = 0; _v < 16; ++_v) { w0[_v] = (2.0 * t1[rp_vb + _v]); }
                    double ws1[16];
                    #pragma omp simd
                    for (_v = 0; _v < 16; ++_v) { ws1[_v] = 0.0; }
                    for (q0_1 = A__strict_pos1[l]; q0_1 < A__strict_pos1[(l + 1)]; ++q0_1) {
                        k = A__strict_idx1[q0_1];
                        t2 = rp_B + (k) * rp_w;
                        double w1[16];
                        #pragma omp simd
                        for (_v = 0; _v < 16; ++_v) { w1[_v] = (w0[_v] * t2[rp_vb + _v]); }
                        double ws0[16];
                        #pragma omp simd
                        for (_v = 0; _v < 16; ++_v) { ws0[_v] = 0.0; }
                        for (q0_2 = A__strict_pos2[q0_1]; q0_2 < A__strict_pos2[(q0_1 + 1)]; ++q0_2) {
                            i = A__strict_idx2[q0_2];
                            t0 = A__strict_vals[q0_2];
                            t3 = rp_B + (i) * rp_w;
                            #pragma omp simd
                            for (_v = 0; _v < 16; ++_v) { rp_out[(i) * rp_w + rp_vb + _v] += (w1[_v] * t0); ws0[_v] += (t0 * t3[rp_vb + _v]); }
                        }
                        #pragma omp simd
                        for (_v = 0; _v < 16; ++_v) { rp_out[(k) * rp_w + rp_vb + _v] += (w0[_v] * ws0[_v]); ws1[_v] += (t2[rp_vb + _v] * ws0[_v]); }
                    }
                    #pragma omp simd
                    for (_v = 0; _v < 16; ++_v) { rp_out[(l) * rp_w + rp_vb + _v] += (2.0 * ws1[_v]); }
                }
            }
            for (rp_vb = 0; rp_vb < rp_w; rp_vb += 16) {
                for (l = 0; l < n_l; ++l) {
                    t5 = rp_B + (l) * rp_w;
                    double ws3[16];
                    #pragma omp simd
                    for (_v = 0; _v < 16; ++_v) { ws3[_v] = 0.0; }
                    for (q0_1 = A__diagonal_pos1[l]; q0_1 < A__diagonal_pos1[(l + 1)]; ++q0_1) {
                        k = A__diagonal_idx1[q0_1];
                        t6 = rp_B + (k) * rp_w;
                        double w2[16];
                        #pragma omp simd
                        for (_v = 0; _v < 16; ++_v) { w2[_v] = (t5[rp_vb + _v] * t6[rp_vb + _v]); }
                        double ws2[16];
                        #pragma omp simd
                        for (_v = 0; _v < 16; ++_v) { ws2[_v] = 0.0; }
                        for (q0_2 = A__diagonal_pos2[q0_1]; q0_2 < A__diagonal_pos2[(q0_1 + 1)]; ++q0_2) {
                            i = A__diagonal_idx2[q0_2];
                            t4 = A__diagonal_vals[q0_2];
                            t7 = rp_B + (i) * rp_w;
                            _code = ((i == k) | ((k == l) << 1));
                            _f = _lut0[_code];
                            #pragma omp simd
                            for (_v = 0; _v < 16; ++_v) { rp_out[(i) * rp_w + rp_vb + _v] += ((w2[_v] * _f) * t4); ws2[_v] += ((_f * t4) * t7[rp_vb + _v]); }
                        }
                        #pragma omp simd
                        for (_v = 0; _v < 16; ++_v) { rp_out[(k) * rp_w + rp_vb + _v] += (t5[rp_vb + _v] * ws2[_v]); ws3[_v] += (t6[rp_vb + _v] * ws2[_v]); }
                    }
                    #pragma omp simd
                    for (_v = 0; _v < 16; ++_v) { rp_out[(l) * rp_w + rp_vb + _v] += ws3[_v]; }
                }
            }
            if (rp_w != n_j) {
                for (rp_r = 0; rp_r < out_dims[0]; ++rp_r) { __builtin_memcpy(out + rp_r * out_dims[1], rp_out + rp_r * rp_w, (size_t) n_j * sizeof(double)); }
            }
        }
        if (rp_w != n_j) {
            free(rp_out);
            free(rp_B);
        }
    }
    return rp_status;
}
