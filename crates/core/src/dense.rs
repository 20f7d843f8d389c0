//! Dense-adjacency forward/backward passes — **ContinuousA only**.
//!
//! ContinuousA relaxes the whole adjacency to `Ã ∈ [0,1]^{n×n}` (paper
//! Sec. V-A2), so its state is genuinely dense and its products cannot be
//! expressed as common-neighbour merges. Everything dense is quarantined
//! here and routed through `ba_linalg::par_matmul` with a worker count
//! from [`crate::grad::resolve_threads`] (autodetected via
//! `std::thread::available_parallelism` when the caller passes 0). The
//! binary-graph attacks (`BinarizedAttack`, `GradMaxSearch`) never touch
//! this module — their gradient is assembled sparsely in [`crate::grad`].

use crate::grad::{resolve_threads, NodeGrads};
use ba_linalg::Matrix;

/// Dense pair gradient for a *fractional* symmetric adjacency matrix.
/// Returns an `n × n` symmetric matrix `G` whose `(i,j)` entry is the
/// derivative w.r.t. the unordered pair; the diagonal is 0.
///
/// Uses two thread-parallel dense products: `A²` and `A·diag(gE)·A`.
pub fn dense_pair_gradient(a: &Matrix, ng: &NodeGrads, threads: usize) -> Matrix {
    let threads = resolve_threads(threads);
    let a2 = ba_linalg::par_matmul(a, a, threads);
    pair_gradient_with_a2(a, &a2, ng, threads)
}

/// [`dense_pair_gradient`] given a precomputed `A²`, so a caller that
/// also needs [`dense_features`] at the same `A` pays for `A²` once.
pub(crate) fn pair_gradient_with_a2(
    a: &Matrix,
    a2: &Matrix,
    ng: &NodeGrads,
    threads: usize,
) -> Matrix {
    let n = a.rows();
    assert_eq!(n, a.cols(), "adjacency must be square");
    assert_eq!(n, ng.h.len(), "gradient size mismatch");
    // AW: scale columns of A by gE (W = diag(gE)); then (AW)·A.
    let mut aw = a.clone();
    for i in 0..n {
        let row = aw.row_mut(i);
        for (j, x) in row.iter_mut().enumerate() {
            *x *= ng.g_e[j];
        }
    }
    let awa = ba_linalg::par_matmul(&aw, a, threads);
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            g[(i, j)] = ng.h[i] + ng.h[j] + a2[(i, j)] * (ng.g_e[i] + ng.g_e[j]) + awa[(i, j)];
        }
    }
    g
}

/// Computes fractional egonet features `N = A·1`, `E = N + ½ diag(A³)`
/// from a dense symmetric adjacency. Returns `(n, e)`.
pub fn dense_features(a: &Matrix, threads: usize) -> (Vec<f64>, Vec<f64>) {
    let a2 = ba_linalg::par_matmul(a, a, resolve_threads(threads));
    features_with_a2(a, &a2)
}

/// [`dense_features`] given a precomputed `A²`.
pub(crate) fn features_with_a2(a: &Matrix, a2: &Matrix) -> (Vec<f64>, Vec<f64>) {
    let n = a.rows();
    let mut deg = vec![0.0; n];
    let mut e = vec![0.0; n];
    for i in 0..n {
        let row = a.row(i);
        deg[i] = row.iter().sum();
        // diag(A³)_i = Σ_m (A²)_im A_mi = row_i(A²)·row_i(A) for symmetric A.
        let a2row = a2.row(i);
        let t: f64 = a2row.iter().zip(row).map(|(x, y)| x * y).sum();
        e[i] = deg[i] + 0.5 * t;
    }
    (deg, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::{node_grads, pair_grad};
    use ba_graph::egonet::egonet_features;
    use ba_graph::generators;

    #[test]
    fn dense_features_match_sparse_on_binary_graph() {
        let g = generators::erdos_renyi(50, 0.1, 4);
        let feats = egonet_features(&g);
        let a = ba_linalg::Matrix::from_vec(50, 50, ba_graph::adjacency::to_row_major(&g));
        let (n_dense, e_dense) = dense_features(&a, 2);
        for k in 0..50 {
            assert!((feats.n[k] - n_dense[k]).abs() < 1e-9);
            assert!((feats.e[k] - e_dense[k]).abs() < 1e-9, "node {k}");
        }
    }

    #[test]
    fn dense_pair_gradient_matches_sparse_on_binary_graph() {
        let g = generators::erdos_renyi(40, 0.12, 5);
        let feats = egonet_features(&g);
        let ng = node_grads(&feats.n, &feats.e, &[0, 8]).unwrap();
        let a = ba_linalg::Matrix::from_vec(40, 40, ba_graph::adjacency::to_row_major(&g));
        let dense = dense_pair_gradient(&a, &ng, 2);
        for i in 0..40u32 {
            for j in (i + 1)..40u32 {
                let sparse = pair_grad(&g, &ng, i, j);
                let d = dense[(i as usize, j as usize)];
                assert!(
                    (sparse - d).abs() < 1e-9,
                    "pair ({i},{j}): sparse {sparse} vs dense {d}"
                );
            }
        }
    }

    #[test]
    fn autodetected_threads_match_serial() {
        let g = generators::erdos_renyi(64, 0.1, 6);
        let feats = egonet_features(&g);
        let ng = node_grads(&feats.n, &feats.e, &[1, 2]).unwrap();
        let a = ba_linalg::Matrix::from_vec(64, 64, ba_graph::adjacency::to_row_major(&g));
        let serial = dense_pair_gradient(&a, &ng, 1);
        let auto = dense_pair_gradient(&a, &ng, 0); // available_parallelism
        assert!((&serial - &auto).max_abs() == 0.0);
    }

    #[test]
    fn shared_a2_path_is_bit_identical_to_public_passes() {
        // A fractional adjacency, as ContinuousA's iterates are, large
        // enough (n ≥ 64) that `par_matmul` actually splits the rows.
        let g = generators::erdos_renyi(72, 0.15, 7);
        let mut a = ba_linalg::Matrix::from_vec(72, 72, ba_graph::adjacency::to_row_major(&g));
        for i in 0..72 {
            for j in (i + 1)..72 {
                let v = (a[(i, j)] * 0.7 + ((i * 31 + j * 17) % 10) as f64 * 0.03).min(1.0);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let (n_pub, e_pub) = dense_features(&a, 2);
        let ng = node_grads(&n_pub, &e_pub, &[3, 11]).unwrap();
        let g_pub = dense_pair_gradient(&a, &ng, 2);

        let a2 = ba_linalg::par_matmul(&a, &a, 2);
        let (n_shared, e_shared) = features_with_a2(&a, &a2);
        let g_shared = pair_gradient_with_a2(&a, &a2, &ng, 2);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&n_pub), bits(&n_shared));
        assert_eq!(bits(&e_pub), bits(&e_shared));
        for i in 0..72 {
            assert_eq!(bits(g_pub.row(i)), bits(g_shared.row(i)), "row {i}");
        }
    }
}
