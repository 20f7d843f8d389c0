//! Fixed-seed golden equivalence tests.
//!
//! The op sequences and surrogate losses below were captured from the
//! pre-CSR (BTreeSet-adjacency, correction-map gradient) implementation.
//! The CSR substrate + sparse parallel gradient assembly must reproduce
//! them *byte-identically*: every arithmetic kernel (common-neighbour
//! sums, incremental feature patches, gradient accumulation) was
//! rewritten to accumulate in the same order precisely so that the
//! refactor is observationally invisible. If one of these asserts fires,
//! the engine's numerics changed — not just its performance.

// The golden losses are written with every digit the capture printed;
// f64 round-trips at 17 significant digits, so keep them verbatim.
#![allow(clippy::excessive_precision)]

use ba_core::{AttackConfig, BinarizedAttack, ContinuousA, GradMaxSearch, StructuralAttack};
use ba_graph::{generators, EdgeOp, Graph, NodeId};
use ba_oddball::OddBall;

fn anomalous_graph(seed: u64) -> (Graph, Vec<NodeId>) {
    let mut g = generators::erdos_renyi(150, 0.04, seed);
    generators::attach_isolated(&mut g, seed + 1);
    let members: Vec<NodeId> = (0..10).collect();
    generators::plant_near_clique(&mut g, &members, 1.0, seed + 2);
    let model = OddBall::default().fit(&g).unwrap();
    let targets: Vec<NodeId> = model.top_k(3).into_iter().map(|(i, _)| i).collect();
    (g, targets)
}

fn ops(spec: &[(NodeId, NodeId)]) -> Vec<EdgeOp> {
    // All golden ops happen to be deletions on this instance.
    spec.iter()
        .map(|&(u, v)| EdgeOp::new(u, v, false))
        .collect()
}

#[test]
fn gradmax_fixed_seed_ops_and_losses_are_golden() {
    let (g, targets) = anomalous_graph(2022);
    assert_eq!(targets, vec![6, 2, 3]);
    let outcome = GradMaxSearch::new(AttackConfig::default())
        .attack(&g, &targets, 12)
        .unwrap();
    let expected = ops(&[
        (2, 6),
        (3, 6),
        (2, 3),
        (4, 6),
        (2, 8),
        (0, 3),
        (6, 9),
        (3, 7),
        (1, 2),
        (6, 7),
        (3, 5),
        (0, 2),
    ]);
    assert_eq!(outcome.ops(12), &expected[..]);
    let expected_losses: [f64; 12] = [
        1.94351319992155095e3,
        1.39928187909451958e3,
        9.60097467409064052e2,
        7.56924208061549507e2,
        6.00192381974462705e2,
        4.68816369636065360e2,
        3.46874685571569785e2,
        2.73973177622735363e2,
        1.98602311514925447e2,
        1.34943440885183747e2,
        9.91054822311116226e1,
        6.19915075353154066e1,
    ];
    assert_eq!(outcome.surrogate_loss_per_budget.len(), 12);
    for (b, (&got, &want)) in outcome
        .surrogate_loss_per_budget
        .iter()
        .zip(&expected_losses)
        .enumerate()
    {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "budget {}: loss {got:e} != golden {want:e}",
            b + 1
        );
    }
}

#[test]
fn binarized_fixed_seed_ops_and_losses_are_golden() {
    let (g, targets) = anomalous_graph(2022);
    let outcome = BinarizedAttack::default()
        .with_iterations(60)
        .with_lambdas(vec![0.01, 0.05])
        .attack(&g, &targets, 10)
        .unwrap();
    let expected: [&[(NodeId, NodeId)]; 10] = [
        &[(2, 6)],
        &[(2, 6), (3, 6)],
        &[(2, 6), (3, 6), (2, 3)],
        &[(2, 6), (3, 6), (2, 3), (4, 6)],
        &[(2, 6), (3, 6), (2, 3), (4, 6), (1, 6)],
        &[(2, 3), (2, 6), (3, 6), (4, 6), (1, 6), (6, 9)],
        &[(2, 6), (3, 6), (2, 3), (4, 6), (1, 6), (6, 7), (6, 9)],
        &[
            (2, 6),
            (3, 6),
            (2, 3),
            (4, 6),
            (1, 6),
            (6, 9),
            (6, 7),
            (2, 8),
        ],
        &[
            (2, 3),
            (2, 6),
            (3, 6),
            (4, 6),
            (1, 6),
            (6, 9),
            (6, 7),
            (2, 8),
            (0, 3),
        ],
        &[
            (2, 3),
            (2, 6),
            (3, 6),
            (4, 6),
            (1, 6),
            (6, 9),
            (6, 7),
            (2, 8),
            (0, 3),
            (3, 4),
        ],
    ];
    for (b, spec) in expected.iter().enumerate() {
        assert_eq!(
            outcome.ops_per_budget[b],
            ops(spec),
            "budget {} diverged from golden",
            b + 1
        );
    }
    let expected_losses: [f64; 10] = [
        1.94351319992155095e3,
        1.39928187909451958e3,
        9.60097467409064052e2,
        7.56924208061549507e2,
        6.43000958277717132e2,
        5.89541234906866748e2,
        5.73927619383414822e2,
        4.07330695377552615e2,
        2.67205733728981158e2,
        1.90843439904175284e2,
    ];
    for (b, (&got, &want)) in outcome
        .surrogate_loss_per_budget
        .iter()
        .zip(&expected_losses)
        .enumerate()
    {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "budget {}: loss {got:e} != golden {want:e}",
            b + 1
        );
    }
}

#[test]
fn continuous_fixed_seed_ops_and_losses_are_golden() {
    let (g, targets) = anomalous_graph(2022);
    let outcome = ContinuousA::new(AttackConfig::default())
        .with_iterations(40)
        .with_threads(2)
        .attack(&g, &targets, 10)
        .unwrap();
    // ContinuousA has no carry-forward: budget b is the top-b prefix of
    // one greedy walk over |Ã − A₀|.
    let walk = ops(&[
        (2, 3),
        (2, 6),
        (3, 6),
        (4, 6),
        (6, 9),
        (6, 7),
        (1, 6),
        (2, 8),
        (0, 2),
        (2, 7),
    ]);
    for b in 1..=10 {
        assert_eq!(
            outcome.ops_per_budget[b - 1],
            walk[..b],
            "budget {b} diverged from golden"
        );
    }
    let expected_losses: [f64; 10] = [
        2.00746512683437095e3,
        1.45035209910368985e3,
        9.60097467409064052e2,
        7.56924208061549507e2,
        6.42996008084406185e2,
        5.89695385974130659e2,
        5.73927619383414822e2,
        4.07330695377552615e2,
        3.34392697178796311e2,
        3.02143154775619621e2,
    ];
    for (b, (&got, &want)) in outcome
        .surrogate_loss_per_budget
        .iter()
        .zip(&expected_losses)
        .enumerate()
    {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "budget {}: loss {got:e} != golden {want:e}",
            b + 1
        );
    }
    // The relaxed trajectory pins the dense forward pass too.
    assert_eq!(outcome.loss_trajectory.len(), 40);
    let last = outcome.loss_trajectory[39];
    assert_eq!(
        last.to_bits(),
        6.60691046946790017e0_f64.to_bits(),
        "final relaxed loss {last:e} != golden"
    );
}
