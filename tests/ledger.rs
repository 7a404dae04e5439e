//! The ledger on consensus, end to end: conservation and rejection
//! invariants under arbitrary traffic (proptests), byte-identical state
//! roots across independently-executing replicas in every runtime (sim
//! n=4, sharded sim k=2, TCP cluster), and forged divergence surfacing as
//! a typed `StateRootMismatch` naming the offending block.

use proptest::prelude::*;
use tetrabft_suite::prelude::*;

/// Canonical bytes of one transfer.
fn pay(from: u64, to: u64, amount: u64, nonce: u64) -> Vec<u8> {
    Transfer { from: AccountId(from), to: AccountId(to), amount, nonce }.canonical_bytes()
}

fn fin(slot: u64, txs: Vec<Vec<u8>>) -> Finalized {
    let block = Block::new(Slot(slot), GENESIS_HASH, txs);
    Finalized { slot: Slot(slot), hash: block.hash(), block }
}

// ---- property tests -----------------------------------------------------

/// An arbitrary transfer intent over a small account universe: whether it
/// is valid depends on the ledger state when it executes.
fn intent_strategy() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    // (from 1..=5, to 1..=5, amount 0..=400, nonce_skew 0..=2). Self-pays,
    // zero amounts, overdrafts, and nonce gaps all occur naturally.
    (1u64..=5, 1u64..=5, 0u64..=400, 0u64..=2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Total balance is conserved under arbitrary traffic — applied
    /// transfers move funds, rejected ones change nothing — and two
    /// replicas executing the same stream agree on every root.
    #[test]
    fn conservation_and_replica_agreement(
        intents in proptest::collection::vec(intent_strategy(), 0..120),
        per_block in 1usize..8,
    ) {
        let genesis: Vec<(AccountId, u64)> =
            (1..=5).map(|id| (AccountId(id), 200)).collect();
        let supply: u128 = 5 * 200;
        let mut a = LedgerReplica::new(genesis.clone());
        let mut b = LedgerReplica::new(genesis);
        // Track each account's expected nonce so *some* transfers are
        // valid; the skew re-introduces replays (skew 0 twice) and gaps.
        let mut nonces = [0u64; 6];
        for (slot, chunk) in intents.chunks(per_block).enumerate() {
            let txs: Vec<Vec<u8>> = chunk
                .iter()
                .map(|&(from, to, amount, skew)| {
                    let nonce = nonces[from as usize].saturating_sub(1).saturating_add(skew);
                    let bytes = pay(from, to, amount, nonce);
                    // Mirror the ledger's own validity rule to advance the
                    // model nonce only when the transfer will apply.
                    if from != to && amount > 0 && nonce == nonces[from as usize] {
                        nonces[from as usize] += 1; // may still overdraft; harmless over-advance is
                                                    // corrected below by re-reading the ledger
                    }
                    bytes
                })
                .collect();
            let block = fin(slot as u64 + 1, txs);
            a.push(0, &block);
            b.push(0, &block);
            // Re-sync the model nonces from the authoritative ledger (the
            // model cannot see overdrafts without duplicating the ledger).
            for id in 1..=5u64 {
                nonces[id as usize] = a.ledger().account(AccountId(id)).nonce;
            }
            prop_assert_eq!(
                a.ledger().accounts().total_balance(),
                supply,
                "conservation violated at slot {}",
                slot + 1
            );
        }
        prop_assert_eq!(a.root(), b.root());
        prop_assert!(a.cross_check(&b).is_ok());
    }

    /// Valid transfer sequences all apply: nonces advance contiguously and
    /// funds arrive exactly once.
    #[test]
    fn valid_sequences_apply_fully(amounts in proptest::collection::vec(1u64..=10, 1..40)) {
        let mut replica = LedgerReplica::new([(AccountId(1), 1_000)]);
        let txs: Vec<Vec<u8>> =
            amounts.iter().enumerate().map(|(i, amt)| pay(1, 2, *amt, i as u64)).collect();
        replica.push(0, &fin(1, txs));
        let receipt = &replica.receipts()[0];
        prop_assert_eq!(receipt.applied, amounts.len());
        prop_assert!(receipt.rejected.is_empty());
        let moved: u64 = amounts.iter().sum();
        prop_assert_eq!(replica.ledger().account(AccountId(2)).balance, moved);
        prop_assert_eq!(replica.ledger().account(AccountId(1)).nonce, amounts.len() as u64);
    }

    /// A replayed transfer and an overdraft both reject deterministically
    /// and leave the state root exactly where a clean execution put it.
    #[test]
    fn replay_and_overdraft_never_move_the_root(amount in 1u64..=100) {
        let run = |inject_invalid: bool| {
            let mut replica = LedgerReplica::new([(AccountId(1), 100)]);
            let valid = pay(1, 2, amount, 0);
            replica.push(0, &fin(1, vec![valid.clone()]));
            let mut txs = Vec::new();
            if inject_invalid {
                txs.push(valid.clone()); // replay: nonce 0 again
                txs.push(pay(1, 2, 10_000, 1)); // overdraft
            }
            replica.push(0, &fin(2, txs));
            replica
        };
        let (clean, dirty) = (run(false), run(true));
        let receipt = &dirty.receipts()[1];
        prop_assert_eq!(receipt.applied, 0);
        prop_assert_eq!(receipt.rejected.len(), 2);
        prop_assert!(matches!(receipt.rejected[0].1, tetrabft_suite::ledger::ExecError::BadNonce { expected: 1, got: 0 }));
        prop_assert!(matches!(receipt.rejected[1].1, tetrabft_suite::ledger::ExecError::Overdraft { .. }));
        // Same accounts ⇒ same account digest; the chained roots agree
        // because both executed the same two slots over the same state.
        prop_assert_eq!(clean.root(), dirty.root());
    }
}

// ---- typed submission & admission through the node ----------------------

#[test]
fn admission_hook_refuses_static_failures_at_the_door() {
    let cfg = Config::new(4).unwrap();
    let mut node =
        MultiShotNode::new(cfg, Params::new(100), NodeId(0)).with_admission(transfer_admission);
    let ok = Transfer { from: AccountId(1), to: AccountId(2), amount: 5, nonce: 0 };
    node.submit_tx(&ok).unwrap();
    assert!(matches!(
        node.submit_tx(b"free-form bytes".to_vec()),
        Err(SubmitError::Malformed { .. })
    ));
    let zero = Transfer { amount: 0, ..ok };
    assert!(matches!(node.submit_tx(&zero), Err(SubmitError::Rejected { .. })));
    let selfpay = Transfer { to: AccountId(1), nonce: 1, ..ok };
    assert!(matches!(node.submit_tx(&selfpay), Err(SubmitError::Rejected { .. })));
    // Stateful validity is not admission's business: a future nonce and an
    // absurd amount both pass (execution rejects them deterministically).
    let future = Transfer { nonce: 99, ..ok };
    node.submit_tx(&future).unwrap();
    assert_eq!(node.mempool_len(), 2);
}

#[test]
fn typed_dedup_catches_resubmission_in_either_form() {
    let cfg = Config::new(4).unwrap();
    let mut node = MultiShotNode::new(cfg, Params::new(100), NodeId(0));
    let t = Transfer { from: AccountId(1), to: AccountId(2), amount: 5, nonce: 0 };
    node.submit_tx(&t).unwrap();
    // Typed resubmission and raw resubmission of the same canonical bytes
    // are the same identity.
    assert_eq!(node.submit_tx(&t), Err(SubmitError::Duplicate));
    assert_eq!(node.submit_tx(t.canonical_bytes()), Err(SubmitError::Duplicate));
    // A different nonce is a different transaction.
    node.submit_tx(&Transfer { nonce: 1, ..t }).unwrap();
    assert_eq!(node.mempool_len(), 2);
}

// ---- replica agreement: deterministic sim, n = 4 ------------------------

/// Runs an n=4 sim where each node submits typed transfers from its own
/// account, then executes every node's finalized stream in its own
/// replica. All roots must be byte-identical.
#[test]
fn sim_replicas_agree_on_state_roots() {
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let genesis: Vec<(AccountId, u64)> = (1..=n as u64).map(|id| (AccountId(id), 1_000)).collect();
    let mut sim = SimBuilder::new(n).build(|id| {
        let mut node =
            MultiShotNode::new(cfg, Params::new(100), id).with_admission(transfer_admission);
        // Node i pays from account i+1: each transfer enters exactly one
        // mempool, so it finalizes exactly once.
        let from = id.0 as u64 + 1;
        for t in 0..20u64 {
            let tx =
                Transfer { from: AccountId(from), to: AccountId(100 + from), amount: 3, nonce: t };
            node.submit_tx(&tx).unwrap();
        }
        node
    });
    sim.run_until(Time(60));

    let mut replicas: Vec<LedgerReplica> =
        (0..n).map(|_| LedgerReplica::new(genesis.clone())).collect();
    for record in sim.outputs() {
        replicas[record.node.index()].push(0, &record.output);
    }
    let min_height = replicas.iter().map(|r| r.height()).min().unwrap();
    assert!(min_height > 20, "chain must make progress, got height {min_height}");
    let reference = &replicas[0];
    for (i, other) in replicas.iter().enumerate().skip(1) {
        reference.cross_check(other).unwrap_or_else(|e| panic!("replica {i} diverged: {e}"));
        let common = (min_height as usize).saturating_sub(1);
        assert_eq!(
            reference.receipts()[common].root,
            other.receipts()[common].root,
            "replica {i} root differs at common height"
        );
    }
    // The traffic executed: every node's 20 transfers applied somewhere in
    // the chain, and conservation held throughout.
    let applied: usize = reference.receipts().iter().map(|r| r.applied).sum();
    assert_eq!(applied, n * 20, "every submitted transfer applies exactly once");
    assert_eq!(reference.ledger().accounts().total_balance(), 4 * 1_000);
    for from in 1..=n as u64 {
        assert_eq!(reference.ledger().account(AccountId(100 + from)).balance, 60);
        assert_eq!(reference.ledger().account(AccountId(from)).nonce, 20);
    }
}

// ---- replica agreement: sharded sim, k = 2 ------------------------------

/// k=2 sharded run with transfers routed to shards by *paying account*:
/// per-account nonce order survives the slot partition, the merged global
/// stream executes identically on every node's replica, and roots agree.
#[test]
fn sharded_replicas_agree_on_state_roots() {
    let k = 2;
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let spec = ShardSpec::new(k);
    let accounts: Vec<u64> = (1..=8).collect();
    let genesis: Vec<(AccountId, u64)> = accounts.iter().map(|id| (AccountId(*id), 500)).collect();

    let mut sim = ShardedSim::new(
        k,
        n,
        0,
        |_, _| LinkPlan::uniform(EdgeSpec::delay(1)),
        |shard, id| {
            let mut node =
                MultiShotNode::new(cfg, Params::new(1_000), id).with_admission(transfer_admission);
            if id == NodeId(0) {
                // One gateway node per shard queues the shard's accounts —
                // routed by paying account, so each account's transfers
                // stay on one shard in nonce order.
                for from in accounts.iter().copied() {
                    if shard_of_account(&spec, AccountId(from)) != shard {
                        continue;
                    }
                    for t in 0..10u64 {
                        let tx = Transfer {
                            from: AccountId(from),
                            to: AccountId(200 + from),
                            amount: 2,
                            nonce: t,
                        };
                        node.submit_tx(&tx).unwrap();
                    }
                }
            }
            node
        },
    );
    sim.run_until(Time(80));

    // Each node folds its own k merged streams into its own replica.
    let mut roots = Vec::new();
    let mut reference: Option<LedgerReplica> = None;
    for node in 0..n as u16 {
        let mut replica = LedgerReplica::sharded(spec, genesis.clone());
        for (j, shard) in sim.shards().iter().enumerate() {
            for record in shard.outputs().iter().filter(|o| o.node == NodeId(node)) {
                replica.push(j, &record.output);
            }
        }
        assert!(replica.height() > 40, "merged chain must progress");
        if let Some(reference) = &reference {
            reference.cross_check(&replica).unwrap_or_else(|e| panic!("node {node} diverged: {e}"));
        }
        roots.push(replica.receipts().last().unwrap().root);
        if reference.is_none() {
            reference = Some(replica);
        }
    }
    let reference = reference.unwrap();
    // All 80 transfers applied exactly once despite the shard split.
    let applied: usize = reference.receipts().iter().map(|r| r.applied).sum();
    assert_eq!(applied, 8 * 10);
    assert_eq!(reference.ledger().accounts().total_balance(), 8 * 500);
    for from in accounts {
        assert_eq!(reference.ledger().account(AccountId(200 + from)).balance, 20);
    }
}

// ---- replica agreement: real TCP cluster --------------------------------

/// A live four-node TCP cluster with typed transfers submitted through
/// `SubmitHandle`s: every node's finalized stream executes to the same
/// per-block roots as the others — the same check as the sim tests, over
/// real sockets.
#[test]
fn tcp_cluster_replicas_agree_on_state_roots() {
    use std::time::{Duration, Instant};
    use tetrabft_suite::net::ClusterBuilder;

    let n = 4;
    let total = 12u64;
    let cfg = Config::new(n).unwrap();
    let genesis = [(AccountId(1), 1_000)];
    let ((mut cluster, submitters), _net) = ClusterBuilder::new(n)
        .spawn_serving(|id| {
            MultiShotNode::new(cfg, Params::new(300), id).with_admission(transfer_admission)
        })
        .expect("cluster spawns");
    for t in 0..total {
        let tx = Transfer { from: AccountId(1), to: AccountId(2), amount: 5, nonce: t };
        // Submit to one node only: exactly-once inclusion without relying
        // on cross-node dedup.
        submitters[0].submit(&tx).expect("cluster is running");
    }

    let mut replicas: Vec<LedgerReplica> = (0..n).map(|_| LedgerReplica::new(genesis)).collect();
    let mut applied = vec![0usize; n];
    let deadline = Instant::now() + Duration::from_secs(60);
    while applied.iter().any(|a| *a < total as usize) {
        assert!(Instant::now() < deadline, "transfers must finalize within 60s: {applied:?}");
        let Some((node, fin)) = cluster.next_output_timeout(Duration::from_secs(30)) else {
            continue;
        };
        let i = node.index();
        let before = replicas[i].receipts().len();
        replicas[i].push(0, &fin);
        applied[i] += replicas[i].receipts()[before..].iter().map(|r| r.applied).sum::<usize>();
    }
    let reference = &replicas[0];
    for (i, other) in replicas.iter().enumerate().skip(1) {
        reference.cross_check(other).unwrap_or_else(|e| panic!("node {i} diverged: {e}"));
    }
    // Every replica that executed all 12 transfers agrees on the balances.
    for replica in &replicas {
        assert_eq!(replica.ledger().account(AccountId(2)).balance, total * 5);
        assert_eq!(replica.ledger().account(AccountId(1)).nonce, total);
        assert_eq!(replica.ledger().accounts().total_balance(), 1_000);
    }
}

// ---- forged divergence --------------------------------------------------

/// A replica that executes a forged block (same chain, tampered payload)
/// is caught by the root cross-check, which names the offending block.
#[test]
fn forged_execution_is_detected_as_state_root_mismatch() {
    let genesis = [(AccountId(1), 100), (AccountId(2), 100)];
    let honest_blocks: Vec<Finalized> = vec![
        fin(1, vec![pay(1, 2, 10, 0)]),
        fin(2, vec![pay(2, 1, 5, 0)]),
        fin(3, vec![pay(1, 2, 7, 1)]),
        fin(4, vec![]),
    ];
    let mut honest = LedgerReplica::new(genesis);
    let mut forged = LedgerReplica::new(genesis);
    for (i, block) in honest_blocks.iter().enumerate() {
        honest.push(0, block);
        if i == 2 {
            // The forger inflates its own slot-3 payment.
            forged.push(0, &fin(3, vec![pay(1, 2, 70, 1)]));
        } else {
            forged.push(0, block);
        }
    }
    let err = honest.cross_check(&forged).unwrap_err();
    assert_eq!(err.global_slot, 3, "the first divergent block is named");
    assert_ne!(err.ours, err.theirs);
    assert!(err.to_string().contains("global slot 3"), "error names the block: {err}");
    // Divergence is sticky: the final roots still differ though slot 4 was
    // identical on both sides.
    assert_ne!(honest.root(), forged.root());
}
