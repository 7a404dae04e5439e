//! **Ledger execution** — pricing the application layer the chain carries:
//! applied transfers/s through the deterministic state machine, the
//! per-block state-root cost of the persistent account trie against a
//! rescan-the-world baseline, the invalid-transaction rejection path, and
//! the end-to-end consensus→execution pipeline on the sharded sim.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` for a tiny CI smoke run (all correctness
//! assertions stay armed; the perf-ratio gate needs the full run).

use std::collections::HashMap;
use std::time::Instant;

use tetrabft::Params;
use tetrabft_bench::print_table;
use tetrabft_ledger::{
    shard_of_account, transfer_admission, AccountId, Ledger, LedgerReplica, Transfer,
};
use tetrabft_multishot::{MultiShotNode, ShardSpec, ShardedSim, Transaction};
use tetrabft_sim::{EdgeSpec, LinkPlan, Time};
use tetrabft_types::{Config, NodeId};

fn smoke() -> bool {
    std::env::var_os("TETRABFT_BENCH_SMOKE").is_some()
}

/// The retained baseline: account state in a plain `HashMap`, with the
/// per-block commitment recomputed by rescanning every account in sorted
/// order — what a ledger without a persistent hashed structure must do.
/// The trie ledger's per-node cached digests amortize the same commitment
/// into the inserts themselves.
struct RescanLedger {
    accounts: HashMap<u64, (u64, u64)>, // id -> (balance, nonce)
    root: u64,
}

impl RescanLedger {
    fn new(genesis: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let accounts = genesis.into_iter().map(|(id, bal)| (id, (bal, 0))).collect();
        RescanLedger { accounts, root: 0 }
    }

    fn apply_block(&mut self, slot: u64, txs: &[Vec<u8>]) -> usize {
        use tetrabft_wire::Wire;
        let mut applied = 0;
        for bytes in txs {
            let Ok(t) = Transfer::from_bytes(bytes) else { continue };
            if t.amount == 0 || t.from == t.to {
                continue;
            }
            let from = self.accounts.entry(t.from.0).or_insert((0, 0));
            if t.nonce != from.1 || from.0 < t.amount {
                continue;
            }
            from.0 -= t.amount;
            from.1 += 1;
            let to = self.accounts.entry(t.to.0).or_insert((0, 0));
            let Some(credited) = to.0.checked_add(t.amount) else { continue };
            to.0 = credited;
            applied += 1;
        }
        // The full-rescan commitment: sort every account, hash the lot.
        let mut entries: Vec<_> = self.accounts.iter().map(|(id, a)| (*id, *a)).collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_be_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.root);
        mix(slot);
        for (id, (bal, nonce)) in entries {
            mix(id);
            mix(bal);
            mix(nonce);
        }
        self.root = h;
        applied
    }
}

/// Pre-built valid traffic: `blocks` blocks of `per_block` transfers
/// round-robining over `accounts` payers, nonces sequenced per account.
fn valid_blocks(accounts: u64, blocks: usize, per_block: usize) -> Vec<Vec<Vec<u8>>> {
    let mut nonces = vec![0u64; accounts as usize];
    (0..blocks)
        .map(|b| {
            (0..per_block)
                .map(|i| {
                    let from = ((b * per_block + i) as u64 % accounts) + 1;
                    let to = (from % accounts) + 1;
                    let nonce = nonces[(from - 1) as usize];
                    nonces[(from - 1) as usize] += 1;
                    Transfer { from: AccountId(from), to: AccountId(to), amount: 1, nonce }
                        .canonical_bytes()
                })
                .collect()
        })
        .collect()
}

fn main() {
    let (accounts, blocks, per_block) =
        if smoke() { (128u64, 40usize, 64usize) } else { (4_096u64, 1_500usize, 256usize) };
    let genesis: Vec<(AccountId, u64)> =
        (1..=accounts).map(|id| (AccountId(id), 1_000_000)).collect();
    let supply = accounts as u128 * 1_000_000;
    let traffic = valid_blocks(accounts, blocks, per_block);
    let total_txs = (blocks * per_block) as u64;

    // ---- applied transfers/s, trie ledger vs rescan baseline ------------
    let mut ledger = Ledger::new(genesis.clone());
    let t0 = Instant::now();
    let mut applied = 0usize;
    for (b, txs) in traffic.iter().enumerate() {
        applied += ledger.apply_block(b as u64 + 1, txs).applied;
    }
    let trie_time = t0.elapsed();
    assert_eq!(applied as u64, total_txs, "all pre-sequenced transfers must apply");
    assert_eq!(ledger.accounts().total_balance(), supply, "conservation");

    let mut rescan = RescanLedger::new((1..=accounts).map(|id| (id, 1_000_000)));
    let t0 = Instant::now();
    let mut rescan_applied = 0usize;
    for (b, txs) in traffic.iter().enumerate() {
        rescan_applied += rescan.apply_block(b as u64 + 1, txs);
    }
    let rescan_time = t0.elapsed();
    assert_eq!(rescan_applied, applied, "both executors apply the same transfers");

    // Determinism: a second trie run lands on bit-identical roots.
    let mut ledger2 = Ledger::new(genesis.clone());
    for (b, txs) in traffic.iter().enumerate() {
        ledger2.apply_block(b as u64 + 1, txs);
    }
    assert_eq!(ledger2.root(), ledger.root(), "execution is deterministic");

    let per_block_us = |t: std::time::Duration, b: usize| t.as_secs_f64() * 1e6 / b as f64;
    let rows = vec![
        vec![
            "trie (persistent, cached digests)".to_string(),
            format!("{:.0}", applied as f64 / trie_time.as_secs_f64()),
            format!("{:.1}", per_block_us(trie_time, blocks)),
            format!("{}", ledger.root()),
        ],
        vec![
            "rescan baseline (HashMap + full rehash)".to_string(),
            format!("{:.0}", rescan_applied as f64 / rescan_time.as_secs_f64()),
            format!("{:.1}", per_block_us(rescan_time, blocks)),
            format!("root:{:016x}", rescan.root),
        ],
    ];
    print_table(
        &format!("Ledger execution — {accounts} accounts, {blocks} blocks × {per_block} transfers"),
        &["executor", "applied tx/s", "µs/block (incl. root)", "final root"],
        &rows,
    );

    // ---- per-block root cost vs account-set size -------------------------
    // The trie's commitment upkeep is O(writes · depth) per block; the
    // rescan baseline is O(accounts). Growing the account set shows the
    // crossover: per-block cost stays near-flat for the trie and grows
    // linearly for the rescan.
    let root_blocks = if smoke() { 20 } else { 100 };
    let sizes: &[u64] = if smoke() { &[128, 2_048] } else { &[4_096, 65_536] };
    let mut rows = Vec::new();
    let mut costs = Vec::new();
    for &size in sizes {
        let traffic = valid_blocks(size, root_blocks, per_block);
        let mut trie = Ledger::new((1..=size).map(|id| (AccountId(id), 1_000_000)));
        let t0 = Instant::now();
        for (b, txs) in traffic.iter().enumerate() {
            trie.apply_block(b as u64 + 1, txs);
        }
        let trie_t = t0.elapsed();
        let mut rescan = RescanLedger::new((1..=size).map(|id| (id, 1_000_000)));
        let t0 = Instant::now();
        for (b, txs) in traffic.iter().enumerate() {
            rescan.apply_block(b as u64 + 1, txs);
        }
        let rescan_t = t0.elapsed();
        costs.push((trie_t, rescan_t));
        rows.push(vec![
            size.to_string(),
            format!("{:.1}", per_block_us(trie_t, root_blocks)),
            format!("{:.1}", per_block_us(rescan_t, root_blocks)),
            format!("{:.2}×", rescan_t.as_secs_f64() / trie_t.as_secs_f64()),
        ]);
    }
    print_table(
        &format!("Per-block root cost vs account-set size — {per_block} transfers/block"),
        &["accounts", "trie µs/block", "rescan µs/block", "rescan/trie"],
        &rows,
    );
    if !smoke() {
        // At the largest size the account set dwarfs the write set: the
        // incremental trie commitment must beat the full rescan outright.
        let (trie_t, rescan_t) = costs[costs.len() - 1];
        assert!(
            trie_t < rescan_t,
            "trie root upkeep must beat the full rescan at {} accounts ({trie_t:?} vs {rescan_t:?})",
            sizes[sizes.len() - 1]
        );
    }

    // ---- invalid-transaction rejection path ------------------------------
    // Half the traffic is invalid (replays, overdrafts, malformed): the
    // rejection path must be cheap, exact, and leave roots untouched by
    // the rejects.
    let mut mixed = Vec::new();
    let mut nonces = vec![0u64; accounts as usize];
    for b in 0..blocks {
        let mut txs = Vec::with_capacity(per_block);
        for i in 0..per_block {
            let from = ((b * per_block + i) as u64 % accounts) + 1;
            let to = (from % accounts) + 1;
            if i % 2 == 0 {
                let nonce = nonces[(from - 1) as usize];
                nonces[(from - 1) as usize] += 1;
                txs.push(
                    Transfer { from: AccountId(from), to: AccountId(to), amount: 1, nonce }
                        .canonical_bytes(),
                );
            } else {
                match i % 6 {
                    1 => {
                        // Bad nonce: a replay once the account has moved, a
                        // far-future gap while it is still fresh — wrong
                        // either way.
                        let cur = nonces[(from - 1) as usize];
                        let nonce = if cur > 0 { cur - 1 } else { cur + 1_000_000 };
                        txs.push(
                            Transfer { from: AccountId(from), to: AccountId(to), amount: 1, nonce }
                                .canonical_bytes(),
                        );
                    }
                    3 => txs.push(
                        // Overdraft: more than the whole supply.
                        Transfer {
                            from: AccountId(from),
                            to: AccountId(to),
                            amount: u64::MAX,
                            nonce: nonces[(from - 1) as usize],
                        }
                        .canonical_bytes(),
                    ),
                    _ => txs.push(b"not a transfer".to_vec()), // malformed
                }
            }
        }
        mixed.push(txs);
    }
    let mut dirty = Ledger::new(genesis.clone());
    let t0 = Instant::now();
    let (mut ok, mut bad) = (0usize, 0usize);
    for (b, txs) in mixed.iter().enumerate() {
        let receipt = dirty.apply_block(b as u64 + 1, txs);
        ok += receipt.applied;
        bad += receipt.rejected.len();
    }
    let mixed_time = t0.elapsed();
    assert_eq!(ok + bad, blocks * per_block);
    assert_eq!(ok, blocks * (per_block / 2 + per_block % 2), "exactly the valid half applies");
    assert_eq!(dirty.accounts().total_balance(), supply, "rejects never move funds");
    // Identical mixed stream twice ⇒ identical root: rejection is part of
    // the deterministic state machine.
    let mut dirty2 = Ledger::new(genesis.clone());
    for (b, txs) in mixed.iter().enumerate() {
        dirty2.apply_block(b as u64 + 1, txs);
    }
    assert_eq!(dirty2.root(), dirty.root());
    print_table(
        "Invalid-transaction path — 50% invalid (replay / overdraft / malformed)",
        &["applied", "rejected", "rejects/s", "µs/block"],
        &[vec![
            ok.to_string(),
            bad.to_string(),
            format!("{:.0}", bad as f64 / mixed_time.as_secs_f64()),
            format!("{:.1}", per_block_us(mixed_time, blocks)),
        ]],
    );

    // ---- end to end: consensus → merge → execution (k = 1, 2) -----------
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let horizon: u64 = if smoke() { 40 } else { 200 };
    let per_account = if smoke() { 8u64 } else { 32 };
    let exec_accounts = 8u64;
    let exec_genesis: Vec<(AccountId, u64)> =
        (1..=exec_accounts).map(|id| (AccountId(id), 10_000)).collect();
    let mut rows = Vec::new();
    for k in [1usize, 2] {
        let spec = ShardSpec::new(k);
        let mut sharded = ShardedSim::new(
            k,
            n,
            0,
            |_, _| LinkPlan::uniform(EdgeSpec::delay(1)),
            |shard, id| {
                let mut node = MultiShotNode::new(cfg, Params::new(1_000), id)
                    .with_admission(transfer_admission);
                if id == NodeId(0) {
                    for from in 1..=exec_accounts {
                        if shard_of_account(&spec, AccountId(from)) != shard {
                            continue;
                        }
                        for t in 0..per_account {
                            let tx = Transfer {
                                from: AccountId(from),
                                to: AccountId((from % exec_accounts) + 1),
                                amount: 1,
                                nonce: t,
                            };
                            node.submit_tx(&tx).unwrap();
                        }
                    }
                }
                node
            },
        );
        sharded.run_until(Time(horizon));
        let t0 = Instant::now();
        let mut replica = LedgerReplica::sharded(spec, exec_genesis.clone());
        for (j, shard) in sharded.shards().iter().enumerate() {
            for record in shard.outputs().iter().filter(|o| o.node == NodeId(0)) {
                replica.push(j, &record.output);
            }
        }
        let exec_time = t0.elapsed();
        let applied: usize = replica.receipts().iter().map(|r| r.applied).sum();
        assert_eq!(
            applied as u64,
            exec_accounts * per_account,
            "every submitted transfer finalizes and applies exactly once (k={k})"
        );
        assert_eq!(replica.ledger().accounts().total_balance(), exec_accounts as u128 * 10_000);
        rows.push(vec![
            k.to_string(),
            replica.height().to_string(),
            applied.to_string(),
            format!("{:.0}", replica.height() as f64 / exec_time.as_secs_f64()),
            format!("{}", replica.root()),
        ]);
    }
    print_table(
        &format!(
            "Consensus → execution — n={n}, {exec_accounts} accounts × {per_account} transfers, \
             horizon {horizon} delays, account-routed shards"
        ),
        &["k", "blocks executed", "applied", "blocks/s (exec)", "final root"],
        &rows,
    );

    println!(
        "\nExecution is deterministic (same stream ⇒ bit-identical chained roots), \
         invalid transactions reject without touching state, and the persistent \
         trie keeps per-block commitments incremental instead of rescanning \
         every account."
    );
}
