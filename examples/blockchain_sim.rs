//! A seven-node blockchain on pipelined Multi-shot TetraBFT, now with a
//! ledger on top: typed `Transfer`s are submitted through the admission
//! hook, one node crashes mid-run, the chain keeps finalizing one block
//! per message delay outside the recovery windows, and every replica
//! executes the finalized stream into the same per-block state root.
//!
//! ```sh
//! cargo run --example blockchain_sim
//! TETRABFT_ACCOUNTS=32 TETRABFT_TXS_PER_ACCOUNT=8 cargo run --example blockchain_sim
//! ```

use tetrabft_suite::prelude::*;
use tetrabft_types::NodeId;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 7;
    let cfg = Config::new(n)?;
    let accounts = env_usize("TETRABFT_ACCOUNTS", 12).max(2) as u64;
    let txs_per_account = env_usize("TETRABFT_TXS_PER_ACCOUNT", 4) as u64;
    println!(
        "blockchain with n = {n}, f = {} — {accounts} accounts × {txs_per_account} transfers\n",
        cfg.f()
    );

    let mut sim = SimBuilder::new(n)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(2))) // mild real-world jitter
        .seed(7)
        .build_boxed(|id| {
            if id == NodeId(6) {
                // One node is down from the start — within the fault budget.
                Box::new(tetrabft_suite::sim::SilentNode::new())
            } else {
                let mut node =
                    MultiShotNode::new(cfg, Params::new(30), id).with_admission(transfer_admission);
                // Each account's transfers enter at exactly one live node so
                // every transfer is included exactly once.
                for acct in (1..=accounts).filter(|a| a % 6 == id.0 as u64) {
                    for nonce in 0..txs_per_account {
                        let tx = Transfer {
                            from: AccountId(acct),
                            to: AccountId(acct % accounts + 1),
                            amount: 10,
                            nonce,
                        };
                        node.submit_tx(&tx).unwrap();
                    }
                }
                Box::new(node)
            }
        });

    sim.run_until(Time(400));

    // Reconstruct node 0's chain and execute it into account state.
    let chain: Vec<&Finalized> =
        sim.outputs().iter().filter(|o| o.node == NodeId(0)).map(|o| &o.output).collect();
    let genesis = || (1..=accounts).map(|id| (AccountId(id), 1_000u64));
    let mut replica = LedgerReplica::new(genesis());
    for fin in &chain {
        replica.push(0, fin);
    }
    println!("node 0 finalized and executed {} blocks:", chain.len());
    for receipt in replica.receipts().iter().take(8) {
        println!("  slot {:>2}  {} txs applied  {}", receipt.slot, receipt.applied, receipt.root);
    }
    if replica.receipts().len() > 8 {
        println!("  … and {} more", replica.receipts().len() - 8);
    }

    // Every live node executes its own finalized stream; the chained
    // state roots must match node 0's block for block.
    for i in 1..6u16 {
        let mut other = LedgerReplica::new(genesis());
        for o in sim.outputs().iter().filter(|o| o.node == NodeId(i)) {
            other.push(0, &o.output);
        }
        replica.cross_check(&other).expect("replicas diverged");
    }
    println!("\nall live nodes agree on every finalized state root ✓");

    let applied: usize = replica.receipts().iter().map(|r| r.applied).sum();
    let total: u128 = replica.ledger().accounts().total_balance();
    println!(
        "{applied}/{} transfers applied, supply conserved at {total}",
        accounts * txs_per_account
    );
    println!("final state root: {}", replica.root());
    Ok(())
}
