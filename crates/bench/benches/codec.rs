//! Micro-bench: the hand-rolled wire codec. An unauthenticated protocol's
//! pitch includes avoiding expensive cryptography, so the remaining
//! per-message CPU cost — encoding — should be trivially small; this bench
//! quantifies it as the median time per call.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` to run each body once (CI smoke).

use std::hint::black_box;
use std::time::Duration;

use tetrabft::{Message, SuggestData};
use tetrabft_bench::{median_time, print_table};
use tetrabft_multishot::{Block, MsMessage};
use tetrabft_types::{Phase, Slot, Value, View, VoteInfo};
use tetrabft_wire::Wire;

const SAMPLES: usize = 50;

fn row(name: &str, bytes: usize, t: Duration) -> Vec<String> {
    vec![name.to_string(), bytes.to_string(), format!("{t:.2?}")]
}

fn main() {
    let vote = Message::Vote { phase: Phase::VOTE2, view: View(9), value: Value::from_u64(7) };
    let suggest = Message::Suggest {
        view: View(9),
        data: SuggestData {
            vote2: Some(VoteInfo::new(View(8), Value::from_u64(1))),
            prev_vote2: Some(VoteInfo::new(View(5), Value::from_u64(2))),
            vote3: Some(VoteInfo::new(View(8), Value::from_u64(1))),
        },
    };
    let block_msg = MsMessage::Proposal {
        view: View(0),
        block: Block::new(
            Slot(42),
            tetrabft_multishot::GENESIS_HASH,
            (0..32).map(|i| vec![i as u8; 64]).collect(),
        ),
    };
    let vote_bytes = vote.to_bytes();
    let suggest_bytes = suggest.to_bytes();
    let block_bytes = block_msg.to_bytes();

    let rows = vec![
        row("encode_vote", vote_bytes.len(), median_time(SAMPLES, || black_box(&vote).to_bytes())),
        row(
            "decode_vote",
            vote_bytes.len(),
            median_time(SAMPLES, || Message::from_bytes(black_box(&vote_bytes)).unwrap()),
        ),
        row(
            "encode_suggest",
            suggest_bytes.len(),
            median_time(SAMPLES, || black_box(&suggest).to_bytes()),
        ),
        row(
            "decode_suggest",
            suggest_bytes.len(),
            median_time(SAMPLES, || Message::from_bytes(black_box(&suggest_bytes)).unwrap()),
        ),
        row(
            "encode_block_32txs",
            block_bytes.len(),
            median_time(SAMPLES, || black_box(&block_msg).to_bytes()),
        ),
        row(
            "decode_block_32txs",
            block_bytes.len(),
            median_time(SAMPLES, || MsMessage::from_bytes(black_box(&block_bytes)).unwrap()),
        ),
    ];
    print_table("Wire codec cost (median per call)", &["operation", "bytes", "time"], &rows);
}
