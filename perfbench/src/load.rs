//! The load generator's inputs and its client socket: a seeded Poisson
//! arrival schedule, nonce-ordered transfers over a fixed account set,
//! and the framed `CLIENT_HELLO_ID` connection they are written to.
//!
//! Everything the program receives is produced here from the workload
//! seed; the schedule and the transfer stream are pure functions of it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rand::{Rng, SeedableRng, StdRng};
use tetrabft_ledger::{AccountId, Transfer};
use tetrabft_multishot::Transaction;
use tetrabft_net::CLIENT_HELLO_ID;
use tetrabft_wire::frame::encode_frame_into;

/// Seed stream tags, so the schedule and the transfer contents draw from
/// independent generators of one workload seed.
const SCHEDULE_STREAM: u64 = 0x5C4E_D01E;
const TRANSFER_STREAM: u64 = 0x7EA4_5FE2;

fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform draw in `(0, 1]` from the top 53 bits.
fn unit(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// An open-loop Poisson arrival process: each arrival is an offset from
/// the start of the load and the account that pays.
#[derive(Debug, Clone)]
pub struct PoissonSchedule {
    rng: StdRng,
    rate_per_s: f64,
    accounts: u64,
    at_s: f64,
}

impl PoissonSchedule {
    /// Arrivals at `rate_per_s` on average, payers uniform over
    /// `accounts`.
    pub fn new(seed: u64, rate_per_s: f64, accounts: u64) -> PoissonSchedule {
        PoissonSchedule { rng: stream(seed, SCHEDULE_STREAM), rate_per_s, accounts, at_s: 0.0 }
    }
}

impl Iterator for PoissonSchedule {
    type Item = (Duration, u64);

    fn next(&mut self) -> Option<(Duration, u64)> {
        self.at_s += -unit(&mut self.rng).ln() / self.rate_per_s;
        let from = self.rng.random_range(0..self.accounts);
        Some((Duration::from_secs_f64(self.at_s), from))
    }
}

/// Nonce-ordered transfers over accounts `0..accounts`: the next
/// transfer a given account pays carries that account's next nonce.
#[derive(Debug, Clone)]
pub struct Transfers {
    rng: StdRng,
    nonces: Vec<u64>,
}

impl Transfers {
    /// A fresh stream with every account at nonce 0.
    pub fn new(seed: u64, accounts: u64) -> Transfers {
        Transfers { rng: stream(seed, TRANSFER_STREAM), nonces: vec![0; accounts as usize] }
    }

    /// The next transfer paid by `from`: a random other account, an
    /// amount in `1..=1000`.
    pub fn next(&mut self, from: u64) -> Transfer {
        let accounts = self.nonces.len() as u64;
        let to = (from + self.rng.random_range(1..accounts)) % accounts;
        let amount = self.rng.random_range(1..=1000u64);
        let nonce = self.nonces[from as usize];
        self.nonces[from as usize] += 1;
        Transfer { from: AccountId(from), to: AccountId(to), amount, nonce }
    }
}

/// Which client connection carries `account`'s transfers: each account
/// is pinned to one connection, so its nonces reach one node in order.
pub fn conn_of(account: u64, conns: usize) -> usize {
    (account % conns as u64) as usize
}

/// Appends `t` to `out` as one client frame.
pub fn frame(t: &Transfer, out: &mut Vec<u8>) {
    encode_frame_into(&t.canonical_bytes(), out).expect("a transfer is far below the frame limit");
}

/// Dials a node's listen port as a submitting client: the 10-byte hello
/// (`CLIENT_HELLO_ID`, incarnation 0), then the node's 8-byte ack.
///
/// # Errors
///
/// Propagates connect and handshake I/O errors.
pub fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut hello = [0u8; 10];
    hello[..2].copy_from_slice(&CLIENT_HELLO_ID.to_be_bytes());
    stream.write_all(&hello)?;
    let mut ack = [0u8; 8];
    stream.read_exact(&mut ack)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a: Vec<_> = PoissonSchedule::new(7, 32_000.0, 4096).take(1000).collect();
        let b: Vec<_> = PoissonSchedule::new(7, 32_000.0, 4096).take(1000).collect();
        let c: Vec<_> = PoissonSchedule::new(8, 32_000.0, 4096).take(1000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "offsets never go back");
        assert!(a.iter().all(|&(_, from)| from < 4096));
    }

    #[test]
    fn poisson_schedule_keeps_its_rate() {
        let (at, _) = PoissonSchedule::new(3, 32_000.0, 16).nth(99_999).unwrap();
        let rate = 100_000.0 / at.as_secs_f64();
        assert!((rate - 32_000.0).abs() < 32_000.0 * 0.01, "rate {rate}");
    }

    #[test]
    fn transfers_are_valid_and_seeded() {
        let mut a = Transfers::new(5, 64);
        let mut b = Transfers::new(5, 64);
        for i in 0..500u64 {
            let t = a.next(i % 64);
            assert_eq!(t, b.next(i % 64));
            assert_ne!(t.from, t.to);
            assert!((1..=1000).contains(&t.amount));
            assert!(t.to.0 < 64);
        }
    }

    #[test]
    fn each_connection_carries_its_accounts_in_nonce_order() {
        const CONNS: usize = 2;
        let mut transfers = Transfers::new(11, 4096);
        let mut per_conn: Vec<Vec<Transfer>> = vec![Vec::new(); CONNS];
        for (_, from) in PoissonSchedule::new(11, 32_000.0, 4096).take(50_000) {
            per_conn[conn_of(from, CONNS)].push(transfers.next(from));
        }
        let mut next = vec![0u64; 4096];
        for (conn, stream) in per_conn.iter().enumerate() {
            for t in stream {
                assert_eq!(conn_of(t.from.0, CONNS), conn, "an account never switches connection");
                assert_eq!(t.nonce, next[t.from.0 as usize], "nonces arrive gapless, in order");
                next[t.from.0 as usize] += 1;
            }
        }
        assert_eq!(next.iter().sum::<u64>(), 50_000);
    }
}
