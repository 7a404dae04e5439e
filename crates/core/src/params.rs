//! Timing and batching parameters.

use tetrabft_types::FsyncPolicy;

/// Timing and batching parameters of the protocol.
///
/// The only *timing* parameter TetraBFT needs is Δ, the post-GST delivery
/// bound. The view timeout is fixed at `9Δ` per Section 3.2: up to `2Δ` of
/// view-entry skew across well-behaved nodes, `6Δ` for suggest/proof,
/// proposal, and the four vote phases, plus one Δ of safety margin.
///
/// The multi-shot extension adds three *batching* knobs consumed by the
/// leader's mempool: how many transactions a block may carry, how many the
/// pool admits before pushing back, and how large one transaction may be.
/// Their defaults match the historical hard-coded behavior.
///
/// # Examples
///
/// ```
/// use tetrabft::Params;
/// let p = Params::new(10);
/// assert_eq!(p.delta(), 10);
/// assert_eq!(p.view_timeout(), 90);
/// assert_eq!(p.max_block_txs(), 64);
///
/// let tuned = Params::new(10).with_max_block_txs(256).with_mempool_capacity(50_000);
/// assert_eq!(tuned.max_block_txs(), 256);
/// assert_eq!(tuned.mempool_capacity(), 50_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    delta: u64,
    timeout_factor: u64,
    max_block_txs: usize,
    mempool_capacity: usize,
    max_tx_bytes: usize,
    fsync: FsyncPolicy,
    idle_pacing: u64,
}

impl Params {
    /// Multiplier fixed by the paper's timeout analysis (Section 3.2).
    pub const TIMEOUT_FACTOR: u64 = 9;

    /// Default cap on transactions per block.
    pub const DEFAULT_MAX_BLOCK_TXS: usize = 64;

    /// Default mempool admission bound (submissions beyond it are refused
    /// with a typed backpressure error).
    pub const DEFAULT_MEMPOOL_CAPACITY: usize = 8_192;

    /// Default per-transaction size cap in bytes.
    pub const DEFAULT_MAX_TX_BYTES: usize = 4 * 1024;

    /// Creates parameters for a known post-GST delivery bound `delta` (Δ),
    /// expressed in simulator ticks (or milliseconds under `tetrabft-net`),
    /// with the paper's `9Δ` view timeout and default batching knobs.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`; a zero bound makes timeouts meaningless.
    pub fn new(delta: u64) -> Self {
        assert!(delta > 0, "Δ must be positive");
        Params {
            delta,
            timeout_factor: Self::TIMEOUT_FACTOR,
            max_block_txs: Self::DEFAULT_MAX_BLOCK_TXS,
            mempool_capacity: Self::DEFAULT_MEMPOOL_CAPACITY,
            max_tx_bytes: Self::DEFAULT_MAX_TX_BYTES,
            fsync: FsyncPolicy::default(),
            idle_pacing: 0,
        }
    }

    /// Creates parameters with a non-standard timeout multiplier — **for
    /// the timeout-margin ablation only** (experiment E8): the paper
    /// justifies 9Δ as 2Δ view-entry skew + 6Δ of protocol phases + 1Δ
    /// margin; smaller factors risk spurious view changes.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0` or `factor == 0`.
    pub fn with_timeout_factor(delta: u64, factor: u64) -> Self {
        assert!(factor > 0, "timeout factor must be positive");
        Params { timeout_factor: factor, ..Params::new(delta) }
    }

    /// Sets the maximum number of transactions a leader packs into one
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`; a chain that can never carry a transaction
    /// has no liveness story.
    #[must_use]
    pub fn with_max_block_txs(mut self, max: usize) -> Self {
        assert!(max > 0, "blocks must be able to carry at least one tx");
        self.max_block_txs = max;
        self
    }

    /// Sets the mempool admission bound (the backpressure threshold).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_mempool_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "mempool must admit at least one tx");
        self.mempool_capacity = capacity;
        self
    }

    /// Sets the per-transaction size cap in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    #[must_use]
    pub fn with_max_tx_bytes(mut self, max: usize) -> Self {
        assert!(max > 0, "tx size cap must be positive");
        self.max_tx_bytes = max;
        self
    }

    /// Sets the durable store's fsync cadence: `Always` pays a sync per
    /// record for minimal power-loss rollback, `Batch(n)` amortizes it,
    /// `Never` rides the OS page cache (still crash-safe for process
    /// deaths, not power loss). Ignored by nodes without a durable store.
    #[must_use]
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Paces an *idle* multi-shot chain: a leader whose mempool is empty
    /// holds an otherwise-ready view-0 proposal back for `pause` time
    /// units instead of free-running empty blocks at CPU speed. `0`
    /// (the default) disables pacing. A submission arriving during the
    /// pause is proposed without waiting it out, so pacing trades idle
    /// burn for at most `pause` of extra commit latency on the first
    /// transaction after a lull.
    #[must_use]
    pub fn with_idle_pacing(mut self, pause: u64) -> Self {
        self.idle_pacing = pause;
        self
    }

    /// Idle proposal pause (`0` = free-run, the default).
    #[inline]
    pub fn idle_pacing(&self) -> u64 {
        self.idle_pacing
    }

    /// The durable store's fsync cadence.
    #[inline]
    pub fn fsync(&self) -> FsyncPolicy {
        self.fsync
    }

    /// The delivery bound Δ.
    #[inline]
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The per-view timeout (`9Δ` unless overridden for the ablation).
    #[inline]
    pub fn view_timeout(&self) -> u64 {
        self.timeout_factor * self.delta
    }

    /// Maximum transactions a leader packs into one block.
    #[inline]
    pub fn max_block_txs(&self) -> usize {
        self.max_block_txs
    }

    /// Mempool admission bound; submissions beyond it are refused.
    #[inline]
    pub fn mempool_capacity(&self) -> usize {
        self.mempool_capacity
    }

    /// Per-transaction size cap in bytes.
    #[inline]
    pub fn max_tx_bytes(&self) -> usize {
        self.max_tx_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_is_nine_delta() {
        assert_eq!(Params::new(1).view_timeout(), 9);
        assert_eq!(Params::new(100).view_timeout(), 900);
    }

    #[test]
    #[should_panic(expected = "Δ must be positive")]
    fn zero_delta_rejected() {
        let _ = Params::new(0);
    }

    #[test]
    fn fsync_policy_defaults_batched_and_overrides() {
        let p = Params::new(5);
        assert_eq!(p.fsync(), FsyncPolicy::default());
        let q = p.with_fsync(FsyncPolicy::Always);
        assert_eq!(q.fsync(), FsyncPolicy::Always);
        assert_eq!(q.delta(), 5, "timing knobs are untouched");
        assert_eq!(Params::new(5).with_fsync(FsyncPolicy::Batch(4)).fsync(), FsyncPolicy::Batch(4));
    }

    #[test]
    fn batching_knobs_default_and_override() {
        let p = Params::new(5);
        assert_eq!(p.max_block_txs(), Params::DEFAULT_MAX_BLOCK_TXS);
        assert_eq!(p.mempool_capacity(), Params::DEFAULT_MEMPOOL_CAPACITY);
        assert_eq!(p.max_tx_bytes(), Params::DEFAULT_MAX_TX_BYTES);
        let q = p.with_max_block_txs(7).with_mempool_capacity(11).with_max_tx_bytes(13);
        assert_eq!((q.max_block_txs(), q.mempool_capacity(), q.max_tx_bytes()), (7, 11, 13));
        assert_eq!(q.delta(), 5, "timing knobs are untouched");
    }

    #[test]
    #[should_panic(expected = "at least one tx")]
    fn zero_block_txs_rejected() {
        let _ = Params::new(1).with_max_block_txs(0);
    }
}
