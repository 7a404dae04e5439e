//! Blocks, hash pointers, and the genesis block.

use std::cell::RefCell;
use std::sync::Arc;

use tetrabft_types::{Slot, Value};
use tetrabft_wire::{Reader, Wire, WireError, Writer};

/// A block digest: the 64-bit FNV-1a hash of the block's encoding.
///
/// Deliberately **not** cryptographic — TetraBFT is an unauthenticated
/// protocol and never relies on unforgeability; the hash pointer is only a
/// compact way to name a parent block (collision-resistance here is a
/// modelling convenience, not a safety assumption).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockHash(pub u64);

/// The hash of the implicit genesis block (slot 0).
pub const GENESIS_HASH: BlockHash = BlockHash(1);

impl BlockHash {
    /// The consensus [`Value`] this hash is voted on as.
    #[inline]
    pub fn as_value(self) -> Value {
        Value::from_u64(self.0)
    }

    /// Reconstructs a hash from a consensus value.
    #[inline]
    pub fn from_value(value: Value) -> Self {
        BlockHash(value.as_u64())
    }
}

impl std::fmt::Display for BlockHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:016x}", self.0)
    }
}

/// A block in the chain: slot number, parent pointer, and a transaction
/// payload.
///
/// Blocks intentionally do **not** embed the view they were proposed in: a
/// view change may re-propose the *same* block in a later view (Rule 1
/// certifies the block's hash as the safe value), which must not change its
/// identity.
///
/// # Examples
///
/// ```
/// use tetrabft_multishot::{Block, GENESIS_HASH};
/// use tetrabft_types::Slot;
///
/// let b1 = Block::new(Slot(1), GENESIS_HASH, vec![b"tx".to_vec()]);
/// let b2 = Block::new(Slot(2), b1.hash(), vec![]);
/// assert_eq!(b2.parent, b1.hash());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Slot (height) of the block.
    pub slot: Slot,
    /// Hash pointer to the parent block.
    pub parent: BlockHash,
    /// Transactions carried by the block.
    ///
    /// Shared, not owned: a block is cloned once per broadcast recipient,
    /// once into the store, and once per finalization output. Behind an
    /// `Arc` all of those are reference-count bumps over one buffer — the
    /// "share one encoded payload instead of cloning it per recipient"
    /// half of the zero-alloc hot path. `Arc` (not `Rc`) because the TCP
    /// runtime moves messages across threads.
    pub txs: Arc<Vec<Vec<u8>>>,
}

thread_local! {
    /// Scratch encoder for [`Block::hash`]: hashing re-encodes the block,
    /// and the store hashes every insert, so a heap-allocated `Writer` per
    /// call would be one of the hottest allocation sites in the pipeline.
    static HASH_SCRATCH: RefCell<Writer> = RefCell::new(Writer::new());
}

impl Block {
    /// Creates a block.
    pub fn new(slot: Slot, parent: BlockHash, txs: Vec<Vec<u8>>) -> Self {
        Block { slot, parent, txs: Arc::new(txs) }
    }

    /// The block's digest (FNV-1a over its wire encoding, never 0 or the
    /// genesis hash). Encodes into a thread-local scratch buffer, so
    /// steady-state calls do not allocate.
    pub fn hash(&self) -> BlockHash {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        HASH_SCRATCH.with(|scratch| {
            let mut w = scratch.borrow_mut();
            w.clear();
            self.encode(&mut w);
            for &b in w.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        });
        // Reserve 0 (the "fresh block" sentinel in Rule 1) and 1 (genesis).
        if h <= 1 {
            h = 2;
        }
        BlockHash(h)
    }
}

impl Wire for BlockHash {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BlockHash(r.get_u64()?))
    }
}

impl Wire for Block {
    fn encode(&self, w: &mut Writer) {
        self.slot.encode(w);
        self.parent.encode(w);
        w.put_varint(self.txs.len() as u64);
        for tx in self.txs.iter() {
            w.put_varint(tx.len() as u64);
            w.put_slice(tx);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let slot = Slot::decode(r)?;
        let parent = BlockHash::decode(r)?;
        // Compare before narrowing so 32-bit targets reject the same
        // hostile counts 64-bit ones do.
        let declared = r.get_varint_u64()?;
        const MAX_TXS: usize = 1 << 16;
        if declared > MAX_TXS as u64 {
            let declared = usize::try_from(declared).unwrap_or(usize::MAX);
            return Err(WireError::LengthOverflow { declared, limit: MAX_TXS });
        }
        let count = declared as usize;
        let mut txs = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            let len = r.get_varint_u32()? as usize;
            txs.push(r.get_slice(len)?.to_vec());
        }
        Ok(Block { slot, parent, txs: Arc::new(txs) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_content_sensitive() {
        let a = Block::new(Slot(1), GENESIS_HASH, vec![b"x".to_vec()]);
        let b = Block::new(Slot(1), GENESIS_HASH, vec![b"x".to_vec()]);
        let c = Block::new(Slot(1), GENESIS_HASH, vec![b"y".to_vec()]);
        assert_eq!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn hash_differs_by_slot_and_parent() {
        let a = Block::new(Slot(1), GENESIS_HASH, vec![]);
        let b = Block::new(Slot(2), GENESIS_HASH, vec![]);
        let c = Block::new(Slot(1), BlockHash(99), vec![]);
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn hash_reserved_values() {
        // Structural guarantee: hashes avoid the sentinel values.
        let b = Block::new(Slot(3), GENESIS_HASH, vec![b"tx".to_vec()]);
        assert!(b.hash().0 > 1);
    }

    #[test]
    fn wire_roundtrip() {
        let b = Block::new(Slot(7), BlockHash(42), vec![b"hello".to_vec(), vec![]]);
        let bytes = b.to_bytes();
        assert_eq!(Block::from_bytes(&bytes).unwrap(), b);
    }

    #[test]
    fn value_bridge_roundtrip() {
        let h = BlockHash(0xDEAD_BEEF);
        assert_eq!(BlockHash::from_value(h.as_value()), h);
    }

    #[test]
    fn hostile_tx_count_rejected() {
        let mut w = Writer::new();
        Slot(1).encode(&mut w);
        GENESIS_HASH.encode(&mut w);
        w.put_varint(u64::from(u32::MAX));
        assert!(matches!(Block::from_bytes(w.as_bytes()), Err(WireError::LengthOverflow { .. })));
    }

    #[test]
    fn hostile_tx_len_rejected() {
        // A single tx declaring a 2^40-byte body must fail cleanly.
        let mut w = Writer::new();
        Slot(1).encode(&mut w);
        GENESIS_HASH.encode(&mut w);
        w.put_varint(1);
        w.put_varint(1 << 40);
        assert!(Block::from_bytes(w.as_bytes()).is_err());
    }
}
