//! Block identifiers and sizing.

use ignem_simcore::idmap::DenseId;
use ignem_simcore::units::MIB;

/// The default HDFS block size used throughout the paper's evaluation
/// (§II-B: "The HDFS block size is set to 64MB").
pub const DEFAULT_BLOCK_SIZE: u64 = 64 * MIB;

/// Identifies one block in the file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

impl DenseId for BlockId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        BlockId(index as u64)
    }
}

/// Identifies one file in the namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file_{}", self.0)
    }
}

impl DenseId for FileId {
    fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        FileId(index as u64)
    }
}

/// A block's identity and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// The block id.
    pub id: BlockId,
    /// Size in bytes (the final block of a file may be short).
    pub bytes: u64,
}

/// Splits a file of `bytes` into block sizes of at most `block_size`.
///
/// Zero-byte files occupy a single zero-block-free entry (no blocks).
///
/// ```
/// use ignem_dfs::block::split_into_blocks;
///
/// assert_eq!(split_into_blocks(150, 64), vec![64, 64, 22]);
/// assert_eq!(split_into_blocks(64, 64), vec![64]);
/// assert!(split_into_blocks(0, 64).is_empty());
/// ```
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn split_into_blocks(bytes: u64, block_size: u64) -> Vec<u64> {
    assert!(block_size > 0, "zero block size");
    let mut sizes = Vec::with_capacity((bytes / block_size + 1) as usize);
    let mut left = bytes;
    while left > 0 {
        let b = left.min(block_size);
        sizes.push(b);
        left -= b;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_exact_multiple() {
        assert_eq!(split_into_blocks(192, 64), vec![64, 64, 64]);
    }

    #[test]
    fn split_with_tail() {
        assert_eq!(split_into_blocks(100, 64), vec![64, 36]);
    }

    #[test]
    fn split_small_file() {
        assert_eq!(split_into_blocks(10, 64), vec![10]);
    }

    #[test]
    fn default_block_size_is_64_mib() {
        assert_eq!(DEFAULT_BLOCK_SIZE, 67_108_864);
    }

    #[test]
    fn ids_display() {
        assert_eq!(BlockId(3).to_string(), "blk_3");
        assert_eq!(FileId(4).to_string(), "file_4");
    }
}
