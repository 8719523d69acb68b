//! The NameNode: namespace and block-location authority.
//!
//! Mirrors the slice of HDFS that Ignem relies on (paper §III): complete
//! mappings of files → blocks and blocks → datanodes, random replica
//! placement, and a liveness view that drops failed servers from location
//! results (§III-A5: "the Ignem master queries the file system … and will
//! receive an updated view with only live locations").

use std::collections::BTreeMap;

use ignem_netsim::NodeId;
use ignem_simcore::idmap::IdMap;
use ignem_simcore::rng::SimRng;

use crate::block::{split_into_blocks, BlockId, BlockInfo, FileId};
use crate::error::DfsError;

/// Per-file metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// The file id.
    pub id: FileId,
    /// Absolute path.
    pub path: String,
    /// Block list, in file order.
    pub blocks: Vec<BlockId>,
    /// Total length in bytes.
    pub bytes: u64,
}

#[derive(Debug, Clone)]
struct BlockMeta {
    bytes: u64,
    /// All replica holders, dead or alive (liveness filtered on query).
    replicas: Vec<NodeId>,
}

/// NameNode configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfsConfig {
    /// Block size in bytes.
    pub block_size: u64,
    /// Replication factor.
    pub replication: usize,
}

impl Default for DfsConfig {
    /// The paper's evaluation settings: 64 MB blocks, 3× replication.
    fn default() -> Self {
        DfsConfig {
            block_size: crate::block::DEFAULT_BLOCK_SIZE,
            replication: 3,
        }
    }
}

/// The namespace and block-location authority (see module docs).
///
/// ```
/// use ignem_dfs::namenode::{DfsConfig, NameNode};
/// use ignem_netsim::NodeId;
/// use ignem_simcore::rng::SimRng;
///
/// let mut nn = NameNode::new(DfsConfig::default());
/// for n in 0..4 { nn.register_node(NodeId(n)); }
/// let mut rng = SimRng::new(1);
/// nn.create_file("/data/part-0", 200_000_000, &mut rng)?;
/// let blocks = nn.file_blocks("/data/part-0")?;
/// assert_eq!(blocks.len(), 3); // 2 full 64 MiB blocks + tail
/// # Ok::<(), ignem_dfs::error::DfsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NameNode {
    config: DfsConfig,
    files: IdMap<FileId, FileMeta>,
    by_path: BTreeMap<String, FileId>,
    blocks: IdMap<BlockId, BlockMeta>,
    /// Liveness of every registered datanode; unregistered nodes have no
    /// entry.
    alive: IdMap<NodeId, bool>,
    /// The alive datanodes in ascending id order: the `true` entries of
    /// `alive`, kept in step on every liveness change so that placing a
    /// file costs one copy of it rather than a scan of every node.
    alive_list: Vec<NodeId>,
    next_file: u64,
    next_block: u64,
}

impl NameNode {
    /// Creates an empty namespace.
    ///
    /// # Panics
    ///
    /// Panics if the configured block size or replication factor is zero.
    pub fn new(config: DfsConfig) -> Self {
        assert!(config.block_size > 0, "zero block size");
        assert!(config.replication > 0, "zero replication");
        NameNode {
            config,
            files: IdMap::new(),
            by_path: BTreeMap::new(),
            blocks: IdMap::new(),
            alive: IdMap::new(),
            alive_list: Vec::new(),
            next_file: 0,
            next_block: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// Registers a datanode (initially alive).
    pub fn register_node(&mut self, node: NodeId) {
        self.set_alive(node, true);
    }

    /// Marks a datanode dead: its replicas disappear from location queries.
    ///
    /// # Errors
    ///
    /// [`DfsError::UnknownNode`] if the node was never registered.
    pub fn mark_dead(&mut self, node: NodeId) -> Result<(), DfsError> {
        if !self.alive.contains_key(&node) {
            return Err(DfsError::UnknownNode(node));
        }
        self.set_alive(node, false);
        Ok(())
    }

    /// Marks a datanode alive again (its replicas reappear).
    ///
    /// # Errors
    ///
    /// [`DfsError::UnknownNode`] if the node was never registered.
    pub fn mark_alive(&mut self, node: NodeId) -> Result<(), DfsError> {
        if !self.alive.contains_key(&node) {
            return Err(DfsError::UnknownNode(node));
        }
        self.set_alive(node, true);
        Ok(())
    }

    /// Records `node`'s liveness and keeps the ascending alive list in
    /// step: O(nodes) per liveness change, never per file.
    fn set_alive(&mut self, node: NodeId, alive: bool) {
        self.alive.insert(node, alive);
        match (self.alive_list.binary_search(&node), alive) {
            (Err(at), true) => self.alive_list.insert(at, node),
            (Ok(at), false) => {
                self.alive_list.remove(at);
            }
            _ => {}
        }
    }

    /// Whether a node is registered and alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(&node).copied().unwrap_or(false)
    }

    /// All currently alive datanodes, in ascending id order.
    pub fn alive_nodes(&self) -> &[NodeId] {
        &self.alive_list
    }

    /// Creates a file of `bytes`, splitting it into blocks and placing
    /// `replication` replicas of each block on distinct random alive nodes
    /// (fewer if the cluster is smaller).
    ///
    /// # Errors
    ///
    /// [`DfsError::FileExists`] on a duplicate path,
    /// [`DfsError::NoAliveNodes`] if no datanode is alive.
    pub fn create_file(
        &mut self,
        path: &str,
        bytes: u64,
        rng: &mut SimRng,
    ) -> Result<FileId, DfsError> {
        if self.by_path.contains_key(path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        if self.alive_list.is_empty() {
            return Err(DfsError::NoAliveNodes);
        }
        let mut candidates = self.alive_list.clone();
        let id = FileId(self.next_file);
        self.next_file += 1;
        let mut block_ids = Vec::new();
        for size in split_into_blocks(bytes, self.config.block_size) {
            let bid = BlockId(self.next_block);
            self.next_block += 1;
            rng.shuffle(&mut candidates);
            let replicas: Vec<NodeId> = candidates
                .iter()
                .take(self.config.replication)
                .copied()
                .collect();
            self.blocks.insert(
                bid,
                BlockMeta {
                    bytes: size,
                    replicas,
                },
            );
            block_ids.push(bid);
        }
        self.files.insert(
            id,
            FileMeta {
                id,
                path: path.to_string(),
                blocks: block_ids,
                bytes,
            },
        );
        self.by_path.insert(path.to_string(), id);
        Ok(id)
    }

    /// Deletes a file and all its blocks.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if the path does not exist.
    pub fn delete_file(&mut self, path: &str) -> Result<(), DfsError> {
        let id = self
            .by_path
            .remove(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        let meta = self
            .files
            .remove(&id)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        for b in meta.blocks {
            self.blocks.remove(&b);
        }
        Ok(())
    }

    /// Looks up file metadata by path.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if the path does not exist.
    pub fn open(&self, path: &str) -> Result<&FileMeta, DfsError> {
        self.by_path
            .get(path)
            .and_then(|id| self.files.get(id))
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))
    }

    /// The blocks of a file, in order, with sizes.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileNotFound`] if the path does not exist,
    /// [`DfsError::BlockNotFound`] if one of its blocks is unknown.
    pub fn file_blocks(&self, path: &str) -> Result<Vec<BlockInfo>, DfsError> {
        self.open(path)?
            .blocks
            .iter()
            .map(|&b| self.block_info(b))
            .collect()
    }

    /// A block's id and size.
    ///
    /// # Errors
    ///
    /// [`DfsError::BlockNotFound`] if the block is unknown.
    pub fn block_info(&self, block: BlockId) -> Result<BlockInfo, DfsError> {
        self.blocks
            .get(&block)
            .map(|m| BlockInfo {
                id: block,
                bytes: m.bytes,
            })
            .ok_or(DfsError::BlockNotFound(block))
    }

    /// The **alive** replica locations of a block.
    ///
    /// # Errors
    ///
    /// [`DfsError::BlockNotFound`] if the block is unknown.
    pub fn locations(&self, block: BlockId) -> Result<Vec<NodeId>, DfsError> {
        let meta = self
            .blocks
            .get(&block)
            .ok_or(DfsError::BlockNotFound(block))?;
        Ok(meta
            .replicas
            .iter()
            .copied()
            .filter(|n| self.is_alive(*n))
            .collect())
    }

    /// Whether `node` holds an **alive** replica of `block`: the
    /// allocation-free form of [`locations`](Self::locations) +
    /// `contains` the scheduler's locality check runs per candidate task.
    /// Unknown blocks are simply not replicated anywhere.
    pub fn has_alive_replica(&self, block: BlockId, node: NodeId) -> bool {
        self.blocks
            .get(&block)
            .is_some_and(|m| m.replicas.contains(&node) && self.is_alive(node))
    }

    /// Registers a new replica of `block` on `node` (the re-replication
    /// path after a datanode failure). Idempotent for existing replicas.
    ///
    /// # Errors
    ///
    /// [`DfsError::BlockNotFound`] for an unknown block,
    /// [`DfsError::UnknownNode`] for an unregistered node.
    pub fn add_replica(&mut self, block: BlockId, node: NodeId) -> Result<(), DfsError> {
        if !self.alive.contains_key(&node) {
            return Err(DfsError::UnknownNode(node));
        }
        let meta = self
            .blocks
            .get_mut(&block)
            .ok_or(DfsError::BlockNotFound(block))?;
        if !meta.replicas.contains(&node) {
            meta.replicas.push(node);
        }
        Ok(())
    }

    /// Blocks whose **alive** replica count is below the replication factor
    /// but above zero (the NameNode's re-replication work list).
    pub fn under_replicated(&self) -> Vec<BlockId> {
        let target = self.replication_target();
        self.blocks
            .iter()
            .filter(|(_, m)| self.is_short(m, target))
            .map(|(b, _)| b)
            .collect()
    }

    /// Whether a single block's alive replica count is below the
    /// replication factor but above zero: the per-block form of
    /// [`under_replicated`](Self::under_replicated), used to skip queued
    /// re-replication work that a node's return already made redundant.
    pub fn is_under_replicated(&self, block: BlockId) -> bool {
        self.blocks
            .get(&block)
            .is_some_and(|m| self.is_short(m, self.replication_target()))
    }

    /// The alive replica count a block should reach: the replication
    /// factor, or every alive node when the cluster is smaller.
    fn replication_target(&self) -> usize {
        self.config.replication.min(self.alive_list.len())
    }

    /// Whether a block has some but fewer than `target` alive replicas.
    fn is_short(&self, meta: &BlockMeta, target: usize) -> bool {
        let alive = meta.replicas.iter().filter(|n| self.is_alive(**n)).count();
        alive > 0 && alive < target
    }

    /// Blocks with **no** alive replica at all: every copy sits on a dead
    /// node. Empty in any recoverable state — the chaos harness's
    /// recovery-convergence invariant checks exactly this at end of run.
    pub fn blocks_without_alive_replica(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|(_, m)| !m.replicas.iter().any(|n| self.is_alive(*n)))
            .map(|(b, _)| b)
            .collect()
    }

    /// Every block (with size) that has a replica on `node`. Used by the
    /// vmtouch-style *Inputs-in-RAM* configuration to pin local replicas.
    pub fn blocks_on(&self, node: NodeId) -> Vec<BlockInfo> {
        self.blocks
            .iter()
            .filter(|(_, m)| m.replicas.contains(&node))
            .map(|(id, m)| BlockInfo { id, bytes: m.bytes })
            .collect()
    }

    /// Total number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Total number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ignem_simcore::units::MIB;

    fn namenode(nodes: u32) -> (NameNode, SimRng) {
        let mut nn = NameNode::new(DfsConfig::default());
        for n in 0..nodes {
            nn.register_node(NodeId(n));
        }
        (nn, SimRng::new(42))
    }

    #[test]
    fn create_splits_into_blocks() {
        let (mut nn, mut rng) = namenode(8);
        nn.create_file("/f", 200 * MIB, &mut rng).unwrap();
        let blocks = nn.file_blocks("/f").unwrap();
        assert_eq!(blocks.len(), 4); // 3 full + 8 MiB tail
        assert_eq!(blocks[0].bytes, 64 * MIB);
        assert_eq!(blocks[3].bytes, 8 * MIB);
        assert_eq!(nn.block_count(), 4);
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let (mut nn, mut rng) = namenode(8);
        nn.create_file("/f", 64 * MIB, &mut rng).unwrap();
        let b = nn.file_blocks("/f").unwrap()[0].id;
        let locs = nn.locations(b).unwrap();
        assert_eq!(locs.len(), 3);
        let mut dedup = locs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn small_cluster_reduces_replication() {
        let (mut nn, mut rng) = namenode(2);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        let b = nn.file_blocks("/f").unwrap()[0].id;
        assert_eq!(nn.locations(b).unwrap().len(), 2);
    }

    #[test]
    fn dead_nodes_filtered_from_locations() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        let b = nn.file_blocks("/f").unwrap()[0].id;
        assert_eq!(nn.locations(b).unwrap().len(), 3);
        nn.mark_dead(NodeId(0)).unwrap();
        assert_eq!(nn.locations(b).unwrap().len(), 2);
        nn.mark_alive(NodeId(0)).unwrap();
        assert_eq!(nn.locations(b).unwrap().len(), 3);
    }

    #[test]
    fn duplicate_path_rejected() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        assert_eq!(
            nn.create_file("/f", MIB, &mut rng),
            Err(DfsError::FileExists("/f".into()))
        );
    }

    #[test]
    fn missing_file_errors() {
        let (nn, _) = namenode(3);
        assert_eq!(
            nn.open("/nope").unwrap_err(),
            DfsError::FileNotFound("/nope".into())
        );
    }

    #[test]
    fn no_alive_nodes_errors() {
        let mut nn = NameNode::new(DfsConfig::default());
        let mut rng = SimRng::new(1);
        assert_eq!(
            nn.create_file("/f", MIB, &mut rng),
            Err(DfsError::NoAliveNodes)
        );
    }

    #[test]
    fn delete_removes_blocks() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", 200 * MIB, &mut rng).unwrap();
        assert_eq!(nn.block_count(), 4);
        nn.delete_file("/f").unwrap();
        assert_eq!(nn.block_count(), 0);
        assert_eq!(nn.file_count(), 0);
        assert!(nn.open("/f").is_err());
    }

    #[test]
    fn blocks_on_lists_local_replicas() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", 128 * MIB, &mut rng).unwrap();
        // With 3 nodes and replication 3, every node holds every block.
        for n in 0..3 {
            assert_eq!(nn.blocks_on(NodeId(n)).len(), 2);
        }
    }

    #[test]
    fn placement_spreads_load() {
        let (mut nn, mut rng) = namenode(8);
        nn.create_file("/big", 100 * 64 * MIB, &mut rng).unwrap();
        // Each node should hold roughly 100*3/8 = 37.5 replicas; check
        // nobody is wildly off (placement is uniform random).
        for n in 0..8 {
            let cnt = nn.blocks_on(NodeId(n)).len();
            assert!((15..=60).contains(&cnt), "node {n} has {cnt} replicas");
        }
    }

    #[test]
    fn re_replication_bookkeeping() {
        let (mut nn, mut rng) = namenode(4);
        nn.create_file("/f", 128 * MIB, &mut rng).unwrap();
        assert!(nn.under_replicated().is_empty());
        // Kill a node that holds replicas.
        let victim = (0..4)
            .map(NodeId)
            .find(|n| !nn.blocks_on(*n).is_empty())
            .unwrap();
        let lost = nn.blocks_on(victim).len();
        nn.mark_dead(victim).unwrap();
        let under = nn.under_replicated();
        assert_eq!(under.len(), lost);
        // Re-replicate each onto some alive non-holder.
        for b in under {
            let holders = nn.locations(b).unwrap();
            let target = (0..4)
                .map(NodeId)
                .find(|n| nn.is_alive(*n) && !holders.contains(n))
                .unwrap();
            nn.add_replica(b, target).unwrap();
        }
        assert!(nn.under_replicated().is_empty());
    }

    #[test]
    fn add_replica_is_idempotent_and_validated() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        let b = nn.file_blocks("/f").unwrap()[0].id;
        let n = nn.locations(b).unwrap()[0];
        nn.add_replica(b, n).unwrap(); // already a holder: no-op
        assert_eq!(nn.locations(b).unwrap().len(), 3);
        assert_eq!(
            nn.add_replica(BlockId(999), n),
            Err(DfsError::BlockNotFound(BlockId(999)))
        );
        assert_eq!(
            nn.add_replica(b, NodeId(42)),
            Err(DfsError::UnknownNode(NodeId(42)))
        );
    }

    #[test]
    fn per_block_under_replication_matches_work_list() {
        let (mut nn, mut rng) = namenode(4);
        nn.create_file("/f", 128 * MIB, &mut rng).unwrap();
        let victim = (0..4)
            .map(NodeId)
            .find(|n| !nn.blocks_on(*n).is_empty())
            .unwrap();
        nn.mark_dead(victim).unwrap();
        for b in nn.under_replicated() {
            assert!(nn.is_under_replicated(b));
        }
        assert!(!nn.is_under_replicated(BlockId(999)));
        nn.mark_alive(victim).unwrap();
        assert!(nn.under_replicated().is_empty());
        assert!(nn.blocks_without_alive_replica().is_empty());
    }

    #[test]
    fn fully_dead_blocks_are_reported_lost() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/f", MIB, &mut rng).unwrap();
        for n in 0..3 {
            nn.mark_dead(NodeId(n)).unwrap();
        }
        assert_eq!(nn.blocks_without_alive_replica().len(), 1);
        // A returning node makes the block readable again.
        nn.mark_alive(NodeId(0)).unwrap();
        assert!(nn.blocks_without_alive_replica().is_empty());
    }

    #[test]
    fn zero_byte_file_has_no_blocks() {
        let (mut nn, mut rng) = namenode(3);
        nn.create_file("/empty", 0, &mut rng).unwrap();
        assert!(nn.file_blocks("/empty").unwrap().is_empty());
    }
}
