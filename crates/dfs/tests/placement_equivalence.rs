//! Placement equivalence: the NameNode's dense tables and maintained
//! alive list must place replicas exactly as a plain `BTreeMap` model
//! that rebuilds the ascending alive list for every file and
//! Fisher–Yates-shuffles it per block.
//!
//! Random register / crash / recover / create / re-replicate / delete
//! sequences over 64 nodes drive both side by side from the same seed.
//! After every step the replicas of every block, the liveness view, the
//! re-replication work lists and the remaining RNG state must agree. No
//! benchmark workload crashes nodes at scale, so this is what shows that
//! dead and returning nodes keep placement bit-identical.

use std::collections::BTreeMap;

use ignem_dfs::block::split_into_blocks;
use ignem_dfs::{BlockId, BlockInfo, DfsConfig, DfsError, NameNode};
use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;

const NODES: u32 = 64;
const SEEDS: u64 = 12;
const STEPS: usize = 300;
const CONFIG: DfsConfig = DfsConfig {
    block_size: 64,
    replication: 3,
};

/// The reference NameNode: liveness in a `BTreeMap`, the ascending
/// alive list rebuilt for every file.
#[derive(Default)]
struct Reference {
    alive: BTreeMap<NodeId, bool>,
    /// Every replica holder of each block, dead or alive, in placement
    /// order.
    blocks: BTreeMap<BlockId, (u64, Vec<NodeId>)>,
    files: BTreeMap<String, Vec<BlockId>>,
    next_block: u64,
}

impl Reference {
    fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(&node).copied().unwrap_or(false)
    }

    fn alive_nodes(&self) -> Vec<NodeId> {
        self.alive
            .iter()
            .filter(|(_, &a)| a)
            .map(|(&n, _)| n)
            .collect()
    }

    fn set_alive(&mut self, node: NodeId, alive: bool) -> Result<(), DfsError> {
        match self.alive.get_mut(&node) {
            Some(a) => {
                *a = alive;
                Ok(())
            }
            None => Err(DfsError::UnknownNode(node)),
        }
    }

    fn create_file(&mut self, path: &str, bytes: u64, rng: &mut SimRng) -> Result<(), DfsError> {
        if self.files.contains_key(path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        let mut candidates = self.alive_nodes();
        if candidates.is_empty() {
            return Err(DfsError::NoAliveNodes);
        }
        let mut ids = Vec::new();
        for size in split_into_blocks(bytes, CONFIG.block_size) {
            let id = BlockId(self.next_block);
            self.next_block += 1;
            rng.shuffle(&mut candidates);
            let replicas = candidates.iter().take(CONFIG.replication).copied();
            self.blocks.insert(id, (size, replicas.collect()));
            ids.push(id);
        }
        self.files.insert(path.to_string(), ids);
        Ok(())
    }

    fn add_replica(&mut self, block: BlockId, node: NodeId) -> Result<(), DfsError> {
        if !self.alive.contains_key(&node) {
            return Err(DfsError::UnknownNode(node));
        }
        let (_, replicas) = self
            .blocks
            .get_mut(&block)
            .ok_or(DfsError::BlockNotFound(block))?;
        if !replicas.contains(&node) {
            replicas.push(node);
        }
        Ok(())
    }

    fn delete_file(&mut self, path: &str) -> Result<(), DfsError> {
        let ids = self
            .files
            .remove(path)
            .ok_or_else(|| DfsError::FileNotFound(path.to_string()))?;
        for b in ids {
            self.blocks.remove(&b);
        }
        Ok(())
    }

    fn locations(&self, block: BlockId) -> Vec<NodeId> {
        self.blocks[&block]
            .1
            .iter()
            .copied()
            .filter(|&n| self.is_alive(n))
            .collect()
    }

    fn under_replicated(&self) -> Vec<BlockId> {
        let target = CONFIG.replication.min(self.alive_nodes().len());
        self.blocks
            .keys()
            .copied()
            .filter(|&b| {
                let alive = self.locations(b).len();
                alive > 0 && alive < target
            })
            .collect()
    }

    fn blocks_without_alive_replica(&self) -> Vec<BlockId> {
        self.blocks
            .keys()
            .copied()
            .filter(|&b| self.locations(b).is_empty())
            .collect()
    }
}

/// Asserts every observable of the two namespaces agrees.
fn assert_same(nn: &NameNode, reference: &Reference, context: &str) {
    assert_eq!(nn.alive_nodes(), reference.alive_nodes(), "{context}");
    for n in 0..NODES {
        let node = NodeId(n);
        assert_eq!(nn.is_alive(node), reference.is_alive(node), "{context}");
        // Every block with a replica on the node, dead or alive: together
        // with `locations` this pins each block's full replica set.
        let on: Vec<BlockId> = nn.blocks_on(node).iter().map(|b| b.id).collect();
        let want: Vec<BlockId> = reference
            .blocks
            .iter()
            .filter(|(_, (_, r))| r.contains(&node))
            .map(|(&b, _)| b)
            .collect();
        assert_eq!(on, want, "{context}: blocks on {node}");
    }
    assert_eq!(nn.block_count(), reference.blocks.len(), "{context}");
    assert_eq!(nn.file_count(), reference.files.len(), "{context}");
    for (path, ids) in &reference.files {
        let want: Vec<BlockInfo> = ids
            .iter()
            .map(|&id| BlockInfo {
                id,
                bytes: reference.blocks[&id].0,
            })
            .collect();
        assert_eq!(nn.file_blocks(path), Ok(want), "{context}: {path}");
    }
    for &b in reference.blocks.keys() {
        assert_eq!(
            nn.locations(b),
            Ok(reference.locations(b)),
            "{context}: {b}"
        );
    }
    let under = reference.under_replicated();
    assert_eq!(nn.under_replicated(), under, "{context}");
    for &b in reference.blocks.keys() {
        assert_eq!(nn.is_under_replicated(b), under.contains(&b), "{context}");
    }
    assert_eq!(
        nn.blocks_without_alive_replica(),
        reference.blocks_without_alive_replica(),
        "{context}"
    );
}

#[test]
fn dense_namenode_places_like_the_btreemap_reference() {
    for seed in 0..SEEDS {
        // `ops` draws the script; the two placement streams start equal
        // and must stay equal.
        let mut ops = SimRng::new(0xD15C_0000 + seed);
        let mut nn_rng = SimRng::new(seed);
        let mut ref_rng = SimRng::new(seed);
        let mut nn = NameNode::new(CONFIG);
        let mut reference = Reference::default();
        for step in 0..STEPS {
            let node = NodeId(ops.index(NODES as usize) as u32);
            // A small path pool makes duplicate creates and deletes of
            // live files common.
            let path = format!("/f{}", ops.index(24));
            let op = ops.index(100);
            let context = format!("seed {seed} step {step} op {op}");
            match op {
                0..=19 => {
                    nn.register_node(node);
                    reference.alive.insert(node, true);
                }
                20..=34 => assert_eq!(
                    nn.mark_dead(node),
                    reference.set_alive(node, false),
                    "{context}"
                ),
                35..=49 => assert_eq!(
                    nn.mark_alive(node),
                    reference.set_alive(node, true),
                    "{context}"
                ),
                50..=79 => {
                    let bytes = ops.index(6 * CONFIG.block_size as usize) as u64;
                    assert_eq!(
                        nn.create_file(&path, bytes, &mut nn_rng).map(|_| ()),
                        reference.create_file(&path, bytes, &mut ref_rng),
                        "{context}"
                    );
                }
                80..=94 => {
                    // Mostly live blocks, sometimes one past the end.
                    let block = BlockId(ops.index(reference.next_block as usize + 2) as u64);
                    assert_eq!(
                        nn.add_replica(block, node),
                        reference.add_replica(block, node),
                        "{context}"
                    );
                }
                _ => assert_eq!(
                    nn.delete_file(&path),
                    reference.delete_file(&path),
                    "{context}"
                ),
            }
            assert_same(&nn, &reference, &context);
            assert_eq!(nn_rng, ref_rng, "{context}: rng state");
        }
        assert!(
            reference.blocks.len() > 20,
            "seed {seed}: script placed too few blocks to test anything"
        );
    }
}
