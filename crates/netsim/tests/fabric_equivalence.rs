//! Busy-NIC index equivalence: [`Fabric`] visits only NICs with active
//! flows, and must behave exactly like a fabric that scans every NIC on
//! every call. A reference scanning fabric and the real one are driven
//! through the same random `start`/`cancel`/`advance` sequences — about
//! 200 NICs, fan-in concentrated on a few hot receivers, many seeds — and
//! must return identical completion lists (order, `finished`, ids) and
//! identical `next_event`s at every step, including after both are cloned
//! mid-sequence and the clones continue on their own.

use std::collections::BTreeMap;

use ignem_netsim::{Fabric, NetConfig, NodeId, TransferDone, TransferId};
use ignem_simcore::flow::{FlowId, FlowResource};
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::{SimDuration, SimTime};
use ignem_simcore::units::MB;

const NICS: usize = 200;
const HOT_RECEIVERS: [u32; 3] = [7, 64, 191];
const SEEDS: u64 = 24;
const STEPS: usize = 1_000;

/// The fabric without a busy-NIC index: `next_event` and `advance` visit
/// all NICs, idle ones included.
#[derive(Clone)]
struct ScanFabric {
    latency: SimDuration,
    downlinks: Vec<FlowResource>,
    inflight: BTreeMap<TransferId, (NodeId, NodeId, u64, SimTime)>,
}

impl ScanFabric {
    fn new(nodes: usize, config: NetConfig) -> Self {
        ScanFabric {
            latency: config.latency,
            downlinks: (0..nodes)
                .map(|_| FlowResource::new(config.nic_bandwidth, 0.0))
                .collect(),
            inflight: BTreeMap::new(),
        }
    }

    fn start(
        &mut self,
        now: SimTime,
        id: TransferId,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Vec<TransferDone> {
        self.inflight.insert(id, (from, to, bytes, now));
        let done = self.downlinks[to.0 as usize].add(now, FlowId(id.0), bytes as f64, self.latency);
        self.collect(to, done)
    }

    fn cancel(&mut self, now: SimTime, id: TransferId) -> Vec<TransferDone> {
        let Some(&(_, to, _, _)) = self.inflight.get(&id) else {
            return Vec::new();
        };
        let done = self.downlinks[to.0 as usize].cancel(now, FlowId(id.0));
        self.inflight.remove(&id);
        self.collect(to, done)
    }

    fn next_event(&self) -> Option<SimTime> {
        self.downlinks.iter().filter_map(|n| n.next_event()).min()
    }

    fn advance(&mut self, now: SimTime) -> Vec<TransferDone> {
        let mut out = Vec::new();
        for i in 0..self.downlinks.len() {
            let t = now.max(self.downlinks[i].clock());
            let done = self.downlinks[i].advance(t);
            out.extend(self.collect(NodeId(i as u32), done));
        }
        out.sort_by_key(|t| (t.finished, t.id));
        out
    }

    fn collect(&mut self, nic: NodeId, flows: Vec<FlowId>) -> Vec<TransferDone> {
        let finished = self.downlinks[nic.0 as usize].clock();
        flows
            .into_iter()
            .map(|fid| {
                let id = TransferId(fid.0);
                #[expect(
                    clippy::expect_used,
                    reason = "test helper: a missing value fails the test"
                )]
                let (from, to, bytes, started) = self.inflight.remove(&id).expect("known transfer");
                TransferDone {
                    id,
                    from,
                    to,
                    bytes,
                    started,
                    finished,
                }
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Start {
        at: SimTime,
        id: TransferId,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    },
    Cancel {
        at: SimTime,
        id: TransferId,
    },
    Advance {
        at: SimTime,
    },
}

/// Draws the next operation against the fabric's current state, the way
/// the world drives it: nothing happens after the earliest pending
/// completion until a net timer advances to it, and cancels land clear of
/// any completion instant.
fn next_op(
    rng: &mut SimRng,
    net: &Fabric,
    now: &mut SimTime,
    next_id: &mut u64,
    issued: &[TransferId],
) -> Op {
    let ne = net.next_event();
    let roll = rng.index(100);
    if let (Some(t), true) = (ne, roll < 50) {
        *now = t;
        return Op::Advance { at: t };
    }
    let mut at = *now + SimDuration::from_micros(rng.index(3_000) as u64);
    if let Some(t) = ne {
        at = at.min(t);
    }
    if roll < 80 {
        *now = at;
        let to = if rng.index(10) < 6 {
            NodeId(HOT_RECEIVERS[rng.index(HOT_RECEIVERS.len())])
        } else {
            NodeId(rng.index(NICS) as u32)
        };
        let mut from = NodeId(rng.index(NICS) as u32);
        if from == to {
            from = NodeId((to.0 + 1) % NICS as u32);
        }
        let id = TransferId(*next_id);
        *next_id += 1;
        let bytes = 1 + rng.index(40 * MB as usize) as u64;
        return Op::Start {
            at,
            id,
            from,
            to,
            bytes,
        };
    }
    // Cancels stay 5 µs clear of the earliest completion so no flow is
    // cancelled in the same instant it finishes.
    let margin = SimDuration::from_micros(5);
    if roll < 92 && ne.is_none_or(|t| at + margin < t) && !issued.is_empty() {
        *now = at;
        // Mostly live or finished ids; sometimes one never issued.
        let id = if rng.index(8) == 0 {
            TransferId(*next_id + 1_000)
        } else {
            issued[rng.index(issued.len())]
        };
        return Op::Cancel { at, id };
    }
    *now = at;
    Op::Advance { at }
}

fn apply(net: &mut Fabric, op: Op) -> Vec<TransferDone> {
    match op {
        Op::Start {
            at,
            id,
            from,
            to,
            bytes,
        } => net.start(at, id, from, to, bytes),
        Op::Cancel { at, id } => net.cancel(at, id),
        Op::Advance { at } => net.advance(at),
    }
}

fn apply_ref(net: &mut ScanFabric, op: Op) -> Vec<TransferDone> {
    match op {
        Op::Start {
            at,
            id,
            from,
            to,
            bytes,
        } => net.start(at, id, from, to, bytes),
        Op::Cancel { at, id } => net.cancel(at, id),
        Op::Advance { at } => net.advance(at),
    }
}

/// Applies `op` to both fabrics and asserts they agree on its result and
/// on the state it leaves behind. Returns the completions.
fn step(net: &mut Fabric, reference: &mut ScanFabric, op: Op, ctx: &str) -> Vec<TransferDone> {
    let got = apply(net, op);
    let want = apply_ref(reference, op);
    assert_eq!(got, want, "{ctx}: completions differ after {op:?}");
    assert_eq!(
        net.next_event(),
        reference.next_event(),
        "{ctx}: next_event differs after {op:?}"
    );
    assert_eq!(
        net.in_flight(),
        reference.inflight.len(),
        "{ctx}: in-flight"
    );
    got
}

#[test]
fn busy_nic_index_matches_full_scan() {
    let config = NetConfig::default();
    let mut completions = 0usize;
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(0xfab_0000 + seed);
        let mut net = Fabric::new(NICS, config);
        let mut reference = ScanFabric::new(NICS, config);
        let mut now = SimTime::ZERO;
        let mut next_id = 1;
        let mut issued = Vec::new();
        let fork_at = STEPS / 2 + rng.index(STEPS / 4);
        let mut forked = None;
        let mut history = Vec::new();
        for i in 0..STEPS {
            if i == fork_at {
                forked = Some((net.clone(), reference.clone(), rng.clone(), now, next_id));
            }
            let op = next_op(&mut rng, &net, &mut now, &mut next_id, &issued);
            if let Op::Start { id, .. } = op {
                issued.push(id);
            }
            let ctx = format!("seed {seed} step {i}");
            let done = step(&mut net, &mut reference, op, &ctx);
            completions += done.len();
            if i >= fork_at {
                history.push(done);
            }
        }

        // The clones continue from the fork point on their own: they must
        // still agree with each other, and replay the originals' history.
        let (mut net2, mut ref2, mut rng2, mut now2, mut next2) = forked.expect("fork taken");
        let mut issued2: Vec<TransferId> =
            issued.iter().copied().filter(|id| id.0 < next2).collect();
        for i in fork_at..STEPS {
            let op = next_op(&mut rng2, &net2, &mut now2, &mut next2, &issued2);
            if let Op::Start { id, .. } = op {
                issued2.push(id);
            }
            let done = step(
                &mut net2,
                &mut ref2,
                op,
                &format!("seed {seed} clone step {i}"),
            );
            assert_eq!(done, history[i - fork_at], "seed {seed}: clone step {i}");
        }
        assert_eq!(issued2, issued, "seed {seed}: clone replays the same ops");
        assert_eq!(net2.next_event(), net.next_event(), "seed {seed}: clone");
        assert_eq!(net2.in_flight(), net.in_flight(), "seed {seed}: clone");

        // Drain both to the end.
        while let Some(t) = net.next_event() {
            completions += step(&mut net, &mut reference, Op::Advance { at: t }, "drain").len();
        }
        assert_eq!(net.in_flight(), 0);
    }
    assert!(completions > 5_000, "only {completions} completions");
}
