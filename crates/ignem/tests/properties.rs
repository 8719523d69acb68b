//! Randomized (deterministic, seeded) tests for Ignem's buffer-leak-freedom
//! and consistency invariants (paper §III-A4: "How does Ignem avoid memory
//! leaks in its migration buffer?"), plus directed recovery-path tests:
//! master failover, slave restart mid-migration, and duplicate command
//! delivery (an unreliable RPC channel may retransmit).

use ignem_core::command::{EvictionMode, JobId, MigrateCommand};
use ignem_core::policy::Policy;
use ignem_core::slave::{IgnemConfig, IgnemSlave, SlaveAction};
use ignem_dfs::block::BlockId;
use ignem_netsim::rpc::Epoch;
use ignem_netsim::NodeId;
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::SimTime;
use ignem_storage::memstore::MemStore;

const MIB: u64 = 1 << 20;
const B64: u64 = 64 * MIB;
const CASES: u64 = 64;

/// A randomly generated slave interaction step.
#[derive(Debug, Clone)]
enum Step {
    Migrate { job: u64, block: u64, input: u64 },
    CompleteRead,
    EvictJob { job: u64 },
    ReadBlock { job: u64, block: u64 },
    MasterFail,
}

/// Mirrors the old proptest weights (4/4/2/2/1) with a seeded generator.
fn gen_steps(rng: &mut SimRng) -> Vec<Step> {
    let n = 1 + rng.index(59);
    (0..n)
        .map(|_| match rng.index(13) {
            0..=3 => Step::Migrate {
                job: rng.next_u64() % 6,
                block: rng.next_u64() % 12,
                input: (1 + rng.next_u64() % 49) * B64,
            },
            4..=7 => Step::CompleteRead,
            8..=9 => Step::EvictJob {
                job: rng.next_u64() % 6,
            },
            10..=11 => Step::ReadBlock {
                job: rng.next_u64() % 6,
                block: rng.next_u64() % 12,
            },
            _ => Step::MasterFail,
        })
        .collect()
}

fn tight_slave(policy: Policy) -> (IgnemSlave, MemStore<BlockId>) {
    let slave = IgnemSlave::new(
        NodeId(0),
        IgnemConfig {
            buffer_capacity: 4 * B64, // tight, to exercise blocking
            cleanup_threshold: 0.5,
            policy,
            ..IgnemConfig::default()
        },
    );
    let mem: MemStore<BlockId> = MemStore::new(8 * B64);
    (slave, mem)
}

/// Drives a slave through an arbitrary interaction sequence, mirroring what
/// the cluster layer would do, while checking invariants at each step.
fn run_steps(seed: u64, steps: Vec<Step>, policy: Policy, implicit: bool) {
    let (mut slave, mut mem) = tight_slave(policy);
    let mut in_flight: Option<BlockId> = None;
    let mut cancelled = false;
    let mut clock = 0u64;
    let mode = if implicit {
        EvictionMode::Implicit
    } else {
        EvictionMode::Explicit
    };

    let handle =
        |actions: Vec<SlaveAction>, in_flight: &mut Option<BlockId>, cancelled: &mut bool| {
            for a in actions {
                match a {
                    SlaveAction::StartRead { block, .. } => {
                        assert!(in_flight.is_none(), "two concurrent migration reads");
                        *in_flight = Some(block);
                        *cancelled = false;
                    }
                    SlaveAction::CancelRead { block } => {
                        assert_eq!(*in_flight, Some(block));
                        *in_flight = None;
                        *cancelled = true;
                    }
                    SlaveAction::QueryJobLiveness { .. } => {}
                }
            }
        };

    for step in steps {
        clock += 1;
        let now = SimTime::from_secs(clock);
        let actions = match step {
            Step::Migrate { job, block, input } => slave.enqueue(
                now,
                vec![MigrateCommand {
                    job: JobId(job),
                    block: BlockId(block),
                    bytes: B64,
                    mode,
                    job_input_bytes: input,
                    submitted: now,
                }],
                &mut mem,
            ),
            Step::CompleteRead => match in_flight.take() {
                Some(block) => slave.on_read_done(now, block, &mut mem),
                None => continue,
            },
            Step::EvictJob { job } => slave.on_evict_job(now, JobId(job), &mut mem),
            Step::ReadBlock { job, block } => {
                slave.on_block_read(now, BlockId(block), JobId(job), &mut mem)
            }
            Step::MasterFail => {
                let next = slave.epoch().next();
                slave.on_master_failed(now, next, &mut mem)
            }
        };
        handle(actions, &mut in_flight, &mut cancelled);

        // INVARIANT: one migration at a time.
        assert_eq!(slave.is_migrating(), in_flight.is_some(), "seed {seed}");
        // INVARIANT: every resident migrated block has a non-empty ref list.
        assert_eq!(
            mem.migrated_used() as usize / B64 as usize,
            count_ref_blocks(&slave),
            "seed {seed}: resident migrated blocks must equal ref-listed blocks"
        );
        // INVARIANT: migrated bytes never exceed the configured budget.
        assert!(mem.migrated_used() <= 4 * B64, "seed {seed}");
    }

    // Drain: finish any in-flight read, then evict every job. The buffer
    // must come back to zero — no leaks.
    clock += 1;
    if let Some(block) = in_flight.take() {
        let a = slave.on_read_done(SimTime::from_secs(clock), block, &mut mem);
        handle(a, &mut in_flight, &mut cancelled);
        // Completion may start another; keep finishing.
        while let Some(b) = in_flight.take() {
            clock += 1;
            let a = slave.on_read_done(SimTime::from_secs(clock), b, &mut mem);
            handle(a, &mut in_flight, &mut cancelled);
        }
    }
    for job in 0..6u64 {
        clock += 1;
        let a = slave.on_evict_job(SimTime::from_secs(clock), JobId(job), &mut mem);
        handle(a, &mut in_flight, &mut cancelled);
        while let Some(b) = in_flight.take() {
            clock += 1;
            let a = slave.on_read_done(SimTime::from_secs(clock), b, &mut mem);
            handle(a, &mut in_flight, &mut cancelled);
        }
    }
    assert_eq!(
        mem.migrated_used(),
        0,
        "seed {seed}: migration buffer leaked"
    );
}

fn count_ref_blocks(slave: &IgnemSlave) -> usize {
    // Resident blocks are exactly those with a reference list; probe the
    // visible block-id space.
    (0..12u64)
        .filter(|&b| slave.references(BlockId(b)).is_some())
        .count()
}

#[test]
fn no_leak_explicit_sjf() {
    for seed in 0..CASES {
        let steps = gen_steps(&mut SimRng::new(0x16E3_0001 ^ seed));
        run_steps(seed, steps, Policy::SmallestJobFirst, false);
    }
}

#[test]
fn no_leak_implicit_sjf() {
    for seed in 0..CASES {
        let steps = gen_steps(&mut SimRng::new(0x16E3_0002 ^ seed));
        run_steps(seed, steps, Policy::SmallestJobFirst, true);
    }
}

#[test]
fn no_leak_explicit_fifo() {
    for seed in 0..CASES {
        let steps = gen_steps(&mut SimRng::new(0x16E3_0003 ^ seed));
        run_steps(seed, steps, Policy::Fifo, false);
    }
}

// ---------------------------------------------------------------------------
// Directed recovery-path tests
// ---------------------------------------------------------------------------

fn cmd(job: u64, block: u64, input_blocks: u64) -> MigrateCommand {
    MigrateCommand {
        job: JobId(job),
        block: BlockId(block),
        bytes: B64,
        mode: EvictionMode::Explicit,
        job_input_bytes: input_blocks * B64,
        submitted: SimTime::ZERO,
    }
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a missing value fails the test"
)]
fn start_one_migration(slave: &mut IgnemSlave, mem: &mut MemStore<BlockId>) -> BlockId {
    let actions = slave.enqueue(SimTime::ZERO, vec![cmd(1, 1, 4), cmd(1, 2, 4)], mem);
    let started = actions
        .iter()
        .find_map(|a| match a {
            SlaveAction::StartRead { block, .. } => Some(*block),
            _ => None,
        })
        .expect("migration must start");
    started
}

/// A master failure with a migration read in flight must cancel that IO and
/// leave no orphaned in-flight state, queued work, or resident bytes.
#[test]
fn master_failure_orphans_no_inflight_io() {
    let (mut slave, mut mem) = tight_slave(Policy::SmallestJobFirst);
    let started = start_one_migration(&mut slave, &mut mem);
    assert!(slave.is_migrating());

    let actions = slave.on_master_failed(SimTime::from_secs(1), Epoch(2), &mut mem);
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, SlaveAction::CancelRead { block } if *block == started)),
        "in-flight migration IO must be cancelled, not orphaned"
    );
    assert!(!slave.is_migrating());
    assert_eq!(slave.queue_len(), 0, "queued commands must be purged");
    assert_eq!(mem.migrated_used(), 0, "purge must reclaim the buffer");
    assert_eq!(count_ref_blocks(&slave), 0, "no dangling reference lists");

    // A completion for the cancelled read must never be delivered by the
    // cluster layer; the slave has forgotten the block entirely.
    assert!(slave.references(started).is_none());
}

/// A slave restart (process failure) mid-migration discards migrated bytes
/// and cancels the in-flight read; nothing leaks across the restart.
#[test]
fn slave_restart_mid_migration_leaks_nothing() {
    let (mut slave, mut mem) = tight_slave(Policy::SmallestJobFirst);
    // Land one block, then get a second in flight.
    let first = start_one_migration(&mut slave, &mut mem);
    let actions = slave.on_read_done(SimTime::from_secs(1), first, &mut mem);
    let second = actions
        .iter()
        .find_map(|a| match a {
            SlaveAction::StartRead { block, .. } => Some(*block),
            _ => None,
        })
        .expect("second migration must start");
    assert_eq!(mem.migrated_used(), B64);

    let actions = slave.fail(SimTime::from_secs(2), &mut mem);
    assert!(
        actions
            .iter()
            .any(|a| matches!(a, SlaveAction::CancelRead { block } if *block == second)),
        "restart must cancel the in-flight read"
    );
    assert_eq!(mem.migrated_used(), 0, "restart must drop migrated bytes");
    assert_eq!(slave.queue_len(), 0);
    assert!(!slave.is_migrating());
    assert_eq!(count_ref_blocks(&slave), 0);
}

// ---------------------------------------------------------------------------
// Duplicate-delivery idempotency (unreliable RPC may retransmit a batch)
// ---------------------------------------------------------------------------

/// Re-delivering a migrate command for a block that is already queued must
/// not enqueue a second waiter: a later eviction of the job must fully
/// release the block.
#[test]
fn duplicate_migrate_while_queued_is_idempotent() {
    let (mut slave, mut mem) = tight_slave(Policy::SmallestJobFirst);
    // Two commands: one starts, the other queues.
    let actions = slave.enqueue(SimTime::ZERO, vec![cmd(1, 1, 4), cmd(1, 2, 4)], &mut mem);
    let started = actions
        .iter()
        .find_map(|a| match a {
            SlaveAction::StartRead { block, .. } => Some(*block),
            _ => None,
        })
        .expect("one migration starts");
    assert_eq!(slave.queue_len(), 1);
    let before = slave.stats().deduped;

    // The master retries: the same batch arrives again.
    slave.enqueue(
        SimTime::from_secs(1),
        vec![cmd(1, 1, 4), cmd(1, 2, 4)],
        &mut mem,
    );
    assert_eq!(slave.queue_len(), 1, "duplicate must not double-enqueue");
    assert!(slave.stats().deduped > before, "duplicates must be counted");

    // Land both blocks, then evict once: everything must come back clean.
    let mut landed = 0;
    let mut block = Some(started);
    let mut clock = 2;
    while let Some(b) = block {
        let actions = slave.on_read_done(SimTime::from_secs(clock), b, &mut mem);
        landed += 1;
        clock += 1;
        block = actions.iter().find_map(|a| match a {
            SlaveAction::StartRead { block, .. } => Some(*block),
            _ => None,
        });
    }
    assert_eq!(landed, 2);
    // Exactly one reference per block despite the duplicate delivery.
    assert_eq!(slave.references(BlockId(1)).map(<[_]>::len), Some(1));
    assert_eq!(slave.references(BlockId(2)).map(<[_]>::len), Some(1));
    slave.on_evict_job(SimTime::from_secs(clock), JobId(1), &mut mem);
    assert_eq!(mem.migrated_used(), 0, "single evict must fully release");
}

/// Re-delivering a migrate command for a block that is already resident must
/// not grow the reference list (which would make the block un-evictable by a
/// single eviction — a buffer leak).
#[test]
fn duplicate_migrate_while_resident_is_idempotent() {
    let (mut slave, mut mem) = tight_slave(Policy::SmallestJobFirst);
    slave.enqueue(SimTime::ZERO, vec![cmd(1, 1, 4)], &mut mem);
    slave.on_read_done(SimTime::from_secs(1), BlockId(1), &mut mem);
    assert_eq!(slave.references(BlockId(1)).map(<[_]>::len), Some(1));

    // Duplicate arrives after the block landed.
    slave.enqueue(SimTime::from_secs(2), vec![cmd(1, 1, 4)], &mut mem);
    assert_eq!(
        slave.references(BlockId(1)).map(<[_]>::len),
        Some(1),
        "duplicate must not corrupt the reference list"
    );

    slave.on_evict_job(SimTime::from_secs(3), JobId(1), &mut mem);
    assert_eq!(mem.migrated_used(), 0);
    assert!(slave.references(BlockId(1)).is_none());
}

/// A duplicate while the block's read is in flight must neither start a
/// second read nor add a second waiter.
#[test]
fn duplicate_migrate_while_in_flight_is_idempotent() {
    let (mut slave, mut mem) = tight_slave(Policy::SmallestJobFirst);
    slave.enqueue(SimTime::ZERO, vec![cmd(1, 1, 4)], &mut mem);
    assert!(slave.is_migrating());

    let actions = slave.enqueue(SimTime::from_secs(1), vec![cmd(1, 1, 4)], &mut mem);
    assert!(
        !actions
            .iter()
            .any(|a| matches!(a, SlaveAction::StartRead { .. })),
        "duplicate must not start a second read"
    );
    assert_eq!(slave.in_flight_migrations(), 1);

    slave.on_read_done(SimTime::from_secs(2), BlockId(1), &mut mem);
    assert_eq!(slave.references(BlockId(1)).map(<[_]>::len), Some(1));
    slave.on_evict_job(SimTime::from_secs(3), JobId(1), &mut mem);
    assert_eq!(mem.migrated_used(), 0, "single evict must fully release");
}

// ---------------------------------------------------------------------------
// Incarnation fencing: crash/restart schedules leave no dead-incarnation state
// ---------------------------------------------------------------------------

/// Property test: across random schedules of sends, deliveries, ack
/// timeouts, and node crash/restart cycles, no reference-list entry, lease,
/// or retransmission-outbox entry belonging to a dead incarnation survives —
/// in the slave (its crash purge is total) or in the master (registration
/// fences every send stamped with the dead incarnation, so their pending
/// timeouts settle as stale instead of retransmitting).
#[test]
fn property_no_dead_incarnation_state_survives_restart() {
    use ignem_core::command::{RpcPayload, SeqNo};
    use ignem_core::master::{IgnemMaster, RetryDecision};
    use ignem_netsim::rpc::Incarnation;
    use ignem_simcore::time::SimDuration;

    const NODES: usize = 3;
    for seed in 0..CASES {
        let mut rng = SimRng::new(0x1CA2_7A71_0000 ^ seed);
        let mut master = IgnemMaster::new();
        let mut slaves: Vec<(IgnemSlave, MemStore<BlockId>)> = (0..NODES)
            .map(|n| {
                let slave = IgnemSlave::new(
                    NodeId(n as u32),
                    IgnemConfig {
                        lease: Some(SimDuration::from_secs(60)),
                        ..IgnemConfig::default()
                    },
                );
                (slave, MemStore::new(8 * B64))
            })
            .collect();
        // In-flight master → slave sends: (seq, node, stamped incarnation).
        let mut outstanding: Vec<(SeqNo, usize, Incarnation)> = Vec::new();
        let mut clock = 0u64;

        for step in 0..150u64 {
            clock += 1;
            let now = SimTime::from_secs(clock);
            let n = rng.index(NODES);
            let node = NodeId(n as u32);
            match rng.index(8) {
                0..=1 => {
                    // Master issues a send; it is stamped with the master's
                    // current belief of the node's incarnation.
                    let job = JobId(rng.next_u64() % 4);
                    let (seq, _timeout) = master.register_send(node, RpcPayload::Evict(job));
                    outstanding.push((seq, n, master.slave_incarnation(node)));
                }
                2..=3 => {
                    // A send is delivered. The slave accepts it iff the stamp
                    // is not from a dead (pre-restart) incarnation.
                    if outstanding.is_empty() {
                        continue;
                    }
                    let i = rng.index(outstanding.len());
                    let (seq, to, stamp) = outstanding.remove(i);
                    let (slave, _mem) = &mut slaves[to];
                    let accepted = slave.observe_incarnation(stamp);
                    assert_eq!(
                        accepted,
                        stamp >= slave.incarnation(),
                        "seed {seed} step {step}: fencing must reject exactly \
                         the stale stamps"
                    );
                    master.on_ack(seq);
                }
                4 => {
                    // An ack timeout fires. Retransmissions keep the stamp of
                    // the original send (the master learns of restarts only
                    // through registration, never through timeouts).
                    if outstanding.is_empty() {
                        continue;
                    }
                    let i = rng.index(outstanding.len());
                    let (seq, to, stamp) = outstanding[i];
                    match master.on_timeout(seq) {
                        RetryDecision::Settled => {
                            outstanding.remove(i);
                        }
                        RetryDecision::Retry {
                            to: rto,
                            incarnation,
                            ..
                        } => {
                            assert_eq!(rto, NodeId(to as u32));
                            assert_eq!(incarnation, stamp, "seed {seed} step {step}");
                        }
                        RetryDecision::GiveUp { .. } => {
                            outstanding.remove(i);
                        }
                    }
                }
                5..=6 => {
                    // The slave does real work so a later crash has refs and
                    // leases to purge; complete reads immediately.
                    let (slave, mem) = &mut slaves[n];
                    let block = rng.next_u64() % 8;
                    let job = rng.next_u64() % 4;
                    let mut started: Vec<BlockId> = slave
                        .enqueue(now, vec![cmd(job, block, 4)], mem)
                        .into_iter()
                        .filter_map(|a| match a {
                            SlaveAction::StartRead { block, .. } => Some(block),
                            _ => None,
                        })
                        .collect();
                    while let Some(b) = started.pop() {
                        for a in slave.on_read_done(now, b, mem) {
                            if let SlaveAction::StartRead { block, .. } = a {
                                started.push(block);
                            }
                        }
                    }
                }
                _ => {
                    // Crash + restart. The crash purge must be total, and a
                    // delivered registration must fence every outstanding
                    // send stamped with the dead incarnation.
                    let (slave, mem) = &mut slaves[n];
                    slave.fail(now, mem);
                    let fresh = slave.restart();
                    assert_eq!(slave.total_references(), 0, "seed {seed} step {step}");
                    assert_eq!(slave.next_lease_expiry(), None, "seed {seed} step {step}");
                    assert_eq!(mem.migrated_used(), 0, "seed {seed} step {step}");
                    // The registration may be lost (lossy channel); the
                    // cluster layer retries it, here we just skip sometimes.
                    if rng.uniform() < 0.75 {
                        assert!(master.handle_register(node, fresh));
                        assert!(
                            !master.handle_register(node, fresh),
                            "duplicate registration must be inert"
                        );
                        outstanding.retain(|&(seq, to, _)| {
                            if to != n {
                                return true;
                            }
                            assert!(
                                matches!(master.on_timeout(seq), RetryDecision::Settled),
                                "seed {seed} step {step}: send to a dead \
                                 incarnation must settle, not retransmit"
                            );
                            false
                        });
                    }
                }
            }
            // INVARIANT: the master never holds an outbox entry stamped with
            // an incarnation it already knows to be dead — registration
            // purges are complete, so every outstanding send carries exactly
            // the master's current belief for its destination.
            for &(_, to, stamp) in &outstanding {
                assert_eq!(
                    stamp,
                    master.slave_incarnation(NodeId(to as u32)),
                    "seed {seed} step {step}: dead-incarnation outbox entry survived"
                );
            }
            for (slave, mem) in &slaves {
                slave
                    .check_consistency(mem)
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            }
        }
    }
}

/// Distinct jobs sharing a block still get one reference each (duplicate
/// suppression must be per-(job, block), not per-block).
#[test]
fn shared_block_across_jobs_keeps_one_ref_per_job() {
    let (mut slave, mut mem) = tight_slave(Policy::SmallestJobFirst);
    slave.enqueue(SimTime::ZERO, vec![cmd(1, 1, 4)], &mut mem);
    slave.enqueue(SimTime::ZERO, vec![cmd(2, 1, 4)], &mut mem);
    // Duplicates of both.
    slave.enqueue(SimTime::ZERO, vec![cmd(1, 1, 4), cmd(2, 1, 4)], &mut mem);
    slave.on_read_done(SimTime::from_secs(1), BlockId(1), &mut mem);
    assert_eq!(slave.references(BlockId(1)).map(<[_]>::len), Some(2));
    slave.on_evict_job(SimTime::from_secs(2), JobId(1), &mut mem);
    assert_eq!(mem.migrated_used(), B64, "job 2 still holds the block");
    slave.on_evict_job(SimTime::from_secs(3), JobId(2), &mut mem);
    assert_eq!(mem.migrated_used(), 0);
}
