//! Microbenchmarks of the substrate data structures: the costs that bound
//! how large a cluster/workload the simulator can handle.
//!
//! A minimal self-contained harness (`harness = false`) keeps the build
//! free of external crates: the repository must compile fully offline.

use std::hint::black_box;

use ignem_bench::wall_clock;

use ignem_core::command::{EvictionMode, JobId, MigrateCommand, MigrateRequest};
use ignem_core::master::IgnemMaster;
use ignem_core::policy::Policy;
use ignem_core::slave::{IgnemConfig, IgnemSlave, SlaveAction};
use ignem_dfs::block::BlockId;
use ignem_dfs::namenode::{DfsConfig, NameNode};
use ignem_netsim::NodeId;
use ignem_simcore::event::Engine;
use ignem_simcore::flow::{FlowId, FlowResource};
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::{SimDuration, SimTime};
use ignem_storage::memstore::{MemStore, Residency};

const ITERS: u32 = 20;

fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    black_box(f()); // warm-up
    let start = wall_clock();
    for _ in 0..ITERS {
        black_box(f());
    }
    let per_us = start.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
    println!("{name:<44} {per_us:>12.1} us/iter ({ITERS} iters)");
}

fn bench_engine_throughput() {
    bench("engine_schedule_pop_10k", || {
        let mut e: Engine<u64> = Engine::new(0);
        for i in 0..10_000u64 {
            e.schedule_at(SimTime::from_micros(i * 7 % 10_000), i);
        }
        let mut sum = 0u64;
        while let Some(v) = e.pop() {
            sum = sum.wrapping_add(v);
        }
        sum
    });
    // The queue depth real worlds carry: 80 pending events at 1,024
    // nodes, 95 at 12,288. Each pop reschedules its event 1 µs–16 ms
    // ahead, so the depth holds at 96 for the whole run.
    bench("engine_steady_96_pending", || {
        let mut e: Engine<u64> = Engine::new(0);
        for i in 0..96u64 {
            e.schedule_at(SimTime::from_micros(i), i);
        }
        let mut sum = 0u64;
        for i in 0..1_000_000u64 {
            let Some(v) = e.pop() else { break };
            sum = sum.wrapping_add(v);
            let delay = 1 + (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 50);
            e.schedule_in(SimDuration::from_micros(delay), v);
        }
        sum
    });
}

fn bench_flow_resource() {
    bench("flow_resource_64_concurrent", || {
        let mut r = FlowResource::new(140e6, 0.5);
        for i in 0..64u64 {
            r.add(
                SimTime::ZERO,
                FlowId(i),
                (1 + i) as f64 * 1e6,
                SimDuration::from_millis(8),
            );
        }
        let mut done = 0;
        while let Some(t) = r.next_event() {
            done += r.advance(t).len();
        }
        done
    });
}

fn bench_namenode_placement() {
    bench("namenode_create_1000_blocks", || {
        let mut nn = NameNode::new(DfsConfig::default());
        for n in 0..8 {
            nn.register_node(NodeId(n));
        }
        let mut rng = SimRng::new(1);
        nn.create_file("/big", 1000 * (64 << 20), &mut rng).unwrap();
        nn.block_count()
    });
}

fn bench_slave_queue() {
    for (name, policy) in [
        ("smallest_job_first", Policy::SmallestJobFirst),
        ("fifo", Policy::Fifo),
    ] {
        bench(&format!("slave_queue_drain_500/{name}"), || {
            let mut slave = IgnemSlave::new(
                NodeId(0),
                IgnemConfig {
                    policy,
                    ..IgnemConfig::default()
                },
            );
            let mut mem: MemStore<BlockId> = MemStore::new(1 << 40);
            let cmds: Vec<MigrateCommand> = (0..500u64)
                .map(|i| MigrateCommand {
                    job: JobId(i % 50),
                    block: BlockId(i),
                    bytes: 64 << 20,
                    mode: EvictionMode::Explicit,
                    job_input_bytes: (i % 50 + 1) * (64 << 20),
                    submitted: SimTime::from_micros(i),
                })
                .collect();
            let mut actions = slave.enqueue(SimTime::ZERO, cmds, &mut mem);
            let mut migrated = 0;
            let mut clock = 1u64;
            while let Some(SlaveAction::StartRead { block, .. }) = actions
                .iter()
                .find(|a| matches!(a, SlaveAction::StartRead { .. }))
                .cloned()
            {
                migrated += 1;
                actions = slave.on_read_done(SimTime::from_secs(clock), block, &mut mem);
                clock += 1;
                // Keep the buffer from filling: evict each job as soon
                // as its block lands.
                if mem.available() < (64 << 20) {
                    for j in 0..50 {
                        slave.on_evict_job(SimTime::from_secs(clock), JobId(j), &mut mem);
                    }
                }
            }
            migrated
        });
    }
}

fn bench_master_scalability() {
    // §III-A6: "Can Ignem scale?" — the master's per-request work is file →
    // block resolution + replica choice + batching. Measure a 1000-block
    // migrate request against a populated namespace.
    let mut nn = NameNode::new(DfsConfig::default());
    for n in 0..64 {
        nn.register_node(NodeId(n));
    }
    let mut rng = SimRng::new(1);
    for i in 0..10 {
        nn.create_file(&format!("/warehouse/table-{i}"), 100 * (64 << 20), &mut rng)
            .unwrap();
    }
    bench("master_migrate_1000_blocks", || {
        let mut master = IgnemMaster::new();
        let req = MigrateRequest {
            job: JobId(1),
            files: (0..10).map(|i| format!("/warehouse/table-{i}")).collect(),
            mode: EvictionMode::Explicit,
            submitted: SimTime::ZERO,
        };
        let batches = master.handle_migrate(&req, &nn, &mut rng).unwrap();
        batches.len()
    });
}

fn bench_memstore() {
    bench("memstore_insert_remove_1000", || {
        let mut m: MemStore<u64> = MemStore::new(1 << 40);
        for i in 0..1000u64 {
            m.insert(SimTime::from_micros(i), i, 64 << 20, Residency::Migrated)
                .unwrap();
        }
        for i in 0..1000u64 {
            m.remove(SimTime::from_micros(1000 + i), &i);
        }
        m.len()
    });
}

fn main() {
    bench_engine_throughput();
    bench_flow_resource();
    bench_namenode_placement();
    bench_slave_queue();
    bench_master_scalability();
    bench_memstore();
}
