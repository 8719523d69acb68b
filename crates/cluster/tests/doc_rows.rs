//! Doc-row cross-check: every telemetry `Event` kind has a row (with its
//! category) in `docs/TELEMETRY_SCHEMA.md`, every `Fault` variant has a
//! row in the DESIGN.md §6 fault list, and no row names a kind or variant
//! that no longer exists.
//!
//! Variants are enumerated by successor functions whose matches have no
//! wildcard arm, so a new variant does not compile until it joins the
//! chain — and then this test fails until its doc row is written.

use std::collections::BTreeMap;

use ignem_cluster::world::Fault;
use ignem_netsim::NodeId;
use ignem_simcore::telemetry::{Event, EventRecord, Peer, ReadClass};
use ignem_simcore::time::{SimDuration, SimTime};

const SCHEMA: &str = include_str!("../../../docs/TELEMETRY_SCHEMA.md");
const DESIGN: &str = include_str!("../../../DESIGN.md");

/// The sample event after `prev`; `None` starts the chain and ends it.
fn next_event(prev: Option<&Event>) -> Option<Event> {
    Some(match prev {
        None => Event::JobSubmitted {
            job: 0,
            name: String::new(),
            plan: 0,
            stage: 0,
        },
        Some(Event::JobSubmitted { .. }) => Event::JobScheduled { job: 0 },
        Some(Event::JobScheduled { .. }) => Event::JobCompleted {
            job: 0,
            duration_us: 0,
        },
        Some(Event::JobCompleted { .. }) => Event::TaskAssigned {
            task: 0,
            job: 0,
            node: 0,
        },
        Some(Event::TaskAssigned { .. }) => Event::TaskStarted {
            task: 0,
            job: 0,
            node: 0,
        },
        Some(Event::TaskStarted { .. }) => Event::TaskFinished {
            task: 0,
            job: 0,
            node: 0,
        },
        Some(Event::TaskFinished { .. }) => Event::TaskSpeculated { task: 0, job: 0 },
        Some(Event::TaskSpeculated { .. }) => Event::BlockRead {
            task: 0,
            job: 0,
            block: 0,
            node: 0,
            bytes: 0,
            class: ReadClass::Memory,
            duration_us: 0,
        },
        Some(Event::BlockRead { .. }) => Event::MigrationRejected {
            job: 0,
            reason: String::new(),
        },
        Some(Event::MigrationRejected { .. }) => Event::MigrationAssigned {
            job: 0,
            block: 0,
            node: 0,
            bytes: 0,
        },
        Some(Event::MigrationAssigned { .. }) => Event::MigrationEnqueued {
            node: 0,
            job: 0,
            block: 0,
            bytes: 0,
        },
        Some(Event::MigrationEnqueued { .. }) => Event::MigrationStarted {
            node: 0,
            block: 0,
            bytes: 0,
        },
        Some(Event::MigrationStarted { .. }) => Event::MigrationCompleted {
            node: 0,
            block: 0,
            bytes: 0,
        },
        Some(Event::MigrationCompleted { .. }) => Event::MigrationWasted {
            node: 0,
            block: 0,
            bytes: 0,
        },
        Some(Event::MigrationWasted { .. }) => Event::MigrationDiscarded { node: 0, block: 0 },
        Some(Event::MigrationDiscarded { .. }) => Event::MigrationCancelled { node: 0, block: 0 },
        Some(Event::MigrationCancelled { .. }) => Event::BlockEvicted {
            node: 0,
            block: 0,
            bytes: 0,
        },
        Some(Event::BlockEvicted { .. }) => Event::RpcSent {
            from: Peer::Master,
            to: Peer::Node(0),
        },
        Some(Event::RpcSent { .. }) => Event::RpcDropped {
            from: Peer::Master,
            to: Peer::Node(0),
        },
        Some(Event::RpcDropped { .. }) => Event::RpcDuplicated {
            from: Peer::Master,
            to: Peer::Node(0),
        },
        Some(Event::RpcDuplicated { .. }) => Event::RpcCut {
            from: Peer::Master,
            to: Peer::Node(0),
        },
        Some(Event::RpcCut { .. }) => Event::RpcRetried {
            seq: 0,
            node: 0,
            attempt: 2,
        },
        Some(Event::RpcRetried { .. }) => Event::RpcAcked { seq: 0 },
        Some(Event::RpcAcked { .. }) => Event::RpcGaveUp { seq: 0, node: 0 },
        Some(Event::RpcGaveUp { .. }) => Event::LeaseExpired { node: 0, job: 0 },
        Some(Event::LeaseExpired { .. }) => Event::EpochRejected {
            node: 0,
            stale: 0,
            current: 1,
        },
        Some(Event::EpochRejected { .. }) => Event::IncarnationRejected {
            node: 0,
            stale: 1,
            current: 2,
        },
        Some(Event::IncarnationRejected { .. }) => Event::NodeCrashed { node: 0 },
        Some(Event::NodeCrashed { .. }) => Event::NodeRestarted {
            node: 0,
            incarnation: 2,
        },
        Some(Event::NodeRestarted { .. }) => Event::SlaveRegistered {
            node: 0,
            incarnation: 2,
        },
        Some(Event::SlaveRegistered { .. }) => Event::BlockReportReceived { node: 0, blocks: 0 },
        Some(Event::BlockReportReceived { .. }) => Event::RereplicationStarted {
            block: 0,
            source: 0,
            target: 1,
            bytes: 0,
        },
        Some(Event::RereplicationStarted { .. }) => Event::RereplicationDeferred {
            block: 0,
            attempt: 1,
        },
        Some(Event::RereplicationDeferred { .. }) => Event::FaultInjected {
            desc: String::new(),
        },
        Some(Event::FaultInjected { .. }) => Event::FaultHealed {
            desc: String::new(),
        },
        Some(Event::FaultHealed { .. }) => return None,
    })
}

/// The sample fault after `prev`; `None` starts the chain and ends it.
fn next_fault(prev: Option<&Fault>) -> Option<Fault> {
    let (n, d) = (NodeId(0), SimDuration::from_secs(1));
    Some(match prev {
        None => Fault::MasterFail,
        Some(Fault::MasterFail) => Fault::SlaveRestart(n),
        Some(Fault::SlaveRestart(_)) => Fault::NodeFail(n),
        Some(Fault::NodeFail(_)) => Fault::KillPlan(0),
        Some(Fault::KillPlan(_)) => Fault::DiskDegrade(n, 50, d),
        Some(Fault::DiskDegrade(..)) => Fault::NodePause(n, d),
        Some(Fault::NodePause(..)) => Fault::Partition(vec![n], d),
        Some(Fault::Partition(..)) => Fault::NodeCrash(n, d),
        Some(Fault::NodeCrash(..)) => return None,
    })
}

fn all<T>(next: impl Fn(Option<&T>) -> Option<T>) -> Vec<T> {
    let mut out = Vec::new();
    while let Some(v) = next(out.last()) {
        out.push(v);
    }
    out
}

/// `kind -> category` from the schema table's rows.
fn schema_rows(doc: &str) -> BTreeMap<String, String> {
    doc.lines()
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            (cells[1].trim_matches('`').to_string(), cells[2].to_string())
        })
        .collect()
}

/// Variant names of the `` * `Variant(args)` `` bullets in DESIGN.md §6.
fn fault_rows(doc: &str) -> BTreeMap<String, String> {
    let Some(start) = doc.find("\n## 6. ") else {
        return BTreeMap::new();
    };
    let end = doc[start + 1..]
        .find("\n## ")
        .map_or(doc.len(), |e| start + 1 + e);
    doc[start..end]
        .lines()
        .filter_map(|l| l.strip_prefix("* `"))
        .map(|l| {
            (
                l.split(['`', '(']).next().unwrap_or("").to_string(),
                String::new(),
            )
        })
        .collect()
}

/// Diffs `name -> tag` pairs from the code against a doc's rows, both ways.
fn diff(code: &BTreeMap<String, String>, doc: &BTreeMap<String, String>) -> Result<(), String> {
    let mut errs = Vec::new();
    for (name, tag) in code {
        match doc.get(name) {
            None => errs.push(format!("`{name}` has no doc row")),
            Some(row) if row != tag => {
                errs.push(format!("`{name}` row says {row}, code says {tag}"))
            }
            Some(_) => {}
        }
    }
    errs.extend(
        doc.keys()
            .filter(|n| !code.contains_key(*n))
            .map(|n| format!("row `{n}` names nothing")),
    );
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

fn event_kinds() -> BTreeMap<String, String> {
    let events = all(next_event);
    let kinds: BTreeMap<String, String> = events
        .iter()
        .map(|e| (e.kind().to_string(), e.category().to_string()))
        .collect();
    assert_eq!(kinds.len(), events.len(), "duplicate kind tags");
    for event in events {
        let kind = event.kind();
        let json = EventRecord {
            seq: 0,
            at: SimTime::ZERO,
            event,
        }
        .to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains(&format!("\"type\":\"{kind}\"")), "{json}");
    }
    kinds
}

fn fault_variants() -> BTreeMap<String, String> {
    all(next_fault)
        .iter()
        .map(|f| {
            (
                format!("{f:?}").split('(').next().unwrap_or("").to_string(),
                String::new(),
            )
        })
        .collect()
}

#[test]
fn telemetry_schema_has_one_row_per_event_kind() {
    diff(&event_kinds(), &schema_rows(SCHEMA)).unwrap();
}

#[test]
fn design_fault_list_has_one_row_per_fault_variant() {
    diff(&fault_variants(), &fault_rows(DESIGN)).unwrap();
}

#[test]
fn doctored_docs_fail_the_check() {
    let drop_line = |doc: &str, needle: &str| -> String {
        doc.lines()
            .filter(|l| !l.contains(needle))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let missing = diff(
        &event_kinds(),
        &schema_rows(&drop_line(SCHEMA, "| `rpc_acked` |")),
    );
    assert!(missing.unwrap_err().contains("`rpc_acked` has no doc row"));
    let stale = format!("{SCHEMA}\n| `rpc_lost` | rpc | `seq` | Retired. |\n");
    assert!(diff(&event_kinds(), &schema_rows(&stale))
        .unwrap_err()
        .contains("row `rpc_lost`"));
    let recategorized = SCHEMA.replace("| `rpc_acked` | rpc |", "| `rpc_acked` | job |");
    assert!(diff(&event_kinds(), &schema_rows(&recategorized)).is_err());
    let no_pause = diff(
        &fault_variants(),
        &fault_rows(&drop_line(DESIGN, "* `NodePause(")),
    );
    assert!(no_pause.unwrap_err().contains("`NodePause` has no doc row"));
    let extra = DESIGN.replace(
        "* `MasterFail` —",
        "* `MasterHang` — hangs.\n* `MasterFail` —",
    );
    assert!(diff(&fault_variants(), &fault_rows(&extra))
        .unwrap_err()
        .contains("row `MasterHang`"));
}
