//! Violation fixtures for the determinism lints (DESIGN.md §8).
//!
//! Compiled only under clippy (`#[cfg(clippy)]` in `lib.rs`) and linted as
//! library code. Every line below breaks one rule and carries an
//! `#[expect]` naming the rule it stands for: if a lint or a
//! `clippy.toml` entry stops firing, its expectation goes unfulfilled and
//! `cargo clippy -- -D warnings` fails.

use std::collections::{HashMap, HashSet};

use crate::idmap::IdMap;

fn d01_wall_clock() {
    #[expect(clippy::disallowed_methods, reason = "fixture: D01")]
    let _ = std::time::Instant::now();
    #[expect(clippy::disallowed_methods, reason = "fixture: D01")]
    #[expect(clippy::disallowed_types, reason = "fixture: D01")]
    let _: std::time::SystemTime = std::time::SystemTime::now();
}

fn d02_hash_iteration(owners: &mut HashMap<u32, u64>, seen: &mut HashSet<u32>) {
    #[expect(clippy::disallowed_methods, reason = "fixture: D02")]
    let _ = owners.iter();
    #[expect(clippy::disallowed_methods, reason = "fixture: D02")]
    let _ = owners.keys();
    #[expect(clippy::disallowed_methods, reason = "fixture: D02")]
    let _ = owners.values();
    #[expect(clippy::disallowed_methods, reason = "fixture: D02")]
    owners.retain(|_, v| *v > 0);
    #[expect(clippy::disallowed_methods, reason = "fixture: D02")]
    let _ = seen.iter();
    #[expect(clippy::disallowed_methods, reason = "fixture: D02")]
    let _ = seen.drain();
    #[expect(clippy::iter_over_hash_type, reason = "fixture: D02")]
    for _ in &*owners {}
}

fn d03_ambient_environment() {
    #[expect(clippy::disallowed_methods, reason = "fixture: D03")]
    let _ = std::env::var("IGNEM_SEED");
    #[expect(clippy::disallowed_methods, reason = "fixture: D03")]
    let _ = std::env::args();
    #[expect(clippy::disallowed_types, reason = "fixture: D03")]
    let _ = std::hash::RandomState::new();
    #[expect(clippy::disallowed_methods, reason = "fixture: D03")]
    std::process::exit(1);
}

fn f01_float_ordering(xs: &mut [f64]) {
    #[expect(clippy::unwrap_used, reason = "fixture: F01")]
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    #[expect(clippy::expect_used, reason = "fixture: F01")]
    let _ = xs.iter().max_by(|a, b| a.partial_cmp(b).expect("finite"));
}

fn p01_fault_path_panics(x: Option<u32>, y: Result<u32, ()>) {
    #[expect(clippy::unwrap_used, reason = "fixture: P01")]
    let _ = x.unwrap();
    #[expect(clippy::expect_used, reason = "fixture: P01")]
    let _ = y.expect("ack missing");
}

fn p02_panic_class(jobs: &IdMap<u64, u64>, id: u64) {
    #[expect(clippy::expect_used, reason = "fixture: P02")]
    let _ = jobs.get(&id).expect("IdMap lookups go through get");
    if id == 1 {
        #[expect(clippy::panic, reason = "fixture: P02")]
        {
            panic!("fault path");
        }
    }
    if id == 2 {
        #[expect(clippy::unreachable, reason = "fixture: P02")]
        {
            unreachable!();
        }
    }
    if id == 3 {
        #[expect(clippy::todo, reason = "fixture: P02")]
        {
            todo!();
        }
    }
    if id == 4 {
        #[expect(clippy::unimplemented, reason = "fixture: P02")]
        {
            unimplemented!();
        }
    }
}

fn t01_library_printing(node: u32) {
    #[expect(clippy::print_stdout, reason = "fixture: T01")]
    {
        println!("node {node} up");
    }
    #[expect(clippy::print_stdout, reason = "fixture: T01")]
    {
        print!("partial");
    }
    #[expect(clippy::print_stderr, reason = "fixture: T01")]
    {
        eprintln!("detail {node}");
    }
    #[expect(clippy::print_stderr, reason = "fixture: T01")]
    {
        eprint!("more");
    }
}

#[expect(clippy::allow_attributes, reason = "fixture: A00")]
#[expect(clippy::allow_attributes_without_reason, reason = "fixture: A00")]
#[allow(unused_variables)]
fn a00_bare_allow(unused: u32) {}
