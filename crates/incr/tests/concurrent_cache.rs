//! Concurrent shared-cache stress: several analyses pounding one cache
//! directory — in-process threads and separate OS processes — must
//! never corrupt an entry, never deadlock on the advisory lock, and all
//! report identical analysis results.
//!
//! Entry safety rests on content-addressed names plus atomic
//! temp-and-rename publication (two writers of one key write identical
//! bytes); the advisory lock only serializes the generation counter,
//! and is itself allowed to degrade. These tests exercise both claims.

use std::path::{Path, PathBuf};
use std::process::Command;

use qual_incr::{analyze_source_incremental, IncrConfig, IncrOutcome};

const SRC: &str = "int leaf(const char *s) { return *s; }
int mid(char *p) { return leaf(p); }
char *id(char *q) { return q; }
void user(char *b) { *id(b) = 'x'; mid(b); }";

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "qinc-concurrent-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn run(dir: &Path) -> IncrOutcome {
    analyze_source_incremental(
        SRC,
        &IncrConfig {
            jobs: 2,
            cache_dir: Some(dir.to_path_buf()),
            ..IncrConfig::default()
        },
    )
}

#[test]
fn threads_sharing_one_cache_dir_agree_and_corrupt_nothing() {
    let dir = scratch("threads");
    let outs: Vec<IncrOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6).map(|_| s.spawn(|| run(&dir))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis thread never panics"))
            .collect()
    });
    let first = &outs[0];
    assert!(first.counts.is_some());
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(out.counts, first.counts, "thread {i}");
        assert_eq!(out.stats.corrupt, 0, "thread {i}: {:?}", out.cache_diags);
        assert!(
            out.skipped.is_empty(),
            "thread {i}: {:?}",
            out.skipped
        );
        assert_eq!(
            out.stats.analyzed + out.stats.reused,
            out.stats.units,
            "thread {i}: every unit accounted for"
        );
    }
    // Racing sessions each got a distinct generation (or degraded to
    // lockless, generation 0 — allowed, but never two the same).
    let mut gens: Vec<u64> = outs
        .iter()
        .map(|o| o.stats.generation)
        .filter(|&g| g != 0)
        .collect();
    gens.sort_unstable();
    let n = gens.len();
    gens.dedup();
    assert_eq!(gens.len(), n, "locked generations are unique");

    // And the dust settles into a fully warm cache.
    let after = run(&dir);
    assert_eq!(after.stats.reused, after.stats.units);
    assert!(after.cache_diags.is_empty(), "{:?}", after.cache_diags);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn n_processes_sharing_one_cache_dir() {
    // Five racing cold processes all pounding one cache directory.
    // However the writes interleave, no entry may tear, every process
    // must report identically, and locked generations must stay unique.
    const N: usize = 5;
    let dir = scratch("procs");
    let src_file = std::env::temp_dir().join(format!(
        "qinc-concurrent-src-{}.c",
        std::process::id()
    ));
    std::fs::write(&src_file, SRC).expect("write source file");

    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_cqual"))
            .args([
                "--jobs",
                "2",
                "--cache-dir",
                dir.to_str().unwrap(),
                "--cache-stats",
                src_file.to_str().unwrap(),
            ])
            .output()
    };
    let outs: Vec<std::process::Output> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N).map(|_| s.spawn(spawn)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().expect("spawn cqual"))
            .collect()
    });
    let report = |out: &std::process::Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("cqual: cache:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(
            out.status.code(),
            Some(0),
            "process {i}: stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("re-analyzed cold"),
            "process {i}: a racing writer corrupted an entry: {stderr}"
        );
        assert_eq!(
            report(out),
            report(&outs[0]),
            "process {i} reports differently"
        );
    }
    // Generation accounting stays stable under the stampede: each
    // locked session took a distinct generation (degraded lockless
    // sessions report generation 0 and are exempt, but never collide).
    let mut gens: Vec<u64> = outs
        .iter()
        .filter_map(|out| {
            String::from_utf8_lossy(&out.stdout).lines().find_map(|l| {
                let rest = l.strip_prefix("cqual: cache: generation ")?;
                rest.split(',').next()?.trim().parse::<u64>().ok()
            })
        })
        .filter(|&g| g != 0)
        .collect();
    gens.sort_unstable();
    let n_locked = gens.len();
    gens.dedup();
    assert_eq!(gens.len(), n_locked, "locked generations are unique");

    // ...then a warm run re-solves nothing: whatever interleaving the
    // writers had, every published entry is whole and certified.
    let warm = spawn().expect("spawn cqual");
    assert_eq!(warm.status.code(), Some(0));
    let stats = String::from_utf8_lossy(&warm.stdout);
    assert!(
        stats.contains("0 analyzed"),
        "warm rerun after the race must reuse everything: {stats}"
    );
    assert_eq!(report(&outs[0]), report(&warm));

    let _ = std::fs::remove_file(&src_file);
    let _ = std::fs::remove_dir_all(&dir);
}
