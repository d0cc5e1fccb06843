//! Concurrent shared-cache stress: several analyses pounding one cache
//! directory — in-process threads and separate OS processes — must
//! never corrupt an entry and must all report identical analysis
//! results.
//!
//! Entry safety rests on content-addressed names plus atomic
//! temp-and-rename publication, which is sound because two writers of
//! one key write identical bytes. These tests pin that claim directly:
//! whatever a stampede leaves behind, and whatever a later cold store
//! rewrites, is byte-for-byte what one cold run writes.

use std::collections::BTreeMap;
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

/// One analysis through a fresh driver over `dir`.
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

/// Every `*.qinc` entry in `dir`: file name to bytes.
fn entries(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "qinc"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read cache entry"))
        })
        .collect()
}

/// Asserts two entry sets hold the same names with the same bytes,
/// naming the first entry that differs rather than dumping bytes.
fn assert_same_entries(
    got: &BTreeMap<String, Vec<u8>>,
    want: &BTreeMap<String, Vec<u8>>,
    what: &str,
) {
    assert!(!want.is_empty(), "{what}: the reference run stored nothing");
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{what}: entry names differ"
    );
    for (name, bytes) in want {
        let other = &got[name];
        let at = bytes.iter().zip(other).position(|(a, b)| a != b);
        assert!(
            bytes == other,
            "{what}: entry {name} differs (got {} bytes, want {}, first difference at {at:?})",
            other.len(),
            bytes.len()
        );
    }
}

/// The entries one cold in-process run writes into a fresh directory.
fn reference_entries(tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir = scratch(tag);
    let out = run(&dir);
    assert_eq!(out.stats.stored, out.stats.units, "{:?}", out.cache_diags);
    let e = entries(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    e
}

#[test]
fn a_second_cold_store_of_a_unit_writes_identical_bytes() {
    let dir = scratch("restore");
    let first = run(&dir);
    assert_eq!(
        first.stats.stored, first.stats.units,
        "{:?}",
        first.cache_diags
    );
    let snapshot = entries(&dir);
    for name in snapshot.keys() {
        std::fs::remove_file(dir.join(name)).expect("remove cache entry");
    }
    let second = run(&dir);
    assert_eq!(
        second.stats.analyzed, second.stats.units,
        "entries were removed"
    );
    assert_same_entries(&entries(&dir), &snapshot, "re-store by a new driver");
    let _ = std::fs::remove_dir_all(&dir);
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
    // Whichever writer won each rename, every entry is the one a lone
    // cold run writes.
    assert_same_entries(
        &entries(&dir),
        &reference_entries("threads-ref"),
        "thread stampede",
    );

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
    // must report identically, and every entry must be the one a lone
    // cold process writes.
    const N: usize = 5;
    let dir = scratch("procs");
    let src_file = std::env::temp_dir().join(format!(
        "qinc-concurrent-src-{}.c",
        std::process::id()
    ));
    std::fs::write(&src_file, SRC).expect("write source file");

    let spawn_in = |dir: &Path| {
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
    let spawn = || spawn_in(&dir);
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
    let ref_dir = scratch("procs-ref");
    let lone = spawn_in(&ref_dir).expect("spawn cqual");
    assert_eq!(lone.status.code(), Some(0));
    assert_same_entries(&entries(&dir), &entries(&ref_dir), "process stampede");
    let _ = std::fs::remove_dir_all(&ref_dir);

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
