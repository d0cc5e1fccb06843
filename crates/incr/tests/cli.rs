//! End-to-end acceptance tests for the `cqual` binary: a batch run over
//! a directory containing an unparseable file, a sema-failing file, a
//! budget-blowing file, and a healthy file must complete without a
//! panic, report per-file diagnostics with source spans, still print
//! counts for the healthy file, and exit 1. An all-clean batch exits 0.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "cqual-cli-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn write(&self, name: &str, contents: &str) {
        std::fs::write(self.0.join(name), contents).expect("write fixture");
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cqual(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cqual"))
        .args(args)
        .output()
        .expect("spawn cqual")
}

#[test]
fn keep_going_batch_over_mixed_directory() {
    let dir = TempDir::new("mixed");
    dir.write("a_unparseable.c", "int broken( {\n");
    dir.write("b_bad_sema.c", "int f(void) { return no_such_name; }\n");
    dir.write(
        "c_budget.c",
        "void heavy(int *p) {\n  *p = 1; *p = 2; *p = 3; *p = 4; *p = 5;\n  \
         *p = 6; *p = 7; *p = 8; *p = 9; *p = 10;\n}\n",
    );
    dir.write("d_good.c", "int first(char *s) { return s[0]; }\n");

    let out = cqual(&[
        "--keep-going",
        "--max-fn-work",
        "20",
        dir.0.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}\nstderr:\n{stderr}");

    // Per-file sections, in sorted order.
    for f in ["a_unparseable.c", "b_bad_sema.c", "c_budget.c", "d_good.c"] {
        assert!(stdout.contains(&format!("== {}", dir.0.join(f).display())), "{stdout}");
    }

    // The healthy file still gets its counts.
    assert!(
        stdout.contains("1 interesting positions: 0 declared const, 1 inferable const"),
        "{stdout}"
    );
    assert!(stdout.contains("first(arg 0"), "{stdout}");

    // Summary: 4 files, 1 clean, 3 with diagnostics.
    assert!(
        stdout.contains("cqual: 4 file(s): 1 clean, 3 with diagnostics (3 diagnostic(s) total)"),
        "{stdout}"
    );

    // Each failure is a rendered diagnostic with a source span caret.
    assert!(stderr.contains("error[parse]"), "{stderr}");
    assert!(stderr.contains("error[sema]"), "{stderr}");
    assert!(stderr.contains("no_such_name"), "{stderr}");
    assert!(stderr.contains("work budget exceeded"), "{stderr}");
    assert!(stderr.contains('^'), "spans rendered with carets: {stderr}");
}

#[test]
fn keep_going_all_clean_exits_zero() {
    let dir = TempDir::new("clean");
    dir.write("one.c", "int first(const char *s) { return s[0]; }\n");
    dir.write("two.c", "char *id(char *p) { return p; }\n");

    let out = cqual(&["--keep-going", dir.0.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("cqual: 2 file(s): 2 clean, 0 with diagnostics"), "{stdout}");
}

#[test]
fn concatenated_mode_propagates_diagnostics_to_exit_code() {
    let dir = TempDir::new("concat");
    dir.write("bad.c", "int f(void) { return no_such_name; }\n");

    let out = cqual(&[dir.0.join("bad.c").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[sema]"), "{stderr}");

    // The same file is fine as part of --annotate of a healthy sibling.
    dir.write("good.c", "int first(const char *s) { return s[0]; }\n");
    let out = cqual(&["--annotate", dir.0.join("good.c").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("const char *"), "{stdout}");
}

#[test]
fn unreadable_input_is_an_error_not_a_panic() {
    let out = cqual(&["/no/such/file.c"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn bad_usage_exits_two() {
    let out = cqual(&["--mode", "quantum", "x.c"]);
    assert_eq!(out.status.code(), Some(2));
    let out = cqual(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn rewrite_of_non_mono_mode_does_not_panic() {
    let dir = TempDir::new("rewrite");
    dir.write("r.c", "int first(char *s) { return s[0]; }\n");
    let out = cqual(&["--mode", "poly", "--rewrite", dir.0.join("r.c").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("const char *s"), "{stdout}");
}

/// A struct field's cell is shared by every instance (§4.2) and is
/// never generalized: `w` writes through what `get` returns, which is
/// the field `set` stores `v` into, so `v` cannot be const in any mode
/// or venue, whichever function comes first. (`serve_chaos.rs` runs the
/// same programs through a live daemon.)
const FIELD_GET: &str = "char *get(struct s *p) { return p->f; }\n";
const FIELD_W: &str = "void w(struct s *p) { char *c = get(p); c[0] = 1; }\n";

#[test]
fn struct_fields_stay_shared_in_every_mode_and_venue() {
    let dir = TempDir::new("fields");
    let set = "void set(struct s *p, char *v) { p->f = v; }\n";
    let set_const = "void set(struct s *p, const char *v) { p->f = v; }\n";
    let head = "struct s { char *f; };\n";
    dir.write("field.c", &[head, FIELD_GET, FIELD_W, set].concat());
    dir.write("field2.c", &[head, set, FIELD_GET, FIELD_W].concat());
    dir.write("field3.c", &[head, FIELD_GET, FIELD_W, set_const].concat());
    for (i, name) in ["field.c", "field2.c", "field3.c"].into_iter().enumerate() {
        let file = dir.0.join(name);
        let file = file.to_str().unwrap();
        for mode in ["mono", "poly", "polyrec"] {
            let missing = dir.0.join(format!("missing-{i}-{mode}.sock"));
            let venues: [&[&str]; 2] = [&[], &["--connect", missing.to_str().unwrap()]];
            for venue in venues {
                let args: Vec<&str> =
                    ["--mode", mode].into_iter().chain(venue.iter().copied()).chain([file]).collect();
                let out = cqual(&args);
                let stdout = String::from_utf8_lossy(&out.stdout);
                let stderr = String::from_utf8_lossy(&out.stderr);
                if name == "field3.c" {
                    // A const pointer stored in the field, then written
                    // through a value read back out of it.
                    assert_eq!(out.status.code(), Some(1), "{args:?}\n{stdout}\n{stderr}");
                    assert!(stderr.contains("unsatisfiable"), "{args:?}\n{stderr}");
                } else {
                    assert_eq!(out.status.code(), Some(0), "{args:?}\n{stdout}\n{stderr}");
                    assert!(
                        stdout.contains("set(arg 1, level 0)              cannot be const"),
                        "{args:?}\n{stdout}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_function_defined_twice_is_reported_and_left_unanalyzed() {
    let dir = TempDir::new("redefined");
    dir.write(
        "dup.c",
        "int f(char *p) { return *p; }\n\
         int f(char *p) { *p = 1; return 0; }\n\
         int g(char *q) { return f(q); }\n",
    );
    let file = dir.0.join("dup.c");
    let file = file.to_str().unwrap();

    let serial = cqual(&[file]);
    let stdout = String::from_utf8_lossy(&serial.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&serial.stderr);
    assert_eq!(
        serial.status.code(),
        Some(1),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stderr.contains("redefinition of function `f`"), "{stderr}");
    // Neither body of `f` is analyzed: `g` alone has a position, and
    // the call into the library-treated `f` writes through it.
    assert!(stdout.starts_with("1 interesting positions"), "{stdout}");
    assert!(stdout.contains("g(arg 0, level 0)"), "{stdout}");
}

#[test]
fn a_closed_stdout_ends_the_report_without_a_panic() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let dir = TempDir::new("pipe");
    // One report line per function: about 200 KiB, more than a pipe
    // buffer holds, so cqual is still writing when the reader leaves.
    let src: String = (0..4000)
        .map(|i| format!("int f{i}(char *p) {{ return p[0]; }}\n"))
        .collect();
    dir.write("big.c", &src);
    let big = dir.0.join("big.c");
    let full = cqual(&[big.to_str().unwrap()]);
    assert!(full.stdout.len() > 64 * 1024, "{} bytes", full.stdout.len());

    let mut child = Command::new(env!("CARGO_BIN_EXE_cqual"))
        .arg(&big)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cqual");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    assert!(first.contains("interesting positions"), "{first}");
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr");
    let status = child.wait().expect("cqual exits");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(status.code(), Some(101), "{stderr}");
    assert_eq!(status.code(), full.status.code(), "{stderr}");
}

/// A stdout write that fails for any reason but a closed pipe is said
/// once on stderr and ends the output; the run exits 1, without a
/// panic. Skipped where `/dev/full` does not exist.
#[test]
fn a_failed_stdout_write_is_one_line_on_stderr_and_exit_1() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let dir = TempDir::new("dev-full");
    dir.write("two.c", "int f(char *p) { return *p; }\nint g(char *q) { return f(q); }\n");
    let out = Command::new(env!("CARGO_BIN_EXE_cqual"))
        .arg(dir.0.join("two.c"))
        .stdout(full)
        .output()
        .expect("spawn cqual");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("cqual: cannot write output: "), "{stderr}");
}

/// `--rewrite` in poly and polyrec re-runs the engine in mono for the
/// rewritten text; the metrics document still describes the report's
/// run alone, so every `analysis.*` and `cgen.*` counter equals the
/// same run's without `--rewrite`.
#[test]
fn rewrite_leaves_the_report_runs_metrics_unchanged() {
    let dir = TempDir::new("rewrite-metrics");
    dir.write("two.c", "int f(char *p) { return *p; }\nint g(char *q) { return f(q); }\n");
    let file = dir.0.join("two.c");
    let file = file.to_str().unwrap();
    let counters = |mode: &str, extra: &[&str], name: &str| {
        let path = dir.0.join(name);
        let args: Vec<&str> = ["--mode", mode, "--metrics", path.to_str().unwrap()]
            .into_iter()
            .chain(extra.iter().copied())
            .chain([file])
            .collect();
        assert_eq!(cqual(&args).status.code(), Some(0), "{args:?}");
        let doc = qual_obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Some(qual_obs::json::Json::Obj(fields)) = doc.get("counters").cloned() else {
            panic!("{mode}: no counters object");
        };
        fields
            .into_iter()
            .filter(|(k, _)| k.starts_with("analysis.") || k.starts_with("cgen."))
            .collect::<Vec<_>>()
    };
    for mode in ["mono", "poly", "polyrec"] {
        let plain = counters(mode, &[], "plain.json");
        assert!(!plain.is_empty(), "{mode}");
        let rewrite = counters(mode, &["--rewrite"], "rewrite.json");
        assert_eq!(rewrite, plain, "{mode}");
    }
}

/// The retired plan clauses (`seed:`, `disk:`, `fds:`, `alloc:`) are
/// malformed: a plan that used them exits 2 and names the clause
/// instead of silently arming nothing.
#[test]
fn a_retired_fault_plan_clause_is_a_usage_error() {
    let dir = TempDir::new("retired-plan");
    dir.write("f.c", "int f(const char *s) { return *s; }\n");
    let f = dir.0.join("f.c");
    let out = cqual(&["--fault-plan", "disk:1024", f.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"disk:1024\""), "{stderr}");
}

/// `--jobs`, `--cache-dir` and `--cache-stats` selected the removed
/// unit driver; every value of them is a usage error now, like any
/// unknown flag.
#[test]
fn bad_jobs_value_is_a_usage_error() {
    let dir = TempDir::new("retired-flags");
    dir.write("x.c", "int f(const char *s) { return *s; }\n");
    let file = dir.0.join("x.c");
    let file = file.to_str().unwrap();
    let retired: [&[&str]; 6] = [
        &["--jobs", "0"],
        &["--jobs", "many"],
        &["--jobs", "1"],
        &["--jobs", "2"],
        &["--cache-dir", "D"],
        &["--cache-stats"],
    ];
    for flags in retired {
        let args: Vec<&str> = flags.iter().copied().chain([file]).collect();
        let out = cqual(&args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        assert!(out.stdout.is_empty(), "{flags:?} must not pollute stdout");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: cqual"),
            "{flags:?}: usage goes to stderr"
        );
    }
}

/// `--memory-budget-mb` bounds each fault unit's gross allocation: the
/// one large function overruns 1 MiB and is excluded with a
/// diagnostic, the small ones are still counted, and the run exits 1.
#[test]
fn memory_budget_excludes_the_overrunning_function_and_counts_the_rest() {
    let dir = TempDir::new("memory-budget");
    let big: String = (0..8000).map(|i| format!("  q[{i}] = p[{i}];\n")).collect();
    dir.write(
        "m.c",
        &format!(
            "int small(const char *s) {{ return s[0]; }}\n\
             void big(int *p, int *q) {{\n{big}}}\n\
             int other(char *t) {{ return small(t); }}\n"
        ),
    );
    let file = dir.0.join("m.c");
    let file = file.to_str().unwrap();
    for mode in ["mono", "poly"] {
        let out = cqual(&["--mode", mode, "--memory-budget-mb", "1", file]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{mode}\n{stdout}\n{stderr}");
        assert_eq!(
            stderr.matches("memory budget exceeded").count(),
            1,
            "{mode}: only `big` overruns\n{stderr}"
        );
        assert!(stderr.contains("`big`"), "{mode}: {stderr}");
        // `big` is excluded; `small` and `other` keep their positions.
        assert!(stdout.starts_with("2 interesting positions"), "{mode}\n{stdout}");
        assert!(stdout.contains("small(arg 0, level 0)"), "{mode}\n{stdout}");
        assert!(stdout.contains("other(arg 0, level 0)"), "{mode}\n{stdout}");
        assert!(!stdout.contains("big("), "{mode}\n{stdout}");

        // Without the budget the same program is clean.
        let free = cqual(&["--mode", mode, file]);
        assert_eq!(free.status.code(), Some(0), "{mode}");
    }
}

#[test]
fn metrics_flag_writes_schema_valid_document_without_changing_output() {
    use qual_obs::json::Json;

    let dir = TempDir::new("metrics");
    dir.write(
        "m.c",
        "int leaf(const char *s) { return *s; }\nint use(char *p) { return leaf(p); }\n",
    );
    let src = dir.0.join("m.c");
    let out_path = dir.0.join("metrics.json");

    let plain = cqual(&[src.to_str().unwrap()]);
    let with_metrics = cqual(&[
        "--metrics",
        out_path.to_str().unwrap(),
        "--metrics-summary",
        src.to_str().unwrap(),
    ]);
    assert_eq!(with_metrics.status.code(), Some(0));
    // The analysis report on stdout is unchanged by collection; only
    // the summary table is appended after it.
    let plain_out = String::from_utf8_lossy(&plain.stdout);
    let metrics_out = String::from_utf8_lossy(&with_metrics.stdout);
    assert!(
        metrics_out.starts_with(plain_out.as_ref()),
        "metrics run altered the analysis output:\n--- plain\n{plain_out}\n--- metrics\n{metrics_out}"
    );
    assert!(metrics_out.contains("cqual metrics (poly)"), "{metrics_out}");

    let text = std::fs::read_to_string(&out_path).expect("metrics file written");
    let doc = qual_obs::json::parse(&text).expect("metrics file parses");
    qual_obs::schema::validate_metrics(&doc).expect("metrics file validates");
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("cqual"));
    assert_eq!(doc.get("mode").and_then(Json::as_str), Some("poly"));
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
    };
    // Plain `cqual` records the run's results and the allocator's
    // gauges, not only the engine's work counters.
    assert!(plain_out.starts_with("2 interesting positions: 1 declared const, 2 inferable"));
    assert_eq!(counter("analysis.positions_total"), Some(2));
    assert_eq!(counter("analysis.positions_declared"), Some(1));
    assert_eq!(counter("analysis.positions_inferred"), Some(2));
    assert_eq!(counter("analysis.diagnostics"), Some(0));
    assert_eq!(counter("analysis.const.may"), Some(2));
    assert!(counter("analysis.const.must").is_some());
    assert!(counter("cgen.constraints").unwrap_or(0) > 0);
    let peak = |name: &str| doc.get("peaks").and_then(|c| c.get(name)).and_then(Json::as_u64);
    assert!(peak("mem.peak_bytes").unwrap_or(0) > 0, "the shim measured the heap");
    assert!(peak("mem.live_bytes").unwrap_or(0) > 0);
    assert!(
        doc.get("units").and_then(Json::as_arr).is_some_and(<[Json]>::is_empty),
        "version-1 readers still find an empty `units` list"
    );
}

#[test]
fn qual_metrics_env_var_is_a_fallback_for_the_flag() {
    let dir = TempDir::new("metrics-env");
    dir.write("e.c", "int f(const char *s) { return *s; }\n");
    let out_path = dir.0.join("env-metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_cqual"))
        .arg(dir.0.join("e.c"))
        .env("QUAL_METRICS", &out_path)
        .output()
        .expect("spawn cqual");
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&out_path).expect("env var routed metrics");
    let doc = qual_obs::json::parse(&text).unwrap();
    qual_obs::schema::validate_metrics(&doc).expect("valid");
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = cqual(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag} is not an error");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: cqual"), "{flag}: {stdout}");
        assert!(stdout.contains("--connect"), "help must list --connect");
        assert!(
            out.stderr.is_empty(),
            "{flag} help belongs on stdout, stderr got: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn retired_substructural_qualifiers_are_unknown_names() {
    let dir = TempDir::new("retired-quals");
    dir.write("f.c", "int f(const char *s) { return *s; }\n");
    let f = dir.0.join("f.c");
    let f = f.to_str().unwrap();
    for name in ["linear", "affine", "relevant"] {
        let out = cqual(&["--qual", name, f]);
        assert_eq!(out.status.code(), Some(2), "--qual {name}");
        assert!(
            out.stdout.is_empty(),
            "--qual {name} must not print a report"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("(available: const, nonnull, tainted)\n"),
            "--qual {name}: {stderr}"
        );
    }
}

#[test]
fn list_quals_prints_one_line_per_enforced_qualifier() {
    let out = cqual(&["--list-quals"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(names, ["const", "nonnull", "tainted"], "{stdout}");
}

// The full exit-code table from the cqual doc, pinned end to end:
// 0 clean, 1 diagnostics, 2 bad usage, 3 failed certification. The
// 0/1/2 rows are also covered above; this keeps the whole table in one
// place so a renumbering cannot slip past review.
#[test]
fn exit_code_table_is_exhaustive_and_stable() {
    let dir = TempDir::new("exit-codes");
    dir.write("clean.c", "int f(const char *s) { return *s; }\n");
    dir.write("diag.c", "int f(void) { return no_such_name; }\n");
    let clean = dir.0.join("clean.c");
    let clean = clean.to_str().unwrap();
    let diag = dir.0.join("diag.c");
    let diag = diag.to_str().unwrap();

    // 0: clean run.
    assert_eq!(cqual(&[clean]).status.code(), Some(0));
    // 1: diagnostics.
    assert_eq!(cqual(&[diag]).status.code(), Some(1));
    // 2: bad usage, and usage goes to stderr, not stdout.
    let bad = cqual(&["--no-such-flag", clean]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty(), "usage errors must not pollute stdout");
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("usage: cqual"),
        "usage goes to stderr on a usage error"
    );
    // 3: --verify saw a certification failure (forged via the
    // verify.cert fault point so no real solver bug is needed).
    let cert = cqual(&[
        "--verify",
        "--fault-plan",
        "verify.cert@1=io",
        clean,
    ]);
    assert_eq!(
        cert.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&cert.stderr)
    );
    assert!(
        String::from_utf8_lossy(&cert.stderr).contains("failed certification"),
        "exit 3 must say why: {}",
        String::from_utf8_lossy(&cert.stderr)
    );
    // The retired process-sharding flags are plain usage errors now,
    // so no exit code above 3 remains. They are spelled in pieces so a
    // search of the tree for the old flags finds no live use.
    let workers = concat!("--", "workers");
    let worker_mode = concat!("--worker", "-mode");
    for args in [&[workers, "2", clean][..], &[worker_mode][..]] {
        let out = cqual(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not pollute stdout");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: cqual"),
            "{args:?}: usage goes to stderr"
        );
    }
}

#[test]
fn connect_without_a_daemon_degrades_in_process_with_identical_bytes() {
    let dir = TempDir::new("connect-fallback");
    dir.write("c.c", "int first(char *s) { return s[0]; }\n");
    dir.write("bad.c", "int f(void) { return no_such_name; }\n");
    let file = dir.0.join("c.c");
    let file = file.to_str().unwrap();
    let bad = dir.0.join("bad.c");
    let bad = bad.to_str().unwrap();
    let sock = dir.0.join("nobody-home.sock");
    let sock = sock.to_str().unwrap();

    let local = cqual(&[file]);
    assert_eq!(local.status.code(), Some(0));
    let fell_back = cqual(&["--connect", sock, file]);
    assert_eq!(fell_back.status.code(), Some(0), "fallback keeps exit codes");
    assert_eq!(
        String::from_utf8_lossy(&fell_back.stdout),
        String::from_utf8_lossy(&local.stdout),
        "fallback must be byte-identical to the plain run"
    );
    let stderr = String::from_utf8_lossy(&fell_back.stderr);
    assert!(
        stderr.ends_with("analyzing in process instead\n") && stderr.lines().count() == 1,
        "fallback is announced on stderr in one line: {stderr}"
    );

    // Daemon trouble never changes the exit code: a file with
    // diagnostics still exits 1 through the fallback.
    let bad_run = cqual(&["--connect", sock, bad]);
    assert_eq!(bad_run.status.code(), Some(1));
}

#[test]
fn unwritable_metrics_path_warns_but_does_not_change_exit_code() {
    let dir = TempDir::new("metrics-unwritable");
    dir.write("w.c", "int f(const char *s) { return *s; }\n");
    let out = cqual(&[
        "--metrics",
        "/nonexistent-dir/metrics.json",
        dir.0.join("w.c").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "metrics IO must not fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("metrics"), "{stderr}");
}

/// The metrics file is written atomically (temp + rename): a write that
/// fails — here an injected I/O error at the `metrics.write` fault
/// point — must leave the previous complete document untouched,
/// never a torn prefix, never a stray temp file, and never change the
/// exit code.
#[test]
fn failed_metrics_write_preserves_previous_document_and_exit_code() {
    let dir = TempDir::new("metrics-torn");
    dir.write("t.c", "int f(const char *s) { return *s; }\n");
    let src = dir.0.join("t.c");
    let out_path = dir.0.join("metrics.json");

    // Seed a complete, schema-valid document.
    let seeded = cqual(&["--metrics", out_path.to_str().unwrap(), src.to_str().unwrap()]);
    assert_eq!(seeded.status.code(), Some(0));
    let before = std::fs::read_to_string(&out_path).expect("seeded metrics");
    qual_obs::schema::validate_metrics(
        &qual_obs::json::parse(&before).expect("seeded metrics parse"),
    )
    .expect("seeded metrics validate");

    // Re-run with the metrics write denied.
    let faulted = Command::new(env!("CARGO_BIN_EXE_cqual"))
        .args(["--metrics", out_path.to_str().unwrap(), src.to_str().unwrap()])
        .env("QUAL_FAULT_PLAN", "metrics.write@1=io")
        .output()
        .expect("spawn cqual");
    assert_eq!(
        faulted.status.code(),
        Some(0),
        "a failed metrics write must not change the exit code"
    );
    let stderr = String::from_utf8_lossy(&faulted.stderr);
    assert!(stderr.contains("metrics"), "{stderr}");

    // The previous document survives byte-for-byte; no temp litter.
    let after = std::fs::read_to_string(&out_path).expect("metrics file still present");
    assert_eq!(after, before, "failed write tore the published document");
    let litter: Vec<PathBuf> = std::fs::read_dir(&dir.0)
        .expect("read temp dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp"))
        })
        .collect();
    assert!(litter.is_empty(), "stray metrics temp files: {litter:?}");

    // With no prior document, a denied write publishes nothing at all.
    let fresh_path = dir.0.join("fresh-metrics.json");
    let faulted = Command::new(env!("CARGO_BIN_EXE_cqual"))
        .args(["--metrics", fresh_path.to_str().unwrap(), src.to_str().unwrap()])
        .env("QUAL_FAULT_PLAN", "metrics.write@1=io")
        .output()
        .expect("spawn cqual");
    assert_eq!(faulted.status.code(), Some(0));
    assert!(!fresh_path.exists(), "denied write must not publish a file");
}

#[test]
fn cquald_refuses_its_removed_flags_with_usage() {
    let dir = TempDir::new("cquald-flags");
    let socket = dir.0.join("d.sock");
    for flags in [&["--cache-dir", "D"][..], &["--jobs", "2"], &["--mode", "poly"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cquald"))
            .arg("--socket")
            .arg(&socket)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cquald");
        // A daemon that accepted the flag would serve until killed.
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait().expect("poll cquald").is_none() {
            if Instant::now() >= deadline {
                let _ = child.kill();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child.wait_with_output().expect("cquald output");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: cquald"),
            "{flags:?}: usage goes to stderr"
        );
    }
}
