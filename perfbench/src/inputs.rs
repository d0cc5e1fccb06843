//! Seeded inputs: the generated C programs of each workload and the
//! single-function edits the editor session saves.

use qual_cgen::{huge_profile, table1_profiles, Profile};

use qual_incr::cache::KeyHasher;

use crate::util::sub_seed;

/// One generated translation unit.
pub struct Program {
    pub name: String,
    pub src: String,
    pub lines: usize,
    profile: Profile,
}

impl Program {
    fn generate(profile: Profile) -> Program {
        let src = qual_cgen::generate(&profile);
        Program {
            name: profile.name.to_owned(),
            lines: src.lines().count(),
            src,
            profile,
        }
    }

    /// The same profile and seed at half the line count, for the
    /// doubling ratios.
    pub fn half(&self) -> Program {
        let mut p = Program::generate(self.profile.scaled(self.profile.lines / 2));
        p.name = format!("{}@half", p.name);
        p
    }
}

/// Table-1 composition, seed drawn from the workload seed: a different
/// seed gives a different program with the same composition.
fn seeded(profile: &Profile, seed: u64, tag: u64, lines: usize) -> Profile {
    Profile {
        seed: sub_seed(seed, tag),
        ..profile.scaled(lines)
    }
}

/// The six Table-1 programs at their paper line counts (300 lines each
/// in smoke mode).
pub fn paper(seed: u64, smoke: bool) -> Vec<Program> {
    table1_profiles()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let lines = if smoke { 300 } else { p.lines };
            Program::generate(seeded(p, seed, i as u64 + 1, lines))
        })
        .collect()
}

/// `synth-huge`'s composition at 150K lines, about four uucp-1.04s.
pub fn large(seed: u64, smoke: bool) -> Program {
    let lines = if smoke { 1_200 } else { 150_000 };
    let mut p = Program::generate(seeded(&huge_profile(), seed, 100, lines));
    p.name = format!("synth-{}k", lines / 1000);
    p
}

/// uucp-1.04 at its paper size: the editor session's buffer. It is the
/// same program `paper` generates for this seed.
pub fn uucp(seed: u64, smoke: bool) -> Program {
    let p = &table1_profiles()[5];
    let lines = if smoke { 300 } else { p.lines };
    Program::generate(seeded(p, seed, 6, lines))
}

/// Digest of every generated source, printed so a seed's inputs can be
/// checked byte for byte.
pub fn digest(programs: &[&Program]) -> String {
    let mut h = KeyHasher::new();
    for p in programs {
        h.str(&p.src);
    }
    let lines: usize = programs.iter().map(|p| p.lines).sum();
    format!(
        "{} programs={} lines={lines}",
        h.finish().hex(),
        programs.len()
    )
}

/// The shared helper with hundreds of dependents at paper size (~430 at
/// uucp size): an edit to it dirties every transitive caller's unit.
/// `scan_a` (~300 dependents) is not used: two hubs of different weight
/// would make the hub-save median depend on which one a run drew more.
const HUBS: &[&str] = &["find_ch"];
/// Fixed scaffolding the generator emits; never chosen as a leaf.
const SCAFFOLD: &[&str] = &[
    "skip_ws",
    "find_ch",
    "chop_at",
    "scan_a",
    "scan_b",
    "entry_key",
    "entry_mark",
    "main",
];

/// Semantics-neutral single-function edits of one buffer.
pub struct Edits {
    base: String,
    /// (function name, byte offset just past its header line).
    bodies: Vec<(String, usize)>,
    pub leaves: Vec<usize>,
    pub hubs: Vec<usize>,
}

impl Edits {
    /// Finds every function definition header (`... name(...) {` at
    /// column 0, the generator's layout).
    pub fn new(src: &str) -> Edits {
        let mut bodies = Vec::new();
        let mut offset = 0;
        for line in src.split_inclusive('\n') {
            offset += line.len();
            let text = line.trim_end();
            if !line.starts_with([' ', '\t']) && text.ends_with(") {") {
                if let Some(head) = text.split('(').next() {
                    let name = head.rsplit([' ', '*']).next().unwrap_or("");
                    if !name.is_empty() {
                        bodies.push((name.to_owned(), offset));
                    }
                }
            }
        }
        let leaves = (0..bodies.len())
            .filter(|&i| !SCAFFOLD.contains(&bodies[i].0.as_str()))
            .collect();
        let hubs = (0..bodies.len())
            .filter(|&i| HUBS.contains(&bodies[i].0.as_str()))
            .collect();
        Edits {
            base: src.to_owned(),
            bodies,
            leaves,
            hubs,
        }
    }

    pub fn name(&self, body: usize) -> &str {
        &self.bodies[body].0
    }

    /// The buffer with a block that declares and discards a local
    /// inserted at the top of one function. `stamp` makes every save's
    /// buffer distinct, so no save is answered from the report memo.
    pub fn apply(&self, body: usize, stamp: u64) -> String {
        let at = self.bodies[body].1;
        let mut out = String::with_capacity(self.base.len() + 48);
        out.push_str(&self.base[..at]);
        out.push_str(&format!("  {{ int perfbench_local = {stamp}; }}\n"));
        out.push_str(&self.base[at..]);
        out
    }
}
