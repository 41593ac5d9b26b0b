//! `maps-lint`: the workspace static-analysis pass that enforces the
//! determinism & concurrency contracts at review time.
//!
//! Every invariant this reproduction lives by — bit-identical parallel
//! replay, the total `(epoch, producer, seq)` order, the
//! telemetry-in-the-bits rule — is otherwise enforced only
//! *dynamically*, by oracle sweeps that catch a violation after it is
//! written (and cannot name which line wrote it). This pass turns the
//! ROADMAP's prose rules into machine-checked source constraints that
//! run before the build:
//!
//! | rule | constraint |
//! |------|-----------|
//! | `det-collections` | no `HashMap`/`HashSet` iteration in modules that feed `Outcome::deterministic_bits` |
//! | `det-wallclock` | `Instant::now`/`SystemTime` only in the bench/timing allow-list |
//! | `det-rng` | no ambient randomness (`thread_rng`, entropy seeds) outside `maps-testkit` |
//! | `atomic-ordering` | every `Ordering::Relaxed`/`fence` in the atomic protocol file (`alloc.rs`) carries a `// ordering:` justification; Release stores pair with Acquire loads |
//! | `unsafe-safety` | every `unsafe` block/fn/impl has an immediately-preceding `// SAFETY:` comment |
//! | `float-total-order` | no bare `partial_cmp(…).unwrap()` / float `sort_by` in deterministic modules |
//!
//! Violations are waivable inline — a `lint-allow` comment naming the
//! rule in parentheses followed by `: reason`, placed on the offending
//! line or the line above — and the waiver is itself
//! audited: a waiver without a reason, or naming an unknown rule, is a
//! violation (`waiver`), and a well-formed waiver whose covered lines
//! no longer trip its rule is one too (`stale-waiver` — an unused
//! license silently pre-authorizes the next regression on that line).
//! The pass has **no registry dependencies**: it carries its
//! own comment/string-aware Rust lexer ([`lexer`]) because `syn` is not
//! vendored, and token-level analysis is exactly the granularity the
//! rules need.
//!
//! Run it as a binary (`cargo run -p maps-lint --release`), as a
//! library ([`scan_workspace`]), or in self-test mode
//! (`--self-test`: every known-bad fixture under `fixtures/` must
//! fail, guarding the pass against rotting into a no-op). The JSON
//! report is `maps-lint/v1` ([`LintReport::to_value`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod rules;

pub use rules::{analyze, FileAnalysis, Violation, Waived, RULES};

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One surviving violation, anchored to a workspace-relative file.
#[derive(Debug, Clone)]
pub struct FileViolation {
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// The finding.
    pub violation: Violation,
}

/// One waived violation, anchored to a workspace-relative file.
#[derive(Debug, Clone)]
pub struct FileWaived {
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// The waived finding with its reason.
    pub waived: Waived,
}

/// Aggregated result of a workspace scan.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All surviving violations, in (file, rule, line) order.
    pub violations: Vec<FileViolation>,
    /// All waived violations (the audit trail).
    pub waived: Vec<FileWaived>,
}

impl LintReport {
    /// True when the scan found nothing (the CI pass condition).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the `maps-lint/v1` JSON schema: a `rules` object with
    /// per-rule violation/waiver counts, plus the flat `violations` /
    /// `waived` arrays.
    pub fn to_value(&self) -> Value {
        let mut per_rule: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for name in RULES.iter().chain(["waiver", "stale-waiver"].iter()) {
            per_rule.insert((*name).to_string(), (0, 0));
        }
        for v in &self.violations {
            per_rule.entry(v.violation.rule.to_string()).or_default().0 += 1;
        }
        for w in &self.waived {
            per_rule.entry(w.waived.rule.to_string()).or_default().1 += 1;
        }
        let rules: BTreeMap<String, Value> = per_rule
            .into_iter()
            .map(|(name, (violations, waived))| {
                (
                    name,
                    serde::object([
                        ("violations", Value::Number(violations as f64)),
                        ("waived", Value::Number(waived as f64)),
                    ]),
                )
            })
            .collect();
        let violations: Vec<Value> = self
            .violations
            .iter()
            .map(|v| {
                serde::object([
                    ("rule", Value::String(v.violation.rule.to_string())),
                    ("file", Value::String(v.file.clone())),
                    ("line", Value::Number(v.violation.line as f64)),
                    ("message", Value::String(v.violation.message.clone())),
                ])
            })
            .collect();
        let waived: Vec<Value> = self
            .waived
            .iter()
            .map(|w| {
                serde::object([
                    ("rule", Value::String(w.waived.rule.to_string())),
                    ("file", Value::String(w.file.clone())),
                    ("line", Value::Number(w.waived.line as f64)),
                    ("reason", Value::String(w.waived.reason.clone())),
                ])
            })
            .collect();
        serde::object([
            ("schema", Value::String("maps-lint/v1".to_string())),
            ("files_scanned", Value::Number(self.files_scanned as f64)),
            ("rules", Value::Object(rules)),
            ("violations", Value::Array(violations)),
            ("waived", Value::Array(waived)),
        ])
    }
}

/// Directories never scanned: build output, vendored stand-ins (not
/// this repo's code), VCS internals, and the lint's own known-bad
/// fixtures (which must stay bad).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Collects every workspace `.rs` file under `root`, sorted by
/// relative path so reports are deterministic.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans every workspace `.rs` file under `root` and aggregates the
/// findings. Unreadable files are reported as violations rather than
/// skipped — a scan that silently misses files is a scan that lies.
pub fn scan_workspace(root: &Path) -> std::io::Result<LintReport> {
    let files = workspace_files(root)?;
    let mut report = LintReport::default();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(path) else {
            report.violations.push(FileViolation {
                file: rel.clone(),
                violation: Violation {
                    rule: "waiver",
                    line: 0,
                    message: "file could not be read as UTF-8".to_string(),
                },
            });
            continue;
        };
        report.files_scanned += 1;
        let analysis = analyze(&rel, &src);
        report.violations.extend(
            analysis
                .violations
                .into_iter()
                .map(|violation| FileViolation {
                    file: rel.clone(),
                    violation,
                }),
        );
        report
            .waived
            .extend(analysis.waived.into_iter().map(|waived| FileWaived {
                file: rel.clone(),
                waived,
            }));
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.violation.line).cmp(&(&b.file, b.violation.line)));
    report
        .waived
        .sort_by(|a, b| (&a.file, a.waived.line).cmp(&(&b.file, b.waived.line)));
    Ok(report)
}

/// A known-bad fixture: a source snippet, the synthetic workspace path
/// it impersonates (rule scoping is path-driven), and the rule it must
/// trip. The self-test fails unless **every** fixture produces at
/// least one violation of its expected rule — this is what keeps the
/// pass from rotting into a no-op while still exiting 0 on the real
/// workspace.
#[derive(Debug, Clone, Copy)]
pub struct Fixture {
    /// Fixture name (the file under `fixtures/`).
    pub name: &'static str,
    /// The path the snippet pretends to live at.
    pub path: &'static str,
    /// The rule that must fire.
    pub expect_rule: &'static str,
    /// The snippet source.
    pub source: &'static str,
}

/// The known-bad fixture suite, one per rule plus the waiver audits.
pub const FIXTURES: &[Fixture] = &[
    Fixture {
        name: "bad_hash_iter.rs",
        path: "crates/service/src/bad_hash_iter.rs",
        expect_rule: "det-collections",
        source: include_str!("../fixtures/bad_hash_iter.rs"),
    },
    Fixture {
        name: "bad_wallclock.rs",
        path: "crates/core/src/bad_wallclock.rs",
        expect_rule: "det-wallclock",
        source: include_str!("../fixtures/bad_wallclock.rs"),
    },
    Fixture {
        name: "bad_rng.rs",
        path: "crates/simulator/src/bad_rng.rs",
        expect_rule: "det-rng",
        source: include_str!("../fixtures/bad_rng.rs"),
    },
    Fixture {
        name: "bad_relaxed.rs",
        path: "crates/simulator/src/alloc.rs",
        expect_rule: "atomic-ordering",
        source: include_str!("../fixtures/bad_relaxed.rs"),
    },
    Fixture {
        name: "bad_unpaired_release.rs",
        path: "crates/simulator/src/alloc.rs",
        expect_rule: "atomic-ordering",
        source: include_str!("../fixtures/bad_unpaired_release.rs"),
    },
    Fixture {
        name: "bad_unsafe.rs",
        path: "crates/spatial/src/bad_unsafe.rs",
        expect_rule: "unsafe-safety",
        source: include_str!("../fixtures/bad_unsafe.rs"),
    },
    Fixture {
        name: "bad_float_sort.rs",
        path: "crates/matching/src/bad_float_sort.rs",
        expect_rule: "float-total-order",
        source: include_str!("../fixtures/bad_float_sort.rs"),
    },
    Fixture {
        name: "bad_waiver.rs",
        path: "crates/telemetry/src/bad_waiver.rs",
        expect_rule: "waiver",
        source: include_str!("../fixtures/bad_waiver.rs"),
    },
    Fixture {
        name: "bad_stale_waiver.rs",
        path: "crates/core/src/bad_stale_waiver.rs",
        expect_rule: "stale-waiver",
        source: include_str!("../fixtures/bad_stale_waiver.rs"),
    },
];

/// Runs the known-bad fixture suite. Returns the list of fixtures that
/// FAILED to produce their expected violation (empty = self-test
/// passes).
pub fn self_test() -> Vec<&'static str> {
    FIXTURES
        .iter()
        .filter(|f| {
            let analysis = analyze(f.path, f.source);
            !analysis.violations.iter().any(|v| v.rule == f.expect_rule)
        })
        .map(|f| f.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every known-bad fixture must trip its rule — the self-test the
    /// CI step runs, wired as a unit test too so `cargo test` alone
    /// catches a no-op'd rule.
    #[test]
    fn every_fixture_fires_its_rule() {
        let failures = self_test();
        assert!(
            failures.is_empty(),
            "fixtures did not produce their expected violations: {failures:?}"
        );
    }

    /// Fixture findings are precise: the expected rule fires at the
    /// marked line, not just somewhere in the file.
    #[test]
    fn fixture_violations_anchor_to_marked_lines() {
        for fixture in FIXTURES {
            let analysis = analyze(fixture.path, fixture.source);
            // Every fixture marks its bad lines with `BAD` in a
            // trailing comment; collect them from the raw source.
            let bad_lines: Vec<u32> = fixture
                .source
                .lines()
                .enumerate()
                .filter(|(_, l)| l.contains("~BAD~"))
                .map(|(i, _)| i as u32 + 1)
                .collect();
            assert!(
                !bad_lines.is_empty(),
                "{}: fixture has no ~BAD~ markers",
                fixture.name
            );
            for line in bad_lines {
                assert!(
                    analysis
                        .violations
                        .iter()
                        .any(|v| v.line == line && v.rule == fixture.expect_rule),
                    "{}: expected a {} violation at line {line}, got {:?}",
                    fixture.name,
                    fixture.expect_rule,
                    analysis.violations
                );
            }
        }
    }

    /// A reasoned waiver suppresses the violation and lands in the
    /// waived audit trail; the same code without a reason stays a
    /// violation *plus* a waiver audit.
    #[test]
    fn reasoned_waivers_suppress_and_audit() {
        let src = "\
// lint-allow(det-wallclock): deadline math, excluded from bits
fn f() { let t = Instant::now(); }
";
        let analysis = analyze("crates/core/src/x.rs", src);
        assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
        assert_eq!(analysis.waived.len(), 1);
        assert_eq!(analysis.waived[0].rule, "det-wallclock");

        let src = "\
// lint-allow(det-wallclock)
fn f() { let t = Instant::now(); }
";
        let analysis = analyze("crates/core/src/x.rs", src);
        let rules: Vec<&str> = analysis.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"waiver"), "reasonless waiver not audited");
        assert!(
            rules.contains(&"det-wallclock"),
            "reasonless waiver must not suppress"
        );
    }

    /// A waiver for rule A does not suppress rule B, and unknown rule
    /// names are flagged.
    #[test]
    fn waivers_are_rule_scoped_and_names_checked() {
        let src = "\
// lint-allow(det-rng): wrong rule for this line
fn f() { let t = Instant::now(); }
// lint-allow(not-a-rule): whatever
fn g() {}
";
        let analysis = analyze("crates/core/src/x.rs", src);
        let rules: Vec<&str> = analysis.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"det-wallclock"));
        assert!(rules.contains(&"waiver"));
    }

    /// A well-formed waiver that no longer suppresses anything is
    /// reported as `stale-waiver`; the same waiver with a live
    /// violation under it stays a plain waived entry.
    #[test]
    fn stale_waivers_are_flagged_and_live_ones_are_not() {
        let stale = "\
// lint-allow(det-wallclock): excused code was refactored away
fn f(x: u64) -> u64 { x }
";
        let analysis = analyze("crates/core/src/x.rs", stale);
        assert!(
            analysis
                .violations
                .iter()
                .any(|v| v.rule == "stale-waiver" && v.line == 1),
            "{:?}",
            analysis.violations
        );

        let live = "\
// lint-allow(det-wallclock): deadline math, excluded from bits
fn f() { let t = Instant::now(); }
";
        let analysis = analyze("crates/core/src/x.rs", live);
        assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
        assert_eq!(analysis.waived.len(), 1);

        // Malformed waivers are `waiver` violations, not double-counted
        // as stale.
        let reasonless = "\
// lint-allow(det-wallclock)
fn f(x: u64) -> u64 { x }
";
        let analysis = analyze("crates/core/src/x.rs", reasonless);
        let rules: Vec<&str> = analysis.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["waiver"], "{:?}", analysis.violations);
    }

    /// Rules respect their path scoping: the same source is clean in
    /// an allow-listed tool crate and dirty in a deterministic module;
    /// test regions are exempt from the determinism rules.
    #[test]
    fn path_and_test_scoping() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(analyze("crates/bench/src/x.rs", src).violations.is_empty());
        assert!(!analyze("crates/core/src/x.rs", src).violations.is_empty());
        assert!(analyze("tests/integration.rs", src).violations.is_empty());

        let gated = "\
#[cfg(test)]
mod tests {
    fn f() { let t = Instant::now(); }
}
";
        assert!(
            analyze("crates/core/src/x.rs", gated).violations.is_empty(),
            "cfg(test) regions must be exempt from det-wallclock"
        );
    }

    /// Strings and comments never produce violations — the reason this
    /// pass owns a real lexer instead of grepping.
    #[test]
    fn strings_and_comments_are_invisible() {
        let src = r##"
// Instant::now() in a comment, thread_rng too.
fn f() {
    let s = "Instant::now() thread_rng unsafe partial_cmp";
    let r = r#"SystemTime"# ;
    let c = '{';
}
"##;
        let analysis = analyze("crates/core/src/x.rs", src);
        assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
    }

    /// The JSON report carries the v1 schema tag and per-rule counts.
    #[test]
    fn report_schema() {
        let report = LintReport {
            files_scanned: 3,
            violations: vec![FileViolation {
                file: "crates/core/src/x.rs".into(),
                violation: Violation {
                    rule: "det-wallclock",
                    line: 7,
                    message: "m".into(),
                },
            }],
            waived: vec![],
        };
        let value = report.to_value();
        assert_eq!(
            value.get("schema"),
            Some(&Value::String("maps-lint/v1".into()))
        );
        assert_eq!(value.get("files_scanned"), Some(&Value::Number(3.0)));
        let rules = value.get("rules").unwrap();
        assert_eq!(
            rules.get("det-wallclock").unwrap().get("violations"),
            Some(&Value::Number(1.0))
        );
        // Renders to JSON without error.
        let text = serde_json::to_string(&value).unwrap();
        assert!(text.contains("maps-lint/v1"));
    }

    /// The real workspace must scan clean — the library-level version
    /// of the CI gate (every pre-existing violation is fixed or carries
    /// a reasoned waiver).
    #[test]
    fn workspace_scans_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = scan_workspace(&root).expect("workspace scan");
        assert!(report.files_scanned > 50, "walker lost the workspace");
        let rendered: Vec<String> = report
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{}:{} [{}] {}",
                    v.file, v.violation.line, v.violation.rule, v.violation.message
                )
            })
            .collect();
        assert!(
            report.is_clean(),
            "workspace has lint violations:\n{}",
            rendered.join("\n")
        );
    }
}
