//! The six repo-specific rules and the waiver machinery.
//!
//! Each rule encodes one clause of the ROADMAP's standing invariants as
//! a token-pattern check (see the crate docs for the rule table). Rules
//! are scoped by path class:
//!
//! * **Deterministic modules** — the crates whose state feeds
//!   `Outcome::deterministic_bits` (core, matching, market, spatial,
//!   telemetry, service, simulator). `det-collections` and
//!   `float-total-order` apply here.
//! * **Wall-clock allow-list** — the benchmark package under
//!   `crates/bench/`, testkit and lint, the tools that *measure* the
//!   system rather than being part of it. `det-wallclock` applies
//!   everywhere else.
//! * **Atomic protocol files** — the files whose correctness rests on
//!   hand-chosen memory orderings (`simulator/src/alloc.rs`).
//!   `atomic-ordering` applies there.
//! * Test code (`#[cfg(test)]`/`#[test]` regions, `tests/`, `examples/`,
//!   `benches/`) is exempt from the determinism rules — a test may time
//!   itself — but **not** from `unsafe-safety`, which applies to every
//!   line of the workspace.

use crate::lexer::{self, Token, TokenKind};

/// Every rule the pass knows. A waiver naming anything else is itself
/// a violation (`waiver` pseudo-rule) — so a typo cannot silently
/// disable enforcement.
pub const RULES: &[&str] = &[
    "det-collections",
    "det-wallclock",
    "det-rng",
    "atomic-ordering",
    "unsafe-safety",
    "float-total-order",
];

/// One finding, anchored to a file line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name (one of [`RULES`], or `waiver` for waiver-audit
    /// findings).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A violation that was suppressed by a reasoned waiver (still
/// reported, for the JSON audit trail).
#[derive(Debug, Clone)]
pub struct Waived {
    /// The waived rule.
    pub rule: &'static str,
    /// Line of the waived violation.
    pub line: u32,
    /// The waiver's stated reason.
    pub reason: String,
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Surviving (unwaived) violations.
    pub violations: Vec<Violation>,
    /// Violations suppressed by reasoned waivers.
    pub waived: Vec<Waived>,
}

const DETERMINISTIC_PATHS: &[&str] = &[
    "crates/core/src/",
    "crates/matching/src/",
    "crates/market/src/",
    "crates/spatial/src/",
    "crates/telemetry/src/",
    "crates/service/src/",
    "crates/simulator/src/",
];

// `crates/bench/` is the `maps_benchmark` package (its own manifest
// under `src/bin/maps_benchmark/`, scanned with the rest of the tree).
const WALLCLOCK_ALLOWED: &[&str] = &["crates/bench/", "crates/testkit/", "crates/lint/"];

const RNG_ALLOWED: &[&str] = &["crates/testkit/"];

const ATOMIC_PROTOCOL_FILES: &[&str] = &["crates/simulator/src/alloc.rs"];

/// Map/set methods whose visit order is the hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
        || path.contains("/benches/")
}

fn is_deterministic_path(path: &str) -> bool {
    DETERMINISTIC_PATHS.iter().any(|p| path.starts_with(p))
}

fn wallclock_allowed(path: &str) -> bool {
    WALLCLOCK_ALLOWED.iter().any(|p| path.starts_with(p))
}

fn rng_allowed(path: &str) -> bool {
    RNG_ALLOWED.iter().any(|p| path.starts_with(p))
}

fn is_atomic_protocol_file(path: &str) -> bool {
    ATOMIC_PROTOCOL_FILES.contains(&path)
}

/// Analyzes one file's source under every applicable rule and applies
/// waivers. `path` is workspace-relative with `/` separators — the
/// rules' scoping is entirely path-driven, which is what lets fixture
/// snippets impersonate any module.
pub fn analyze(path: &str, src: &str) -> FileAnalysis {
    let tokens = lexer::lex(src);
    let test_regions = lexer::test_lines(&tokens);
    let comments: Vec<&Token> = tokens.iter().filter(|t| t.is_comment()).collect();
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let in_test = |line: u32| is_test_path(path) || lexer::in_regions(&test_regions, line);

    let mut raw: Vec<Violation> = Vec::new();
    rule_unsafe_safety(&code, &comments, &mut raw);
    if is_atomic_protocol_file(path) {
        rule_atomic_ordering(&code, &comments, &in_test, &mut raw);
    }
    if !wallclock_allowed(path) {
        rule_det_wallclock(&code, &in_test, &mut raw);
    }
    if !rng_allowed(path) {
        rule_det_rng(&code, &mut raw);
    }
    if is_deterministic_path(path) {
        rule_det_collections(&code, &in_test, &mut raw);
        rule_float_total_order(&code, &in_test, &mut raw);
    }

    // One finding per (rule, line) — overlapping patterns (e.g. a
    // float sort whose comparator also chains .unwrap()) collapse.
    raw.sort_by(|a, b| (a.rule, a.line).cmp(&(b.rule, b.line)));
    raw.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);

    apply_waivers(&tokens, raw)
}

/// Splits raw findings into surviving vs. waived, and audits the
/// waiver comments themselves: a reason is required, the rule name must
/// exist, and — the `stale-waiver` audit — a well-formed waiver whose
/// covered lines no longer trip its rule is itself a violation. A stale
/// waiver is a license nobody is using: the code it excused was fixed
/// or moved, and leaving it behind silently pre-authorizes the next
/// regression on that line.
fn apply_waivers(tokens: &[Token], raw: Vec<Violation>) -> FileAnalysis {
    let waiver_comments = lexer::waivers(tokens);
    let mut out = FileAnalysis::default();

    for w in &waiver_comments {
        if !RULES.contains(&w.rule.as_str()) {
            out.violations.push(Violation {
                rule: "waiver",
                line: w.line,
                message: format!(
                    "waiver names unknown rule `{}` (known: {})",
                    w.rule,
                    RULES.join(", ")
                ),
            });
        } else if w.reason.is_empty() {
            out.violations.push(Violation {
                rule: "waiver",
                line: w.line,
                message: format!(
                    "waiver for `{}` has no reason — `// lint-allow({}): <why>` is required",
                    w.rule, w.rule
                ),
            });
        }
    }

    let mut used = vec![false; waiver_comments.len()];
    for v in raw {
        // A waiver covers its own line (trailing comment) and the line
        // directly below it.
        let waiver = waiver_comments.iter().position(|w| {
            w.rule == v.rule && !w.reason.is_empty() && (w.line == v.line || w.line + 1 == v.line)
        });
        match waiver {
            Some(i) => {
                used[i] = true;
                out.waived.push(Waived {
                    rule: v.rule,
                    line: v.line,
                    reason: waiver_comments[i].reason.clone(),
                });
            }
            None => out.violations.push(v),
        }
    }

    // Well-formed waivers that suppressed nothing are stale. Malformed
    // ones (unknown rule / missing reason) are already violations above
    // and could never have matched, so they are excluded here.
    for (w, used) in waiver_comments.iter().zip(&used) {
        if !used && RULES.contains(&w.rule.as_str()) && !w.reason.is_empty() {
            out.violations.push(Violation {
                rule: "stale-waiver",
                line: w.line,
                message: format!(
                    "waiver for `{}` no longer matches a violation on its covered lines \
                     (line {} or {}) — the excused code was fixed or moved; delete the waiver",
                    w.rule,
                    w.line,
                    w.line + 1
                ),
            });
        }
    }
    out
}

/// Is there a comment containing `needle` adjacent to `line` — trailing
/// on the line itself, or in the contiguous comment run ending on the
/// line directly above?
fn has_adjacent_comment(comments: &[&Token], line: u32, needle: &str) -> bool {
    // Trailing on the same line.
    if comments
        .iter()
        .any(|c| c.line == line && c.text.contains(needle))
    {
        return true;
    }
    // Comment run ending at line - 1: walk the chain of comments on
    // consecutive lines upward, accepting the needle anywhere in it.
    let mut target = line.saturating_sub(1);
    loop {
        let Some(c) = comments.iter().find(|c| c.end_line == target) else {
            return false;
        };
        if c.text.contains(needle) {
            return true;
        }
        if c.line == 0 {
            return false;
        }
        target = c.line - 1;
    }
}

/// `unsafe-safety`: every `unsafe` keyword (block, fn, impl, trait)
/// needs an immediately-preceding `// SAFETY:` comment. Applies to all
/// code, tests included — an undocumented unsafe block in a test is
/// still an undocumented proof obligation.
fn rule_unsafe_safety(code: &[&Token], comments: &[&Token], out: &mut Vec<Violation>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        if !has_adjacent_comment(comments, t.line, "SAFETY:") {
            let what = code
                .get(i + 1)
                .map(|n| n.text.as_str())
                .unwrap_or("")
                .to_string();
            let site = match what.as_str() {
                "fn" => "`unsafe fn` (document the caller contract)",
                "impl" => "`unsafe impl` (document why the invariants hold)",
                "trait" => "`unsafe trait`",
                _ => "`unsafe` block",
            };
            out.push(Violation {
                rule: "unsafe-safety",
                line: t.line,
                message: format!("{site} without an immediately-preceding `// SAFETY:` comment"),
            });
        }
    }
}

/// `atomic-ordering`: in the atomic protocol files, (a) every
/// `Ordering::Relaxed` access and every `fence(…)` carries an adjacent
/// `// ordering:` justification, and (b) a `Release` store of a field
/// must be paired with an `Acquire` (or `SeqCst`) load of the same
/// field somewhere in the file, and vice versa — an unpaired half of a
/// publication protocol synchronizes nothing.
fn rule_atomic_ordering(
    code: &[&Token],
    comments: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    use std::collections::BTreeMap;
    // (a) justification comments for Relaxed and fences.
    for i in 0..code.len() {
        if in_test(code[i].line) {
            continue;
        }
        let relaxed = path_match(code, i, &["Ordering", ":", ":", "Relaxed"]);
        let fence = code[i].text == "fence"
            && code[i].kind == TokenKind::Ident
            && code.get(i + 1).is_some_and(|t| t.text == "(");
        if relaxed && !has_adjacent_comment(comments, code[i + 3].line, "ordering:") {
            out.push(Violation {
                rule: "atomic-ordering",
                line: code[i + 3].line,
                message: "`Ordering::Relaxed` without an adjacent `// ordering:` justification"
                    .to_string(),
            });
        }
        if fence && !has_adjacent_comment(comments, code[i].line, "ordering:") {
            out.push(Violation {
                rule: "atomic-ordering",
                line: code[i].line,
                message: "`fence(…)` without an adjacent `// ordering:` justification".to_string(),
            });
        }
    }

    // (b) Release-store / Acquire-load pairing per atomic field.
    #[derive(Default)]
    struct Access {
        stores: Vec<(String, u32)>,
        loads: Vec<(String, u32)>,
    }
    let mut fields: BTreeMap<String, Access> = BTreeMap::new();
    for i in 0..code.len() {
        if in_test(code[i].line) {
            continue;
        }
        let op = code[i].text.as_str();
        if (op != "load" && op != "store")
            || code[i].kind != TokenKind::Ident
            || code.get(i + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        // Receiver: `field.load(…)`, `self.field.load(…)`, or the
        // newtype-wrapped shape `self.field.0.load(…)`.
        if i < 2 || code[i - 1].text != "." {
            continue;
        }
        let mut r = i - 2;
        if code[r].text == "0" && r >= 2 && code[r - 1].text == "." {
            r -= 2;
        }
        if code[r].kind != TokenKind::Ident {
            continue;
        }
        let field = code[r].text.clone();
        // First `Ordering::X` inside the call's parentheses.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut ordering = None;
        while j < code.len() {
            match code[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "Ordering"
                    if path_match(code, j, &["Ordering", ":", ":"]) && ordering.is_none() =>
                {
                    ordering = code.get(j + 3).map(|t| t.text.clone());
                }
                _ => {}
            }
            j += 1;
        }
        let Some(ordering) = ordering else { continue };
        let entry = fields.entry(field).or_default();
        let rec = (ordering, code[i].line);
        if op == "store" {
            entry.stores.push(rec);
        } else {
            entry.loads.push(rec);
        }
    }
    for (field, access) in &fields {
        let has = |side: &[(String, u32)], names: &[&str]| {
            side.iter().any(|(o, _)| names.contains(&o.as_str()))
        };
        if let Some((_, line)) = access
            .stores
            .iter()
            .find(|(o, _)| o == "Release")
            .filter(|_| !has(&access.loads, &["Acquire", "SeqCst"]))
        {
            out.push(Violation {
                rule: "atomic-ordering",
                line: *line,
                message: format!(
                    "`{field}` has a Release store but no Acquire load in this file — \
                     the publication has no observer to synchronize with"
                ),
            });
        }
        if let Some((_, line)) = access
            .loads
            .iter()
            .find(|(o, _)| o == "Acquire")
            .filter(|_| !has(&access.stores, &["Release", "SeqCst"]))
        {
            out.push(Violation {
                rule: "atomic-ordering",
                line: *line,
                message: format!(
                    "`{field}` has an Acquire load but no Release store in this file — \
                     the acquire pairs with nothing"
                ),
            });
        }
    }
}

/// `det-wallclock`: `Instant::now` / `SystemTime` only in the
/// bench/timing allow-list. Wall-clock in a deterministic module is
/// either a latent nondeterminism bug or a timing field that must be
/// excluded from `deterministic_bits` — the waiver reason must say
/// which.
fn rule_det_wallclock(code: &[&Token], in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Violation>) {
    for i in 0..code.len() {
        if in_test(code[i].line) {
            continue;
        }
        if path_match(code, i, &["Instant", ":", ":", "now"]) {
            out.push(Violation {
                rule: "det-wallclock",
                line: code[i].line,
                message: "`Instant::now()` outside the bench/timing allow-list".to_string(),
            });
        }
        if code[i].kind == TokenKind::Ident
            && (code[i].text == "SystemTime" || code[i].text == "UNIX_EPOCH")
        {
            out.push(Violation {
                rule: "det-wallclock",
                line: code[i].line,
                message: format!("`{}` outside the bench/timing allow-list", code[i].text),
            });
        }
    }
}

/// `det-rng`: no ambient randomness outside `maps-testkit`. Every
/// random draw in this workspace must come from an explicitly seeded
/// generator, or replay equality is broken by construction. Applies to
/// test code too — a test that cannot be replayed cannot shrink.
fn rule_det_rng(code: &[&Token], out: &mut Vec<Violation>) {
    const AMBIENT: &[&str] = &[
        "thread_rng",
        "ThreadRng",
        "from_entropy",
        "OsRng",
        "getrandom",
    ];
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident {
            continue;
        }
        if AMBIENT.contains(&code[i].text.as_str()) {
            out.push(Violation {
                rule: "det-rng",
                line: code[i].line,
                message: format!(
                    "ambient randomness `{}` — derive every RNG from an explicit seed",
                    code[i].text
                ),
            });
        }
        if path_match(code, i, &["rand", ":", ":", "random"]) {
            out.push(Violation {
                rule: "det-rng",
                line: code[i].line,
                message: "`rand::random` draws from the thread RNG — seed explicitly".to_string(),
            });
        }
    }
}

/// `det-collections`: no `HashMap`/`HashSet` *iteration* in the
/// deterministic modules. Bindings typed or initialized as hash
/// collections are tracked through the file; calling an
/// order-exposing method on one (or `for`-looping over one) is the
/// violation — hash iteration order is unspecified, so anything
/// downstream of it cannot be bit-stable.
fn rule_det_collections(code: &[&Token], in_test: &dyn Fn(u32) -> bool, out: &mut Vec<Violation>) {
    use std::collections::BTreeSet;
    // Pass 1: names bound to hash collections anywhere in the file
    // (`x: HashMap<…>` fields/params/lets, `x = HashMap::new()`).
    let mut hashy: BTreeSet<String> = BTreeSet::new();
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident
            || (code[i].text != "HashMap" && code[i].text != "HashSet")
        {
            continue;
        }
        // Rewind over a leading path (`std::collections::HashMap`).
        let mut j = i;
        while j >= 3
            && code[j - 1].text == ":"
            && code[j - 2].text == ":"
            && code[j - 3].kind == TokenKind::Ident
        {
            j -= 3;
        }
        // Rewind over reference sigils in type position.
        while j >= 1
            && (code[j - 1].text == "&"
                || code[j - 1].text == "mut"
                || code[j - 1].kind == TokenKind::Lifetime)
        {
            j -= 1;
        }
        if j >= 2 && code[j - 1].text == ":" && code[j - 2].kind == TokenKind::Ident {
            // Exclude `::` (path), match only a type ascription colon.
            if j < 3 || code[j - 3].text != ":" {
                hashy.insert(code[j - 2].text.clone());
            }
        } else if j >= 2 && code[j - 1].text == "=" && code[j - 2].kind == TokenKind::Ident {
            hashy.insert(code[j - 2].text.clone());
        }
    }
    if hashy.is_empty() {
        return;
    }
    // Pass 2: order-exposing uses of those names.
    for i in 0..code.len() {
        if in_test(code[i].line) {
            continue;
        }
        if code[i].kind == TokenKind::Ident
            && hashy.contains(&code[i].text)
            && code.get(i + 1).is_some_and(|t| t.text == ".")
            && code
                .get(i + 2)
                .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
            && code.get(i + 3).is_some_and(|t| t.text == "(")
        {
            out.push(Violation {
                rule: "det-collections",
                line: code[i].line,
                message: format!(
                    "iteration over hash collection `{}` (`.{}`) in a deterministic module — \
                     hash order is unspecified; use a BTreeMap/sorted keys",
                    code[i].text,
                    code[i + 2].text
                ),
            });
        }
        if code[i].kind == TokenKind::Ident && code[i].text == "for" {
            // `for <pat> in <expr> {` — flag a hashy name in <expr>.
            let mut j = i + 1;
            let mut saw_in = false;
            while j < code.len() && j < i + 40 {
                match code[j].text.as_str() {
                    "in" if code[j].kind == TokenKind::Ident => saw_in = true,
                    "{" | ";" => break,
                    _ if saw_in
                        && code[j].kind == TokenKind::Ident
                        && hashy.contains(&code[j].text) =>
                    {
                        out.push(Violation {
                            rule: "det-collections",
                            line: code[j].line,
                            message: format!(
                                "`for` loop over hash collection `{}` in a deterministic \
                                 module — hash order is unspecified",
                                code[j].text
                            ),
                        });
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
}

/// `float-total-order`: bare `partial_cmp(…).unwrap()` chains and
/// float comparators built on `partial_cmp` in deterministic modules
/// must route through the repo's total-order keys (`f64::total_cmp`,
/// the `(distance, id)` keys) — `partial_cmp` both panics on NaN *and*
/// calls `-0.0 == +0.0`, which makes sort results input-layout
/// dependent.
fn rule_float_total_order(
    code: &[&Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    const SORTERS: &[&str] = &["sort_by", "sort_unstable_by", "min_by", "max_by"];
    for i in 0..code.len() {
        if in_test(code[i].line) || code[i].kind != TokenKind::Ident {
            continue;
        }
        if code[i].text == "partial_cmp" {
            if i > 0 && code[i - 1].text == "fn" {
                continue; // a PartialOrd impl, not a call site
            }
            if let Some(close) = matching_paren(code, i + 1) {
                if code.get(close + 1).is_some_and(|t| t.text == ".")
                    && code
                        .get(close + 2)
                        .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
                {
                    out.push(Violation {
                        rule: "float-total-order",
                        line: code[i].line,
                        message: "`partial_cmp(…).unwrap()` in a deterministic module — \
                                  route through `f64::total_cmp` or a total-order key"
                            .to_string(),
                    });
                }
            }
        }
        if SORTERS.contains(&code[i].text.as_str()) {
            if let Some(close) = matching_paren(code, i + 1) {
                if code[i + 1..close]
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && t.text == "partial_cmp")
                {
                    out.push(Violation {
                        rule: "float-total-order",
                        line: code[i].line,
                        message: format!(
                            "float `{}` comparator built on `partial_cmp` in a deterministic \
                             module — use `f64::total_cmp` or a total-order key",
                            code[i].text
                        ),
                    });
                }
            }
        }
    }
}

/// Do the code tokens starting at `i` spell out `pattern` (idents and
/// single-byte puncts)?
fn path_match(code: &[&Token], i: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, want)| {
        code.get(i + k)
            .is_some_and(|t| t.text == *want && !t.is_comment())
    })
}

/// Index of the `)` matching an `(` expected at `open`; `None` when
/// `open` is not a `(`.
fn matching_paren(code: &[&Token], open: usize) -> Option<usize> {
    if code.get(open).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}
