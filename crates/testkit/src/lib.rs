//! # maps-testkit
//!
//! Cross-crate test support for the workspace's determinism contract:
//! a replay must return the same bits as the run it replays — the
//! service as the batch engine, a recovered run as an uninterrupted
//! one, any producer split as serial `push`.
//!
//! * [`Labelled`] / [`first_difference`] / [`assert_words_eq`] — a
//!   result as words (floats through [`f64::to_bits`], so `0.0 != -0.0`
//!   and a moved rounding shows), and a divergence reported as the first
//!   differing word, named by its label.
//! * [`assert_golden`] — the one way an outcome is pinned: the lines a
//!   test produces (labelled words, or JSON rows) against a committed
//!   file under the calling crate's `tests/golden/`, with the same
//!   first-difference report. It never writes into the checkout; a
//!   mismatch prints the `cp` that blesses the produced lines.
//!
//! Beside them, the workspace's one randomized-test loop and what its
//! cases draw from:
//!
//! * [`explore`] — one `u64` seed draws a case, one check runs it, and
//!   a failing case is halved while it still fails; the panic names the
//!   seed, the drawn case and the shrunk one, so a failure is re-run by
//!   its seed. [`XorShift::seeded`] turns a seed into a stream.
//! * the seeded [`FaultPlan`] of crash and corruption points, which the
//!   service's seeded explorer draws from. Producer schedules are not
//!   among them: the explorer merges in-memory lanes on one thread, and
//!   where a lane is cut into runs is part of its seeded case.
//!
//! Used by `maps-core` (the graph cache, the pricing-table property,
//! the Monte-Carlo golden), `maps-matching` (the kernels against
//! Kuhn–Munkres), `maps-spatial` (the regrid oracle), `maps-experiments`
//! (the JSON row golden), `maps-simulator` (the live-sized soak, the
//! checkpoint golden), `maps-service` (the seeded explorer and the
//! soaks) and the root package's `tests/properties.rs` and
//! `tests/pipeline.rs` (the strategy golden).

#![warn(missing_docs)]

use std::path::Path;

/// Deterministic xorshift64 for test fixtures and churn scripts — one
/// shared generator so fixture distributions cannot silently diverge
/// between crates (no `rand` dependency needed in test hot paths).
#[derive(Debug, Clone)]
pub struct XorShift(pub u64);

impl XorShift {
    /// The stream a `seed` names: splitmix64's finalizer, so that
    /// neighbouring seeds start unrelated streams, and `| 1`, so that no
    /// seed starts at the all-zero fixed point.
    pub fn seeded(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self((z ^ (z >> 31)) | 1)
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform f64 in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A draw from `0..n` (by remainder; `n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Runs `check` on the case `draw(seed)` for every seed. On a failure
/// it replaces the case with `halve(case)` while the halved case still
/// fails, then panics with the seed, the drawn case and the shrunk one.
///
/// A check fails by panicking — an `assert!` or any other `panic!` — and
/// the panic hook prints each failing run's own message above the
/// loop's. `halve` returns `None` when a case has nothing left to halve,
/// so a case with no list in it reports its seed and itself.
///
/// # Panics
/// On the first seed whose case fails `check`.
pub fn explore<C: Clone + std::fmt::Debug>(
    seeds: impl IntoIterator<Item = u64>,
    draw: impl Fn(u64) -> C,
    halve: impl Fn(&C) -> Option<C>,
    check: impl Fn(&C),
) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let fails = |case: &C| catch_unwind(AssertUnwindSafe(|| check(case))).is_err();
    for seed in seeds {
        let case = draw(seed);
        if !fails(&case) {
            continue;
        }
        let mut small = case.clone();
        while let Some(half) = halve(&small).filter(|half| fails(half)) {
            small = half;
        }
        panic!("seed {seed:#x} failed\n  drawn: {case:?}\n  shrunk: {small:?}");
    }
}

/// Words with one label each — `Outcome::deterministic_bits` beside
/// `Outcome::deterministic_labels` — so that a failing assertion names
/// the first differing field instead of printing two word lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labelled {
    /// The words.
    pub words: Vec<u64>,
    /// One label per word.
    pub labels: Vec<String>,
}

impl Labelled {
    /// One line per word, `label 0x…`: the form [`assert_golden`] reads
    /// and [`first_difference`] compares. A word past the last label is
    /// labelled `word[i]`.
    pub fn lines(&self) -> Vec<String> {
        let label = |i| (self.labels.get(i).cloned()).unwrap_or_else(|| format!("word[{i}]"));
        let words = self.words.iter().enumerate();
        words.map(|(i, w)| format!("{} {w:#x}", label(i))).collect()
    }
}

/// Where `got` first differs from `want`, as `"line n: want → got"` (a
/// line past the end of one list reads `-`), or `None` when the two are
/// equal. A word's line starts with its label, so the description names
/// the field.
pub fn first_difference(want: &[String], got: &[String]) -> Option<String> {
    let i = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i))?;
    let line = |lines: &[String]| lines.get(i).cloned().unwrap_or_else(|| "-".into());
    Some(format!("line {}: {} → {}", i + 1, line(want), line(got)))
}

/// Asserts `got` is `want`'s words, naming the first differing label.
///
/// # Panics
/// With `what` and [`first_difference`]'s description when they differ.
#[track_caller]
pub fn assert_words_eq(want: &Labelled, got: &[u64], what: impl std::fmt::Display) {
    if want.words != got {
        let got = Labelled {
            words: got.to_vec(),
            labels: want.labels.clone(),
        };
        let diff = first_difference(&want.lines(), &got.lines()).expect("the words differ");
        panic!("{what}: first divergent {diff}");
    }
}

/// Asserts `lines` are the golden file `tests/golden/<name>` of the
/// crate at `crate_dir` — a test passes `env!("CARGO_MANIFEST_DIR")` —
/// line for line. Words are [`Labelled::lines`]; a JSON row is one line.
///
/// Nothing here writes into the checkout. On a mismatch, or when the
/// file is missing, the produced lines go to `<name>` in a per-process
/// directory under [`std::env::temp_dir`], and the panic prints the
/// `cp` that blesses them: a golden moves only by that copy, and the
/// diff it leaves is reviewed like code.
///
/// # Panics
/// When the file is missing or unreadable, or on the first line where
/// `lines` differ from it, named by [`first_difference`].
#[track_caller]
pub fn assert_golden(crate_dir: &str, name: &str, lines: &[String]) {
    let golden = Path::new(crate_dir).join("tests/golden").join(name);
    let diff = match std::fs::read_to_string(&golden) {
        Ok(text) => first_difference(&text.lines().map(String::from).collect::<Vec<_>>(), lines),
        Err(e) => Some(format!("unreadable: {e}")),
    };
    let Some(diff) = diff else { return };
    let dir = std::env::temp_dir().join(format!("maps-golden-{}", std::process::id()));
    let produced = dir.join(name);
    let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&produced, text));
    written.unwrap_or_else(|e| panic!("cannot write {}: {e}", produced.display()));
    let (golden, produced) = (golden.display(), produced.display());
    panic!("golden {golden}: {diff}\n  to bless the produced lines: cp {produced} {golden}");
}

/// Where a run dies: the crash point of a [`Fault`], in its epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crash {
    /// Everything dies right after the tick closing the epoch.
    EpochBoundary,
    /// Producer `producer` dies mid-epoch after `events_sent` of its
    /// events; the lanes merged before it had delivered their whole
    /// share, the ones after it nothing. A supervisor then reconnects
    /// every lane at its recovered watermark — the victim, when
    /// `resend`, from the start of its share (at-least-once delivery).
    ProducerKill {
        /// Lane of the victim.
        producer: u32,
        /// Events of the epoch the victim got out first.
        events_sent: u32,
        /// Whether the victim re-sends what it had already sent.
        resend: bool,
    },
    /// The tick closing the epoch panics under a serial caller: a typed
    /// error out of `try_push`, then recovery.
    TickPanic,
    /// The tick closing the epoch panics under the multi-producer
    /// merge: a typed error out of the sequencer's loop, then recovery.
    /// (What a producer blocked on that sequencer sees is the ingest
    /// lane's own suite.)
    SequencerDeath,
}

/// What a corruption point does to the bytes of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// One bit flipped.
    BitFlip,
    /// The file cut short.
    Truncate,
    /// One frame written twice.
    DuplicateFrame,
    /// Two adjacent frames written in each other's place.
    SwapFrames,
    /// A frame's length field overwritten.
    LyingLength,
    /// One checkpoint word overwritten and the frame re-hashed: valid
    /// framing, lying content.
    LyingCheckpointWord,
}

/// The six [`Mutation`]s, in declaration order.
pub const MUTATIONS: [Mutation; 6] = [
    Mutation::BitFlip,
    Mutation::Truncate,
    Mutation::DuplicateFrame,
    Mutation::SwapFrames,
    Mutation::LyingLength,
    Mutation::LyingCheckpointWord,
];

/// One mutation of one file a crash left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// `0` is the journal, `n` the `n`-th newest checkpoint (1 or 2).
    pub file: u32,
    /// What happens to the bytes.
    pub mutation: Mutation,
    /// Seeded position; the test reduces it modulo the bits, bytes or
    /// frames the file holds.
    pub at: u64,
    /// Seeded value: a length, a checkpoint word, a shape.
    pub value: u64,
}

/// One deterministic fault scenario drawn from a [`FaultPlan`]: a crash
/// point, and the corruption recovery then finds (if any). Pure data: a
/// test maps it onto the service's public hooks, so a failing seed is a
/// reproducible bug report, not a flake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The epoch the run dies in.
    pub epoch: u32,
    /// Where in it the run dies.
    pub crash: Crash,
    /// Whether the process's buffered journal writes reached the file
    /// before it died (a killed process loses them).
    pub flushed: bool,
    /// The damage recovery finds, if any.
    pub corruption: Option<Corruption>,
}

/// Seeded generator of [`Fault`]s over a fixed topology (`producers`
/// lanes × `epochs` periods): every field is drawn from one
/// [`XorShift`] stream, and half the draws carry a corruption.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: XorShift,
    producers: u32,
    epochs: u32,
}

impl FaultPlan {
    /// A plan for the given topology. `producers` and `epochs` must
    /// both be ≥ 1.
    pub fn new(seed: u64, producers: u32, epochs: u32) -> Self {
        assert!(producers >= 1 && epochs >= 1);
        Self {
            // Avoid the all-zero xorshift fixed point.
            rng: XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            producers,
            epochs,
        }
    }

    /// Draws the next fault scenario.
    pub fn next_fault(&mut self) -> Fault {
        let rng = &mut self.rng;
        let epoch = rng.below(u64::from(self.epochs)) as u32;
        let crash = match rng.below(4) {
            0 => Crash::EpochBoundary,
            1 => Crash::ProducerKill {
                producer: rng.below(u64::from(self.producers)) as u32,
                events_sent: rng.below(6) as u32,
                resend: rng.below(2) == 0,
            },
            2 => Crash::TickPanic,
            _ => Crash::SequencerDeath,
        };
        let flushed = rng.below(2) == 0;
        let corruption = (rng.below(2) == 0).then(|| Corruption {
            file: rng.below(3) as u32,
            mutation: MUTATIONS[rng.below(6) as usize],
            at: rng.next_u64(),
            value: rng.next_u64(),
        });
        Fault {
            epoch,
            crash,
            flushed,
            corruption,
        }
    }
}

/// Known-bad code for the two `clippy.toml` bans that no live waiver in
/// the tree exercises; compiled under `cargo clippy --all-targets`,
/// never run. A ban that rots into a no-op leaves its expectation
/// unfulfilled, which `-D warnings` turns into an error at this line.
#[cfg(test)]
mod lint_canary {
    #[expect(
        clippy::disallowed_types,
        reason = "canary: no other code names `HashMap`, so nothing else would notice the ban gone"
    )]
    type _HashOrdered = std::collections::HashMap<u32, f64>;

    #[expect(
        clippy::disallowed_methods,
        reason = "canary: `partial_cmp` on floats; the only other callers are two integer derives"
    )]
    fn _float_order(a: f64, b: f64) -> Option<std::cmp::Ordering> {
        a.partial_cmp(&b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The message `f` panics with, or `None` when it returns.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(*payload.downcast::<String>().expect("a formatted message"))
    }

    /// This crate's golden `name` against `lines`: `None` when they are
    /// equal, else the panic message, the produced file it names and
    /// that file's text. The file is removed; no two tests fail on one
    /// name, so none reads another's.
    fn golden(name: &str, lines: &[String]) -> Option<(String, PathBuf, String)> {
        let message = panic_message(|| assert_golden(env!("CARGO_MANIFEST_DIR"), name, lines))?;
        let cp = message.split("cp ").nth(1).expect("the bless command");
        let produced = PathBuf::from(cp.split(' ').next().unwrap());
        let text = std::fs::read_to_string(&produced).unwrap();
        std::fs::remove_file(&produced).unwrap();
        Some((message, produced, text))
    }

    /// Lines labelled `a`, `b`, `c`: `tests/golden/words.txt` holds
    /// `words(&[1, 2, 3])`.
    fn words(words: &[u64]) -> Vec<String> {
        let labels = ["a", "b", "c"].map(String::from).to_vec();
        Labelled {
            words: words.to_vec(),
            labels,
        }
        .lines()
    }

    #[test]
    fn an_equal_golden_passes() {
        assert!(golden("words.txt", &words(&[1, 2, 3])).is_none());
    }

    /// A changed line is named by its label; a list shorter or longer
    /// than the file reads `-` on the side that has no line.
    #[test]
    fn a_divergence_names_its_label() {
        for (got, want) in [
            (&[1, 2, 4][..], "line 3: c 0x3 → c 0x4"),
            (&[1, 2], "line 3: c 0x3 → -"),
            (&[1, 2, 3, 9], "line 4: - → word[3] 0x9"),
        ] {
            let (message, ..) = golden("words.txt", &words(got)).expect(want);
            assert!(message.contains(want), "{message}");
        }
    }

    #[test]
    fn a_missing_golden_fails_and_is_not_created() {
        let (message, ..) = golden("absent.txt", &words(&[1])).expect("no such file");
        assert!(message.contains("unreadable"), "{message}");
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/absent.txt");
        assert!(!path.exists());
    }

    #[test]
    fn the_produced_lines_land_under_the_temp_directory() {
        let rows = [r#"{"x":1}"#, r#"{"x":2}"#].map(String::from);
        let (message, produced, text) = golden("rows.jsonl", &rows).expect("no such file");
        assert!(produced.starts_with(std::env::temp_dir()), "{message}");
        assert_eq!(text, "{\"x\":1}\n{\"x\":2}\n");
    }

    #[test]
    /// Coverage of every crash and mutation kind is asserted on the
    /// draws the service's explorer actually makes
    /// (`budget_covers_every_axis`).
    fn fault_plan_is_deterministic_and_in_range() {
        let draw = |seed: u64| {
            let mut plan = FaultPlan::new(seed, 4, 8);
            (0..64).map(|_| plan.next_fault()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42), "same seed, same schedule");
        assert_ne!(draw(42), draw(43), "different seeds differ");
        for f in &draw(7) {
            assert!(f.epoch < 8);
            if let Crash::ProducerKill { producer, .. } = f.crash {
                assert!(producer < 4);
            }
            assert!(f.corruption.is_none_or(|c| c.file < 3));
        }
    }

    #[test]
    fn a_stream_never_starts_at_zero() {
        // `0xf1de83e19937733d` is the inverse of the golden-ratio
        // multiplier: an unmixed `seed · C ^ 1` would be zero here.
        let mut rng = XorShift::seeded(0xf1de_83e1_9937_733d);
        assert_ne!(rng.0, 0);
        assert_ne!(rng.next_u64(), 0);
    }

    /// Halves a list: its first half, while it has two entries or more.
    #[expect(
        clippy::ptr_arg,
        reason = "`explore` hands `halve` a `&C`, here `&Vec<u64>`"
    )]
    fn halve_list(list: &Vec<u64>) -> Option<Vec<u64>> {
        (list.len() > 1).then(|| list[..list.len() / 2].to_vec())
    }

    /// The message [`explore`] panics with, or `None` when every case
    /// passes.
    fn explore_message<C: Clone + std::fmt::Debug>(
        seeds: std::ops::Range<u64>,
        draw: impl Fn(u64) -> C,
        halve: impl Fn(&C) -> Option<C>,
        check: impl Fn(&C),
    ) -> Option<String> {
        panic_message(|| explore(seeds, draw, halve, check))
    }

    #[test]
    fn a_seed_redraws_its_case() {
        let draw = |seed: u64| {
            let mut rng = XorShift::seeded(seed);
            (0..rng.below(9))
                .map(|_| rng.next_u64())
                .collect::<Vec<_>>()
        };
        let seen = || {
            let cases = std::cell::RefCell::new(Vec::new());
            explore(0..16, draw, halve_list, |case| {
                cases.borrow_mut().push(case.clone())
            });
            cases.into_inner()
        };
        assert_eq!(seen(), seen());
        assert_eq!(seen(), (0..16).map(draw).collect::<Vec<_>>());
        let failing = || explore_message(0..16, draw, halve_list, |case| assert!(case.len() < 5));
        assert_eq!(failing(), failing());
    }

    #[test]
    fn a_failure_names_its_seed_and_both_cases() {
        let message = explore_message(
            0..10,
            |seed| vec![seed; seed as usize],
            halve_list,
            |case| assert!(case.len() < 7, "too long"),
        );
        let message = message.expect("seed 7 fails");
        assert!(message.starts_with("seed 0x7 failed"), "{message}");
        assert!(
            message.contains("drawn: [7, 7, 7, 7, 7, 7, 7]"),
            "{message}"
        );
        // Its half, three long, passes: the shrunk case is the drawn one.
        assert!(
            message.contains("shrunk: [7, 7, 7, 7, 7, 7, 7]"),
            "{message}"
        );
        assert_eq!(
            explore_message(0..7, |s| vec![s; s as usize], halve_list, |_| ()),
            None
        );
    }

    #[test]
    fn halving_stops_at_the_smallest_failing_case() {
        // 96 → 48 → 24 → 12 → 6 fail; 3 passes.
        let message = explore_message(
            0..1,
            |_| (0..96).collect::<Vec<u64>>(),
            halve_list,
            |case| assert!(case.len() <= 5),
        );
        let message = message.expect("the drawn case fails");
        assert!(message.ends_with("shrunk: [0, 1, 2, 3, 4, 5]"), "{message}");
    }

    #[test]
    fn a_panic_in_check_is_caught_and_shrunk() {
        let message = explore_message(
            0..1,
            |_| vec![1u64; 40],
            halve_list,
            |case| {
                if case.len() > 5 {
                    panic!("boom at {}", case.len());
                }
            },
        );
        let message = message.expect("the drawn case panics");
        assert!(
            message.ends_with("shrunk: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]"),
            "{message}"
        );
    }

    #[test]
    fn a_case_with_nothing_to_halve_is_its_own_shrink() {
        let message = explore_message(
            0..100,
            |seed| (seed, seed * 3),
            |_| None,
            |&(seed, _)| assert!(seed < 42),
        );
        let message = message.expect("seed 42 fails");
        assert_eq!(
            message,
            "seed 0x2a failed\n  drawn: (42, 126)\n  shrunk: (42, 126)"
        );
    }
}
