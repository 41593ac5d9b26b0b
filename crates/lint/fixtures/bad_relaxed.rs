//! Known-bad fixture: a bare `Ordering::Relaxed` in an atomic
//! protocol file with no `// ordering:` justification. Every Relaxed
//! there must say *why* the weaker ordering is sound, or the next
//! refactor silently breaks the happens-before chain.
use std::sync::atomic::{AtomicUsize, Ordering};

struct Cursor {
    pos: AtomicUsize,
}

impl Cursor {
    fn bump(&self) -> usize {
        self.pos.fetch_add(1, Ordering::Relaxed) // ~BAD~
    }
}
