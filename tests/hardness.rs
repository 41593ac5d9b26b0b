//! The executable NP-hardness construction of Theorem 1 (Appendix A):
//! a polynomial-time reduction from 3-SAT to the decision version of the
//! GDP problem. Test code only — nothing that ships calls it.
//!
//! For a CNF formula with `m` clauses and `n` variables:
//!
//! * each clause `C_i` becomes a **worker** `w_i`;
//! * each literal occurrence becomes a **requester**: positive literals
//!   have valuation `v = 1` and distance `d = 1`, negative literals have
//!   `v = 2` and `d = 0.5` (deterministic valuations — acceptance means
//!   `p ≤ v`);
//! * all requesters for variable `x_j` (both polarities) share one grid,
//!   so the platform must post them the *same* price;
//! * worker `w_i` can reach exactly the three requesters of its clause.
//!
//! Pricing grid `j` at 1 ⇔ assigning `x_j := true` (positive literals
//! yield revenue `1·1`, negative ones only `0.5`); pricing at 2 ⇔
//! `x_j := false` (only negative literals accept, yielding `2·0.5 = 1`).
//! The maximum total revenue is `m` iff the formula is satisfiable.
//!
//! Each price assignment is scored by the shipping clearing kernel,
//! [`MatchScratch::max_weight_value`], with weight `d_r·p_r` for a
//! requester who accepts and `0` for one who rejects. Its greedy is
//! exact when every edge of a requester weighs the same — as in
//! Definition 5 — and `maps-matching`'s `greedy_matches_hungarian` pins
//! it against Kuhn–Munkres.

use maps::matching::{BipartiteGraph, BipartiteGraphBuilder, MatchScratch};

/// A literal: variable index plus polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Literal {
    /// 0-based variable index.
    var: usize,
    /// `true` for `x`, `false` for `¬x`.
    positive: bool,
}

impl Literal {
    /// Positive literal `x_var`.
    fn pos(var: usize) -> Self {
        Self {
            var,
            positive: true,
        }
    }

    /// Negative literal `¬x_var`.
    fn neg(var: usize) -> Self {
        Self {
            var,
            positive: false,
        }
    }
}

/// A 3-SAT formula in CNF.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Formula {
    /// Number of variables.
    num_vars: usize,
    /// Clauses of exactly three literals.
    clauses: Vec<[Literal; 3]>,
}

impl Formula {
    /// Builds a formula, validating variable indices.
    ///
    /// # Panics
    /// Panics if a literal references an out-of-range variable.
    fn new(num_vars: usize, clauses: Vec<[Literal; 3]>) -> Self {
        for c in &clauses {
            for l in c {
                assert!(l.var < num_vars, "literal references variable {}", l.var);
            }
        }
        Self { num_vars, clauses }
    }

    /// Evaluates the formula under a truth assignment.
    fn is_satisfied(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars);
        self.clauses
            .iter()
            .all(|c| c.iter().any(|l| assignment[l.var] == l.positive))
    }

    /// Exhaustive satisfiability check (test-sized formulas only).
    fn brute_force_satisfiable(&self) -> Option<Vec<bool>> {
        assert!(self.num_vars <= 20, "brute force limited to 20 variables");
        for mask in 0u64..(1 << self.num_vars) {
            let assignment: Vec<bool> = (0..self.num_vars).map(|v| mask >> v & 1 == 1).collect();
            if self.is_satisfied(&assignment) {
                return Some(assignment);
            }
        }
        None
    }
}

/// The GDP instance produced by the reduction.
#[derive(Debug, Clone)]
struct GdpHardnessInstance {
    /// Requester–worker graph (requester `3i+j` ↔ worker `i`).
    graph: BipartiteGraph,
    /// Deterministic valuation per requester (1 or 2).
    valuations: Vec<f64>,
    /// Travel distance per requester (1 or 0.5).
    distances: Vec<f64>,
    /// Grid (= variable) of each requester.
    grid_of_requester: Vec<usize>,
    /// Number of clauses `m` (= number of workers).
    num_clauses: usize,
    /// Number of grids (= number of variables).
    num_grids: usize,
}

/// Performs the Theorem-1 reduction.
fn reduce(formula: &Formula) -> GdpHardnessInstance {
    let m = formula.clauses.len();
    let mut builder = BipartiteGraphBuilder::new(3 * m, m);
    let mut valuations = Vec::with_capacity(3 * m);
    let mut distances = Vec::with_capacity(3 * m);
    let mut grid_of_requester = Vec::with_capacity(3 * m);
    for (i, clause) in formula.clauses.iter().enumerate() {
        for (j, lit) in clause.iter().enumerate() {
            let r = 3 * i + j;
            builder.add_edge(r, i);
            if lit.positive {
                valuations.push(1.0);
                distances.push(1.0);
            } else {
                valuations.push(2.0);
                distances.push(0.5);
            }
            grid_of_requester.push(lit.var);
        }
    }
    GdpHardnessInstance {
        graph: builder.build(),
        valuations,
        distances,
        grid_of_requester,
        num_clauses: m,
        num_grids: formula.num_vars,
    }
}

impl GdpHardnessInstance {
    /// Total revenue when grid `j` is priced `1` iff `assignment[j]`
    /// (otherwise `2`): accepting requesters are those with `p ≤ v`, and
    /// the revenue is the maximum-weight matching over them.
    fn revenue_for_assignment(&self, assignment: &[bool]) -> f64 {
        assert_eq!(assignment.len(), self.num_grids);
        let n = self.graph.n_left();
        let price = |r: usize| {
            if assignment[self.grid_of_requester[r]] {
                1.0
            } else {
                2.0
            }
        };
        let weight = |r: usize| {
            let accepts = price(r) <= self.valuations[r];
            if accepts {
                price(r) * self.distances[r]
            } else {
                0.0
            }
        };
        let weights: Vec<f64> = (0..n).map(weight).collect();
        MatchScratch::new().max_weight_value(&self.graph, &weights)
    }

    /// The decision problem: does any price assignment reach revenue `m`?
    /// (Exhaustive over `2^num_grids` — test-sized instances only.)
    fn max_revenue_reaches_m(&self) -> bool {
        assert!(
            self.num_grids <= 20,
            "exhaustive search limited to 20 grids"
        );
        let m = self.num_clauses as f64;
        (0u64..(1 << self.num_grids)).any(|mask| {
            let assignment: Vec<bool> = (0..self.num_grids).map(|v| mask >> v & 1 == 1).collect();
            self.revenue_for_assignment(&assignment) >= m - 1e-9
        })
    }
}

/// (x0 ∨ x1 ∨ x2) ∧ (¬x0 ∨ ¬x1 ∨ x2) — satisfiable.
fn sat_formula() -> Formula {
    Formula::new(
        3,
        vec![
            [Literal::pos(0), Literal::pos(1), Literal::pos(2)],
            [Literal::neg(0), Literal::neg(1), Literal::pos(2)],
        ],
    )
}

/// (x ∨ x ∨ x) ∧ (¬x ∨ ¬x ∨ ¬x): x=true violates clause 2, x=false
/// violates clause 1 — unsatisfiable.
fn unsat_formula() -> Formula {
    Formula::new(
        1,
        vec![
            [Literal::pos(0), Literal::pos(0), Literal::pos(0)],
            [Literal::neg(0), Literal::neg(0), Literal::neg(0)],
        ],
    )
}

#[test]
fn formula_evaluation() {
    let f = sat_formula();
    assert!(f.is_satisfied(&[false, false, true]));
    assert!(f.is_satisfied(&[true, false, false]));
    assert!(!f.is_satisfied(&[true, true, false]));
    assert!(f.brute_force_satisfiable().is_some());
    assert!(unsat_formula().brute_force_satisfiable().is_none());
}

#[test]
fn reduction_shape() {
    let inst = reduce(&sat_formula());
    assert_eq!(inst.num_clauses, 2);
    assert_eq!(inst.num_grids, 3);
    assert_eq!(inst.graph.n_left(), 6);
    assert_eq!(inst.graph.n_right(), 2);
    // Worker i connects to exactly its clause's three requesters.
    for i in 0..2 {
        for j in 0..3 {
            assert!(inst.graph.has_edge(3 * i + j, i));
        }
    }
    assert!(!inst.graph.has_edge(0, 1));
}

#[test]
fn satisfying_assignment_reaches_m() {
    let f = sat_formula();
    let inst = reduce(&f);
    let assignment = f.brute_force_satisfiable().unwrap();
    let rev = inst.revenue_for_assignment(&assignment);
    assert!(
        (rev - inst.num_clauses as f64).abs() < 1e-9,
        "satisfying assignment must earn exactly m, got {rev}"
    );
}

#[test]
fn violating_assignment_earns_less() {
    let f = sat_formula();
    let inst = reduce(&f);
    // x = (true, true, false) violates clause 2.
    let rev = inst.revenue_for_assignment(&[true, true, false]);
    assert!(rev < inst.num_clauses as f64 - 1e-9, "got {rev}");
}

#[test]
fn decision_matches_satisfiability_sat() {
    let f = sat_formula();
    assert_eq!(
        reduce(&f).max_revenue_reaches_m(),
        f.brute_force_satisfiable().is_some()
    );
}

#[test]
fn decision_matches_satisfiability_unsat() {
    let f = unsat_formula();
    let inst = reduce(&f);
    assert!(!inst.max_revenue_reaches_m());
    // Best achievable with one variable and contradictory clauses:
    // price 1 → clause-1 worker earns 1·1, clause-2 worker still earns
    // 1·0.5 from a negative literal (total 1.5); price 2 → positive
    // literals reject, only clause 2 earns 2·0.5 = 1. Both < m = 2.
    let r1 = inst.revenue_for_assignment(&[true]);
    let r2 = inst.revenue_for_assignment(&[false]);
    assert!((r1 - 1.5).abs() < 1e-9, "got {r1}");
    assert!((r2 - 1.0).abs() < 1e-9, "got {r2}");
}

#[test]
fn exhaustive_equivalence_on_random_formulas() {
    // Pseudo-random 3-SAT instances: revenue m ⇔ satisfiable.
    let mut state = 0xC0FFEEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for trial in 0..20 {
        let num_vars = 2 + (next() % 4) as usize; // 2..=5
        let num_clauses = 1 + (next() % 6) as usize; // 1..=6
        let clauses: Vec<[Literal; 3]> = (0..num_clauses)
            .map(|_| {
                [0; 3].map(|_| Literal {
                    var: (next() % num_vars as u64) as usize,
                    positive: next() % 2 == 0,
                })
            })
            .collect();
        let f = Formula::new(num_vars, clauses);
        let inst = reduce(&f);
        assert_eq!(
            inst.max_revenue_reaches_m(),
            f.brute_force_satisfiable().is_some(),
            "trial {trial}: {f:?}"
        );
    }
}

#[test]
#[should_panic(expected = "references variable")]
fn formula_rejects_bad_literal() {
    let _ = Formula::new(1, vec![[Literal::pos(0), Literal::pos(1), Literal::pos(0)]]);
}

#[test]
fn theorem1_reduction_roundtrip() {
    // Satisfiable ⇒ revenue m; unsatisfiable ⇒ strictly below m.
    let sat = Formula::new(
        2,
        vec![
            [Literal::pos(0), Literal::neg(1), Literal::pos(1)],
            [Literal::neg(0), Literal::pos(1), Literal::pos(1)],
        ],
    );
    assert!(sat.brute_force_satisfiable().is_some());
    assert!(reduce(&sat).max_revenue_reaches_m());

    let unsat = Formula::new(
        1,
        vec![
            [Literal::pos(0), Literal::pos(0), Literal::pos(0)],
            [Literal::neg(0), Literal::neg(0), Literal::neg(0)],
        ],
    );
    assert!(unsat.brute_force_satisfiable().is_none());
    assert!(!reduce(&unsat).max_revenue_reaches_m());
}
