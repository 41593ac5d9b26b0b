//! Cross-crate properties: the paper's structural invariants and
//! ROADMAP's Standing invariants, on seeded random instances.
//!
//! Each property runs [`maps_testkit::explore`] over seeds `0..64`: a
//! seed draws a case, the check asserts the invariant, and a failing
//! case that holds a list (a graph's left side, a churn script's
//! periods, a journal's records) is halved while it still fails. The
//! panic names the seed, the drawn case and the shrunk one.

use maps::prelude::*;
use maps::service::ServiceEvent;
use maps_testkit::{explore, XorShift};
use std::collections::{BTreeMap, BTreeSet};

/// `graph`'s rows as the ids they name, each in stored order; `id_of`
/// maps a right-side vertex to its id.
fn rows_by_id(graph: &BipartiteGraph, id_of: impl Fn(usize) -> u32) -> Vec<Vec<u32>> {
    (0..graph.n_left())
        .map(|l| {
            graph
                .neighbors(l)
                .iter()
                .map(|&r| id_of(r as usize))
                .collect()
        })
        .collect()
}

/// A graph as ids, what a cache build and the scan of the id-ordered
/// live set agree on although they number their right sides apart: the
/// rows (`rows_by_id`), then the right side as ids. The cache's right
/// side is [`PeriodGraphCache::right_id`] of its vertices; the scan's
/// is passed as `None` and stands for the ids its rows name, distinct
/// and ascending — the right side a cache build must have.
fn canon_by_id(rows: &[Vec<u32>], right: Option<Vec<u32>>, out: &mut Vec<u64>) {
    out.push(rows.len() as u64);
    for row in rows {
        out.push(row.len() as u64);
        out.extend(row.iter().map(|&id| u64::from(id)));
    }
    let touched = || rows.iter().flatten().copied().collect::<BTreeSet<_>>();
    let right = right.unwrap_or_else(|| touched().into_iter().collect());
    out.push(right.len() as u64);
    out.extend(right.iter().map(|&id| u64::from(id)));
}

/// The cache's last build, `graph`, through [`canon_by_id`].
fn canon_cache(cache: &PeriodGraphCache, graph: &BipartiteGraph, out: &mut Vec<u64>) {
    let rows = rows_by_id(graph, |r| cache.right_id(r));
    let right = (0..graph.n_right()).map(|r| cache.right_id(r)).collect();
    canon_by_id(&rows, Some(right), out);
}

/// A random bipartite graph of 1–9 vertices a side, each edge present
/// with probability 0.3.
fn arb_graph(rng: &mut XorShift) -> BipartiteGraph {
    let (n_left, n_right) = (1 + rng.below(9) as usize, 1 + rng.below(9) as usize);
    let mut b = BipartiteGraphBuilder::new(n_left, n_right);
    for l in 0..n_left {
        for r in 0..n_right {
            if rng.next_f64() < 0.3 {
                b.add_edge(l, r);
            }
        }
    }
    b.build()
}

/// `graph` on the first half of its left side; `None` at one vertex.
fn halve_left(graph: &BipartiteGraph) -> Option<BipartiteGraph> {
    let n = graph.n_left();
    let keep: Vec<bool> = (0..n).map(|l| l < n / 2).collect();
    (n > 1).then(|| graph.filter_left(&keep).0)
}

/// The first half of `list`, while it has two entries or more.
fn halve_list<T: Clone>(list: &[T]) -> Option<Vec<T>> {
    (list.len() > 1).then(|| list[..list.len() / 2].to_vec())
}

/// A draw from `lo..hi`.
fn uniform(rng: &mut XorShift, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// The seeds every property runs.
const CASES: std::ops::Range<u64> = 0..64;

/// Possible-world probabilities always form a distribution and the
/// Monte-Carlo estimator agrees with exact enumeration.
#[test]
fn possible_worlds_are_a_distribution() {
    // (graph, ten acceptance probabilities, Monte-Carlo seed)
    let draw = |seed| {
        let mut rng = XorShift::seeded(seed);
        let graph = arb_graph(&mut rng);
        let probs_raw: Vec<f64> = (0..10).map(|_| rng.next_f64()).collect();
        (graph, probs_raw, rng.below(100))
    };
    let halve = |(graph, probs_raw, seed): &(BipartiteGraph, Vec<f64>, u64)| {
        Some((halve_left(graph)?, probs_raw.clone(), *seed))
    };
    explore(CASES, draw, halve, |(graph, probs_raw, seed)| {
        // At most 9 left vertices, so every one has its probability.
        let n = graph.n_left();
        let probs = &probs_raw[..n];
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let pw = PossibleWorlds::new(graph, &weights, probs);
        let total: f64 = pw.worlds().map(|w| w.probability).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let exact = pw.expected_revenue();
        let mc = monte_carlo_expected_revenue(graph, &weights, probs, 4000, *seed);
        // MC error scales with total weight; keep a generous band.
        let band = 0.1 * weights.iter().sum::<f64>().max(1.0);
        assert!((mc - exact).abs() < band, "mc {mc} exact {exact}");
    });
}

/// Every strategy posts prices within [p_min, p_max] on random worlds.
#[test]
fn prices_stay_in_window() {
    // (world seed, workers, tasks)
    let draw = |seed| {
        let mut rng = XorShift::seeded(seed);
        let world_seed = rng.below(50);
        let workers = 5 + rng.below(55) as usize;
        (world_seed, workers, 5 + rng.below(115) as usize)
    };
    explore(
        CASES,
        draw,
        |_| None,
        |&(seed, workers, tasks)| {
            let world = SyntheticConfig::paper_default()
                .with_num_workers(workers)
                .with_num_tasks(tasks)
                .with_periods(8)
                .with_grid_side(4)
                .build(seed);
            let grid = world.grid;
            for kind in StrategyKind::ALL {
                // Reach inside one period manually to inspect the schedule.
                let mut strategy = paper_default_strategy(kind, grid.num_cells());
                let tasks: Vec<TaskInput> = world.periods[0]
                    .tasks
                    .iter()
                    .map(|t| TaskInput {
                        origin: t.origin,
                        distance: t.distance,
                        cell: t.cell,
                    })
                    .collect();
                let workers: Vec<WorkerInput> = world.periods[0]
                    .workers
                    .iter()
                    .map(|w| WorkerInput::new(&grid, w.location, w.radius))
                    .collect();
                let graph = build_period_graph(&tasks, &workers);
                let schedule = strategy.price_period(&PeriodInput {
                    grid: &grid,
                    tasks: &tasks,
                    workers: &workers,
                    graph: &graph,
                });
                for &p in &schedule.prices {
                    assert!((1.0..=5.0).contains(&p), "{kind}: price {p}");
                }
            }
        },
    );
}

/// Simulator conservation: matched ≤ accepted ≤ issued, and with the
/// Consume policy matched ≤ |W|.
#[test]
fn simulation_conservation() {
    let draw = |seed| XorShift::seeded(seed).below(30);
    explore(
        CASES,
        draw,
        |_| None,
        |&seed| {
            let mut world = SyntheticConfig::paper_default()
                .with_num_workers(40)
                .with_num_tasks(200)
                .with_periods(10)
                .with_grid_side(4)
                .build(seed);
            world.match_policy = MatchPolicy::Consume;
            let outcome = Simulation::new(world, StrategyKind::Maps)
                .with_options(SimOptions {
                    calibrate: false,
                    ..SimOptions::default()
                })
                .run();
            assert!(outcome.is_consistent());
            assert!(outcome.matched_tasks <= 40);
        },
    );
}

/// The Algorithm-3 maximizer never exceeds the exact L value taken at
/// its own choice, and L is monotone in supply (after lookahead this
/// is what Δ ≥ 0 rests on).
#[test]
fn lfunction_maximizer_consistency() {
    // (1–11 distances, four acceptance ratios, supply)
    type Case = (Vec<f64>, Vec<f64>, usize);
    let draw = |seed| -> Case {
        let mut rng = XorShift::seeded(seed);
        let len = 1 + rng.below(11);
        let dists = (0..len).map(|_| uniform(&mut rng, 0.1, 10.0)).collect();
        let s_hats = (0..4).map(|_| rng.next_f64()).collect();
        (dists, s_hats, rng.below(14) as usize)
    };
    let halve = |(dists, s_hats, n): &Case| Some((halve_list(dists)?, s_hats.clone(), *n));
    explore(CASES, draw, halve, |(dists, s_hats, n)| {
        let n = *n;
        let lf = LFunction::new(dists.clone());
        let ladder = PriceLadder::paper_default();
        let mut stats = UcbStats::new(ladder.len());
        for (idx, s) in s_hats.iter().enumerate() {
            stats.observe_batch(idx, 10_000, (s * 10_000f64) as u64);
        }
        if let Some(m) = lf.maximize(n, &stats, &ladder, false) {
            // l_hat equals the true L at the chosen price and supply.
            let expect = lf.value(n, m.price, stats.s_hat(m.price_idx));
            assert!((m.l_hat - expect).abs() < 1e-9);
            // And no other rung has a larger plain-mean L (no-UCB mode
            // maximizes exactly this).
            for (idx, p) in ladder.ascending() {
                let v = lf.value(n, p, stats.s_hat(idx));
                assert!(v <= m.l_hat + 1e-9, "rung {p} beats maximizer");
            }
        }
        // Monotone in n for every rung.
        for (idx, p) in ladder.ascending() {
            let s = stats.s_hat(idx);
            assert!(lf.value(n, p, s) <= lf.value(n + 1, p, s) + 1e-12);
        }
    });
}

/// A churn script: its seed, the initial workers, the periods and the
/// edge cap `k`.
#[derive(Debug, Clone)]
struct Churn {
    seed: u64,
    initial: usize,
    periods: usize,
    k: usize,
}

/// The churn oracle: the incremental `PeriodGraphCache` replayed over a
/// random arrival/departure/relocation churn script keeps the edge
/// set of the scan builders (Definition 5(ii), no index) on the live
/// workers in ascending id, every period — `apply`, then the capped
/// build on odd periods and the complete one on even periods: per task
/// the ids of its row, in order, bit for bit, and a right side of
/// exactly the distinct ids the rows name, ascending. A relocation is
/// written the way the lifecycle table performs it: the same id in the
/// departures and the arrivals of one `apply`. Scripts start with
/// 1–200 workers and include out-of-region relocations (the
/// clamped-bucket path); a third of the periods surge the live set 16×
/// or thin it to a sixteenth, so the cache's spatial index regrids
/// mid-script under an oracle that has no grid at all. Half the
/// scripts (odd seeds) draw every worker's radius from three values
/// (zero among them) instead of a continuum: the capped query's
/// per-worker range check — read from the index lane, against a query
/// radius many workers tie for — then rejects most candidates, and the
/// max-radius tracker's tie count is what decides a rescan. A failing
/// script is halved to its first periods.
#[test]
fn incremental_graph_matches_scratch_rebuild() {
    let draw = |seed| {
        let mut rng = XorShift::seeded(seed);
        Churn {
            seed: rng.below(10_000),
            initial: 1 + rng.below(200) as usize,
            periods: 1 + rng.below(6) as usize,
            k: 1 + rng.below(24) as usize,
        }
    };
    let halve = |case: &Churn| {
        (case.periods > 1).then_some(Churn {
            periods: case.periods / 2,
            ..*case
        })
    };
    explore(
        CASES,
        draw,
        halve,
        |&Churn {
             seed,
             initial,
             periods,
             k,
         }| {
            let three_radii = seed % 2 == 1;
            let grid = GridSpec::square(Rect::square(100.0), 5);
            let (incremental, scratch) = {
                let mut rng = XorShift::seeded(seed);
                let point = |rng: &mut XorShift| {
                    // ~6% of points land outside the region.
                    let scale = if rng.next_u64().is_multiple_of(16) {
                        120.0
                    } else {
                        100.0
                    };
                    Point::new(
                        rng.below(10_000) as f64 / 10_000.0 * scale - 5.0,
                        rng.below(10_000) as f64 / 10_000.0 * scale - 5.0,
                    )
                };
                let mut cache = PeriodGraphCache::new(&grid);
                let mut live: Vec<(u32, WorkerInput)> = Vec::new(); // ascending id
                                                                    // The slot `apply` handed each live worker, as the
                                                                    // lifecycle's records keep it.
                let mut slots: BTreeMap<u32, u32> = BTreeMap::new();
                let mut next_id = 0u32;
                let mut incremental_bits = Vec::new();
                let mut scratch_bits = Vec::new();
                for period in 0..periods {
                    let mut departures = Vec::new();
                    // 0 = surge, 1 = collapse, otherwise ordinary churn.
                    let swing = if period > 0 { rng.below(6) } else { 2 };
                    if period > 0 {
                        live.retain(|&(id, _)| {
                            let stays = if swing == 1 {
                                rng.below(16) == 0
                            } else {
                                rng.below(5) != 0
                            };
                            if !stays {
                                departures.push(id);
                            }
                            stays
                        });
                    }
                    let mut arrivals = Vec::new();
                    for entry in live.iter_mut() {
                        if rng.below(6) == 0 {
                            let to = point(&mut rng);
                            entry.1.location = to;
                            entry.1.cell = grid.cell_of(to);
                            departures.push(entry.0);
                            arrivals.push(*entry);
                        }
                    }
                    let n_arrivals = match (period, swing) {
                        (0, _) => initial as u64,
                        (_, 0) => (16 * live.len() as u64 + 17).min(4_000),
                        _ => rng.below(20),
                    };
                    for _ in 0..n_arrivals {
                        let location = point(&mut rng);
                        let radius = if three_radii {
                            [0.0, 4.5, 19.0][rng.below(3) as usize]
                        } else {
                            rng.below(2_000) as f64 / 100.0
                        };
                        let fresh = (next_id, WorkerInput::new(&grid, location, radius));
                        next_id += 1;
                        live.push(fresh);
                        arrivals.push(fresh);
                    }
                    let tasks: Vec<TaskInput> = (0..rng.below(20))
                        .map(|_| {
                            let origin = point(&mut rng);
                            let distance = 0.5 + rng.below(300) as f64 / 100.0;
                            TaskInput::new(&grid, origin, distance)
                        })
                        .collect();
                    let departing: Vec<(u32, u32)> = departures
                        .iter()
                        .map(|&id| (id, slots.remove(&id).unwrap()))
                        .collect();
                    let handed = cache.apply(&arrivals, &departing);
                    slots.extend(arrivals.iter().map(|a| a.0).zip(handed.iter().copied()));
                    let ids: Vec<u32> = live.iter().map(|&(id, _)| id).collect();
                    let workers: Vec<WorkerInput> = live.iter().map(|&(_, w)| w).collect();
                    let (incremental, scratch) = if period % 2 == 1 {
                        (
                            cache.build_graph_capped(&tasks, k),
                            build_period_graph_capped(&tasks, &workers, k),
                        )
                    } else {
                        (
                            cache.build_graph_capped(&tasks, usize::MAX),
                            build_period_graph(&tasks, &workers),
                        )
                    };
                    canon_cache(&cache, &incremental, &mut incremental_bits);
                    canon_by_id(&rows_by_id(&scratch, |r| ids[r]), None, &mut scratch_bits);
                }
                (incremental_bits, scratch_bits)
            };
            assert_eq!(
                incremental, scratch,
                "incremental build diverged from the oracle"
            );
        },
    );
}

/// The journal oracle: the write-ahead journal's frame encoding is a
/// bijection on arbitrary record streams — producers (including the
/// tick pseudo-producer), epochs, sequence numbers, and every event
/// kind with *arbitrary-bit-pattern* float payloads (NaN, ±∞,
/// subnormals: invalid events are journaled before admission
/// validation, so they must round-trip bit-exactly) — and decoding the
/// byte stream cut at one seeded offset per case yields exactly the
/// fully-framed prefix with the tail correctly classified as `Clean`
/// (cut on a frame boundary) or `Torn` at the boundary. Failures are
/// halved to a short record list.
#[test]
fn journal_frames_roundtrip_and_survive_truncation() {
    use maps::service::journal::{decode_records, encode_record};
    use maps::service::{JournalRecord, Tail, TICK_PRODUCER};
    // (0–31 raw records `(kind, a, b, c)`, the cut's seed)
    type Case = (Vec<(u64, u64, u64, u64)>, u64);
    let draw = |seed| -> Case {
        let mut rng = XorShift::seeded(seed);
        let len = rng.below(32);
        let raw = (0..len)
            .map(|_| (rng.below(4), rng.next_u64(), rng.next_u64(), rng.next_u64()))
            .collect();
        (raw, rng.next_u64())
    };
    let halve = |(raw, cut_seed): &Case| Some((halve_list(raw)?, *cut_seed));
    explore(CASES, draw, halve, |(raw, cut_seed)| {
        let records: Vec<JournalRecord> = raw
            .iter()
            .enumerate()
            .map(|(i, &(kind, a, b, c))| {
                let event = match kind {
                    0 => ServiceEvent::WorkerArrive {
                        worker: GroundWorker {
                            location: Point::new(f64::from_bits(a), f64::from_bits(b)),
                            radius: f64::from_bits(c),
                            duration: (b ^ c) as u32,
                        },
                    },
                    1 => ServiceEvent::WorkerDepart { id: a as u32 },
                    2 => ServiceEvent::TaskRequest {
                        task: GroundTask {
                            origin: Point::new(f64::from_bits(a), f64::from_bits(!a)),
                            destination: Point::new(
                                f64::from_bits(b),
                                f64::from_bits(b.rotate_left(21)),
                            ),
                            distance: f64::from_bits(c),
                            valuation: f64::from_bits(c.rotate_left(11)),
                            cell: CellId(b as u32),
                        },
                    },
                    _ => ServiceEvent::PeriodTick,
                };
                JournalRecord {
                    producer: if kind == 3 {
                        TICK_PRODUCER
                    } else {
                        (a % 5) as u32
                    },
                    epoch: b % 1_000,
                    seq: i as u64,
                    event,
                }
            })
            .collect();
        let encode_all = |records: &[JournalRecord]| {
            let mut buf = Vec::new();
            for record in records {
                encode_record(record, &mut buf);
            }
            buf
        };
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize]; // frame end offsets
        for record in &records {
            encode_record(record, &mut buf);
            boundaries.push(buf.len());
        }
        // Full stream: clean tail, and re-encoding the decoded records
        // reproduces the bytes — a bit-exact round trip (frame fields
        // are fixed-width, so byte equality is record equality, NaN
        // payloads included).
        let (decoded, tail) = decode_records(&buf);
        assert_eq!(tail, Tail::Clean);
        assert_eq!(decoded.len(), records.len());
        assert_eq!(
            encode_all(&decoded),
            buf,
            "decode is not the inverse of encode"
        );
        // A seeded cut: exactly the fully-framed prefix survives.
        if !buf.is_empty() {
            let cut = (*cut_seed as usize) % buf.len();
            let full = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            let valid = boundaries[full];
            let (prefix, tail) = decode_records(&buf[..cut]);
            assert_eq!(prefix.len(), full, "cut {cut} kept a partial frame");
            assert_eq!(&encode_all(&prefix)[..], &buf[..valid]);
            if cut == valid {
                assert_eq!(tail, Tail::Clean);
            } else {
                let torn = Tail::Torn {
                    valid_len: valid as u64,
                    dropped: (cut - valid) as u64,
                };
                assert_eq!(tail, torn, "cut {cut} misclassified the torn tail");
            }
        }
    });
}

/// Demand distributions: survival is monotone non-increasing and
/// sampling stays within the window.
#[test]
fn demand_survival_monotone() {
    // (mu, sigma, sampling seed)
    let draw = |seed| {
        let mut rng = XorShift::seeded(seed);
        let mu = uniform(&mut rng, 1.0, 3.5);
        (mu, uniform(&mut rng, 0.3, 2.5), rng.below(50))
    };
    explore(
        CASES,
        draw,
        |_| None,
        |&(mu, sigma, seed)| {
            let d = Demand::paper_normal(mu, sigma);
            let mut prev = f64::INFINITY;
            for i in 0..=40 {
                let p = 1.0 + 4.0 * i as f64 / 40.0;
                let s = d.survival(p);
                assert!(s <= prev + 1e-12);
                assert!((0.0..=1.0).contains(&s));
                prev = s;
            }
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            for _ in 0..50 {
                let v = d.sample(&mut rng);
                assert!((1.0..=5.0).contains(&v));
            }
        },
    );
}

/// Grid round-trip: every cell's centre maps back to the cell, and
/// every point maps into a cell whose rect contains it.
#[test]
fn grid_roundtrip() {
    // (nx, ny, x, y)
    let draw = |seed| {
        let mut rng = XorShift::seeded(seed);
        let (nx, ny) = (1 + rng.below(29) as u32, 1 + rng.below(29) as u32);
        let x = uniform(&mut rng, 0.0, 100.0);
        (nx, ny, x, uniform(&mut rng, 0.0, 100.0))
    };
    explore(
        CASES,
        draw,
        |_| None,
        |&(nx, ny, x, y)| {
            let grid = GridSpec::new(Rect::square(100.0), nx, ny);
            let cell = grid.cell_of(Point::new(x, y));
            assert!(grid.cell_rect(cell).contains(Point::new(x, y)));
            for cell in grid.cells().take(16) {
                assert_eq!(grid.cell_of(grid.cell_center(cell)), cell);
            }
        },
    );
}

/// A fixed-seed statistical check: valuations are drawn from a smooth
/// spatial field while `GroundTruth::demands` holds each cell's
/// cell-centre aggregate (the probe's view). On a grid finer than the
/// field's correlation length the two must agree closely per cell.
#[test]
fn generated_valuations_match_declared_demand() {
    let world: GroundTruth = SyntheticConfig::paper_default()
        .with_num_workers(100)
        .with_num_tasks(60_000)
        .with_periods(20)
        .with_grid_side(16) // 6.25-unit cells < 12.5-unit field lattice
        .build(17);
    world.validate().unwrap();
    let mut checked = 0usize;
    for cell in 0..world.grid.num_cells() {
        let vals: Vec<f64> = world
            .periods
            .iter()
            .flat_map(|p| &p.tasks)
            .filter(|t| t.cell.index() == cell)
            .map(|t| t.valuation)
            .collect();
        if vals.len() < 800 {
            continue; // sparse peripheral cell: skip the statistical check
        }
        checked += 1;
        for price in [1.5, 2.25, 3.0] {
            let emp = vals.iter().filter(|&&v| v > price).count() as f64 / vals.len() as f64;
            let want = world.demands[cell].survival(price);
            // Within-cell field variation + sampling noise: a modest band.
            assert!(
                (emp - want).abs() < 0.12,
                "cell {cell} price {price}: empirical {emp} vs declared {want}"
            );
        }
    }
    assert!(checked >= 10, "only {checked} cells had enough samples");
}

/// One pool on every path: the edge set must be identical from the
/// spec ([`build_period_graph`], Definition 5(ii)) cut to each task's `k`
/// nearest by `(distance, id)`, from the capped scan
/// [`build_period_graph_capped`] and from [`PeriodGraphCache`] after
/// `apply` — row for row as ids, its right side the ids the rows name
/// ([`canon_by_id`]); and the one-period world over the same pool must replay
/// through the service to the batch simulator's bits. Returns the spec graph and the batch outcome for
/// the caller's own, index-free statements about them.
fn agree_on_every_path(
    what: &str,
    grid: GridSpec,
    ground_tasks: &[GroundTask],
    ground_workers: Vec<GroundWorker>,
    k: usize,
) -> (BipartiteGraph, Outcome) {
    let tasks: Vec<TaskInput> = ground_tasks
        .iter()
        .map(|t| TaskInput::new(&grid, t.origin, t.distance))
        .collect();
    let workers: Vec<WorkerInput> = ground_workers
        .iter()
        .map(|w| WorkerInput::new(&grid, w.location, w.radius))
        .collect();

    let spec = build_period_graph(&tasks, &workers);
    let capped = build_period_graph_capped(&tasks, &workers, k);
    for (t, task) in tasks.iter().enumerate() {
        let mut nearest: Vec<(f64, u32)> = spec
            .neighbors(t)
            .iter()
            .map(|&w| (task.origin.euclidean(workers[w as usize].location), w))
            .collect();
        nearest.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        nearest.truncate(k);
        let mut cut: Vec<u32> = nearest.iter().map(|&(_, w)| w).collect();
        cut.sort_unstable();
        assert_eq!(capped.neighbors(t), cut, "{what}: task {t} vs the spec");
    }

    let mut cache = PeriodGraphCache::new(&grid);
    let arrivals: Vec<(u32, WorkerInput)> = (0u32..).zip(workers).collect();
    let _ = cache.apply(&arrivals, &[]);
    let (mut built, mut scanned) = (Vec::new(), Vec::new());
    let graph = cache.build_graph_capped(&tasks, k);
    canon_cache(&cache, &graph, &mut built);
    canon_by_id(&rows_by_id(&capped, |r| r as u32), None, &mut scanned);
    assert_eq!(built, scanned, "{what}: cache vs the scratch oracle");

    let world = GroundTruth {
        grid,
        demands: vec![Demand::paper_normal(2.5, 1.0); grid.num_cells()],
        periods: vec![PeriodData {
            tasks: ground_tasks.to_vec(),
            workers: ground_workers,
        }],
        match_policy: MatchPolicy::Consume,
    };
    let options = SimOptions {
        calibrate: false,
        max_edges_per_task: k,
        ..SimOptions::default()
    };
    let batch = Simulation::new(world.clone(), StrategyKind::Maps)
        .with_options(options)
        .run();
    let served = maps::service::replay_with_options(&world, StrategyKind::Maps, 1, options);
    assert_eq!(
        served.deterministic_bits(),
        batch.deterministic_bits(),
        "{what}: service vs the batch loop"
    );
    (spec, batch)
}

/// The cap boundary and the closed disc, on every path (table-driven,
/// no randomness; the paths are [`agree_on_every_path`]'s). Pools of
/// `k − 1`, `k`, `k + 1` and `2k` workers for
/// `k ∈ {1, 3, 64}` sit on Pythagorean lattice offsets around one
/// centre with the hypotenuse as their radius — so the task *at* the
/// centre is exactly at range of every one of them, in ties of up to
/// twelve per distance that only the id breaks — plus zero-radius
/// workers on the centre itself. Three more tasks sit one ulp off the
/// centre (`f64::next_up` / `next_down`: one ulp outside the workers it
/// moved away from, inside the ones it moved toward, off the
/// zero-radius ones) and on a worker's own location.
///
/// Then the range constraint where its spellings used to part: a worker
/// of radius `fl(√13)` and a task at offset (2, 3), so
/// `Point::euclidean` equals the radius exactly while `fl(radius²)` is
/// below 13. The edge exists — alone, beside a wider worker, beside one
/// of radius `f64::MAX` — on every path: whether a worker reaches a
/// task is a function of that worker alone. (The k-NN paths used to
/// report this edge only once a wider worker widened the query.)
///
/// Then points outside the region, which admission lets through (any
/// finite location) and the index files in its boundary buckets: a
/// worker beyond a corner whose radius reaches in, a task origin outside
/// with workers inside, both outside on opposite sides, a zero-radius
/// worker outside on a coincident task — each beside 36 short-range
/// workers inside, so the index has rings to cut. Same edges on every
/// path, with and without a cap.
#[test]
fn cap_boundary_and_closed_disc_agree_on_every_path() {
    const TRIPLES: [(f64, f64, f64); 10] = [
        (3.0, 4.0, 5.0),
        (6.0, 8.0, 10.0),
        (5.0, 12.0, 13.0),
        (9.0, 12.0, 15.0),
        (8.0, 15.0, 17.0),
        (12.0, 16.0, 20.0),
        (7.0, 24.0, 25.0),
        (15.0, 20.0, 25.0),
        (10.0, 24.0, 26.0),
        (20.0, 21.0, 29.0),
    ];
    let grid = GridSpec::square(Rect::square(100.0), 4);
    let centre = Point::new(50.0, 50.0);
    // (offset from the centre, radius): 12 lattice points per triple,
    // then 8 zero-radius workers on the centre — 128 in all.
    let mut lattice: Vec<(f64, f64, f64)> = Vec::new();
    for (a, b, c) in TRIPLES {
        for (dx, dy) in [(a, b), (b, a), (c, 0.0), (0.0, c)] {
            lattice.push((dx, dy, c));
            lattice.push((-dx, -dy, c));
            if dx != 0.0 && dy != 0.0 {
                lattice.push((dx, -dy, c));
                lattice.push((-dx, dy, c));
            }
        }
    }
    lattice.extend([(0.0, 0.0, 0.0); 8]);
    assert_eq!(lattice.len(), 128);
    let task_at = |origin: Point| GroundTask {
        origin,
        destination: centre,
        distance: 1.0,
        valuation: 5.0,
        cell: grid.cell_of(origin),
    };
    let ground_tasks = [
        task_at(centre),
        task_at(Point::new(centre.x.next_up(), centre.y)),
        task_at(Point::new(centre.x, centre.y.next_down())),
        task_at(Point::new(centre.x - 3.0, centre.y + 4.0)),
    ];
    for k in [1usize, 3, 64] {
        for n in [k - 1, k, k + 1, 2 * k] {
            // Worker `id` takes lattice slot `37·id mod 128` (a
            // permutation), so small pools already mix radii and rings.
            let pool: Vec<(f64, f64, f64)> =
                (0..n).map(|id| lattice[id * 37 % lattice.len()]).collect();
            let ground_workers: Vec<GroundWorker> = pool
                .iter()
                .map(|&(dx, dy, radius)| GroundWorker {
                    location: Point::new(centre.x + dx, centre.y + dy),
                    radius,
                    duration: u32::MAX,
                })
                .collect();
            let what = format!("k {k}, {n} workers");
            let (spec, _) = agree_on_every_path(&what, grid, &ground_tasks, ground_workers, k);
            // The closed disc, stated without an index: the centre is at
            // range of everyone; one ulp toward +x is outside whoever
            // sits at −x (and off the zero-radius workers), one ulp
            // toward −y outside whoever sits at +y.
            for (w, &(dx, dy, _)) in pool.iter().enumerate() {
                assert!(spec.has_edge(0, w), "{what}: worker {w} at range");
                let right = dx > 0.0 || (dx == 0.0 && dy != 0.0);
                assert_eq!(spec.has_edge(1, w), right, "{what}: worker {w}, +x ulp");
                let below = dy < 0.0 || (dy == 0.0 && dx != 0.0);
                assert_eq!(spec.has_edge(2, w), below, "{what}: worker {w}, −y ulp");
            }
        }
    }

    let reach = 13f64.sqrt();
    assert!(reach * reach < 13.0, "fl(a_w²) sits below d² = 13");
    let worker = |x: f64, y: f64, radius: f64| GroundWorker {
        location: Point::new(x, y),
        radius,
        duration: u32::MAX,
    };
    // Valuations above any posted price: every task accepts, so the
    // batch loop's matched count is the spec graph's maximum matching.
    let eager = |x: f64, y: f64| GroundTask {
        valuation: 1e9,
        ..task_at(Point::new(x, y))
    };
    let exact = worker(10.0, 10.0, reach);
    let at_range = eager(12.0, 13.0);
    assert_eq!(at_range.origin.euclidean(exact.location), reach);
    let far = eager(80.0, 20.0);
    let ulp_off = eager(12f64.next_up(), 13.0);
    // (label, workers, tasks, the spec's edges, its maximum matching)
    type Row<'a> = (
        &'a str,
        Vec<GroundWorker>,
        Vec<GroundTask>,
        &'a [(usize, usize)],
        u64,
    );
    let rows: [Row<'_>; 4] = [
        ("alone", vec![exact], vec![at_range], &[(0, 0)], 1),
        (
            "beside a wider worker",
            vec![exact, worker(90.0, 90.0, 20.0)],
            vec![at_range],
            &[(0, 0)],
            1,
        ),
        (
            // The wide worker reaches everything; only `far` needs it,
            // so both tasks are served iff `exact` reaches `at_range`.
            "beside a worker of radius f64::MAX",
            vec![exact, worker(90.0, 90.0, f64::MAX)],
            vec![at_range, far],
            &[(0, 0), (0, 1), (1, 1)],
            2,
        ),
        (
            "radius 0.0 on a coincident point",
            vec![worker(12.0, 13.0, 0.0)],
            vec![at_range, ulp_off],
            &[(0, 0)],
            1,
        ),
    ];
    // A 6 × 6 lattice of radius-1 workers that reach none of the tasks
    // below: company that gives the index a 7 × 7 grid.
    let beside_crowd = |strays: &[GroundWorker]| -> Vec<GroundWorker> {
        let crowd = (0..36).map(|i| {
            worker(
                10.0 + 15.0 * (i % 6) as f64,
                10.0 + 15.0 * (i / 6) as f64,
                1.0,
            )
        });
        strays.iter().copied().chain(crowd).collect()
    };
    let outside_rows: [Row<'_>; 4] = [
        (
            // (3, 4) is at 10 from (−3, −4) — exactly the first
            // worker's range, one ulp beyond the third's — and at 15
            // from the second.
            "a worker beyond a corner reaching in",
            beside_crowd(&[
                worker(-3.0, -4.0, 10.0),
                worker(-6.0, -8.0, 20.0),
                worker(-3.0, -4.0, 10f64.next_down()),
            ]),
            vec![eager(3.0, 4.0)],
            &[(0, 0), (0, 1)],
            1,
        ),
        (
            "a task origin outside, workers inside",
            beside_crowd(&[worker(98.0, 50.0, 7.0), worker(90.0, 50.0, 10.0)]),
            vec![eager(105.0, 50.0)],
            &[(0, 0)],
            1,
        ),
        (
            "both outside, on opposite sides",
            beside_crowd(&[worker(-10.0, 50.0, 100.0), worker(-10.0, 50.0, 120.0)]),
            vec![eager(110.0, 50.0)],
            &[(0, 1)],
            1,
        ),
        (
            "radius 0.0 outside on a coincident task",
            beside_crowd(&[worker(-5.0, -5.0, 0.0)]),
            vec![eager(-5.0, -5.0), eager((-5f64).next_up(), -5.0)],
            &[(0, 0)],
            1,
        ),
    ];
    let families = [("fl(√13)", rows), ("outside the region:", outside_rows)];
    for (family, rows) in families {
        for (label, workers, tasks, edges, matched) in rows {
            // Uncapped, then with a cap that cuts each task to its nearest.
            for k in [64usize, 1] {
                let what = format!("{family} {label}, k {k}");
                let (spec, batch) = agree_on_every_path(&what, grid, &tasks, workers.clone(), k);
                assert_eq!(spec.edges().collect::<Vec<_>>(), edges, "{what}: the spec");
                assert_eq!(batch.accepted_tasks, tasks.len() as u64, "{what}");
                assert_eq!(
                    batch.matched_tasks, matched,
                    "{what}: served by the batch loop"
                );
            }
        }
    }
}
