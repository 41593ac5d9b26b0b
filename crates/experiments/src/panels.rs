//! Panel catalogue: one [`PanelSpec`] per swept x-axis of the paper's
//! evaluation (Sec. 5.2), plus the MAPS ablation ([`ablation`]). Default
//! values are Table 3's bold entries; the exact sweep values match the
//! paper's x-axes.

use maps_core::{
    paper_default_strategy, ApproxKind, DeltaRule, MapsConfig, MapsStrategy, PricingStrategy,
    StrategyKind,
};
use maps_market::PriceLadder;
use maps_simulator::{BeijingConfig, DemandKind, GroundTruth, SyntheticConfig};
use std::sync::Arc;

/// Experiment scale: `Full` reproduces the paper's sizes; `Quick` is a
/// smaller run for smoke runs and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized datasets.
    Full,
    /// Not one uniform factor: `|W|` and `|R|` are divided by 20 (at
    /// least 50 each) and `T` by 8 (at least 25), so such a period holds
    /// 0.4× the arrivals it holds at `Full`; `fig8_scale` divides its
    /// `|W| = |R|` by 100 and keeps `T = 400`; the Beijing datasets run
    /// at 2 %.
    Quick,
}

impl Scale {
    fn shrink(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Quick => (n / 20).max(50),
        }
    }

    fn shrink_t(self, t: usize) -> usize {
        match self {
            Scale::Full => t,
            Scale::Quick => (t / 8).max(25),
        }
    }

    fn beijing_scale(self) -> f64 {
        match self {
            Scale::Full => 1.0,
            Scale::Quick => 0.02,
        }
    }
}

/// Builds one compared strategy for a world of the given number of grid
/// cells.
pub type StrategyBuilder = Box<dyn Fn(usize) -> Box<dyn PricingStrategy> + Send + Sync>;

/// One figure panel: a swept parameter, a world builder and the compared
/// strategies.
pub struct PanelSpec {
    /// Figure id, e.g. `"fig6"`.
    pub figure: &'static str,
    /// Panel key used on the command line, e.g. `"w"`.
    pub panel: &'static str,
    /// Human-readable x-axis name, e.g. `"|W|"`.
    pub x_name: &'static str,
    /// Paper reference for the three metric sub-panels.
    pub paper_ref: &'static str,
    /// The sweep values.
    pub xs: Vec<f64>,
    /// Builds the ground-truth world for a sweep value and seed.
    pub build: Arc<dyn Fn(f64, Scale, u64) -> GroundTruth + Send + Sync>,
    /// The compared strategies, each under its table label, in the
    /// order the tables list them.
    pub strategies: Vec<(&'static str, StrategyBuilder)>,
}

impl std::fmt::Debug for PanelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PanelSpec")
            .field("figure", &self.figure)
            .field("panel", &self.panel)
            .field("x_name", &self.x_name)
            .field("xs", &self.xs)
            .finish()
    }
}

/// The five strategies of the paper's legends (Sec. 5.1), built with
/// paper defaults by [`paper_default_strategy`].
pub fn paper_strategies() -> Vec<(&'static str, StrategyBuilder)> {
    (StrategyKind::ALL.into_iter())
        .map(|kind| {
            let build: StrategyBuilder = Box::new(move |cells| paper_default_strategy(kind, cells));
            (kind.name(), build)
        })
        .collect()
}

fn synthetic_panel(
    figure: &'static str,
    panel: &'static str,
    x_name: &'static str,
    paper_ref: &'static str,
    xs: Vec<f64>,
    apply: impl Fn(&mut SyntheticConfig, f64, Scale) + Send + Sync + 'static,
) -> PanelSpec {
    PanelSpec {
        figure,
        panel,
        x_name,
        paper_ref,
        xs,
        build: Arc::new(move |x, scale, seed| {
            let mut cfg = SyntheticConfig::paper_default();
            cfg.num_workers = scale.shrink(cfg.num_workers);
            cfg.num_tasks = scale.shrink(cfg.num_tasks);
            cfg.periods = scale.shrink_t(cfg.periods);
            apply(&mut cfg, x, scale);
            cfg.build(seed)
        }),
        strategies: paper_strategies(),
    }
}

/// Fig. 6 column 1 (a,e,i): varying `|W|`.
pub fn fig6_w() -> PanelSpec {
    synthetic_panel(
        "fig6",
        "w",
        "|W|",
        "Fig. 6 (a,e,i)",
        vec![1250.0, 2500.0, 5000.0, 7500.0, 10000.0],
        |cfg, x, scale| cfg.num_workers = scale.shrink(x as usize),
    )
}

/// Fig. 6 column 2 (b,f,j): varying `|R|`.
pub fn fig6_r() -> PanelSpec {
    synthetic_panel(
        "fig6",
        "r",
        "|R|",
        "Fig. 6 (b,f,j)",
        vec![5000.0, 10000.0, 20000.0, 30000.0, 40000.0],
        |cfg, x, scale| cfg.num_tasks = scale.shrink(x as usize),
    )
}

/// Fig. 6 column 3 (c,g,k): varying the temporal mean μ.
pub fn fig6_mu_t() -> PanelSpec {
    synthetic_panel(
        "fig6",
        "mu-t",
        "temporal mu",
        "Fig. 6 (c,g,k)",
        vec![0.1, 0.3, 0.5, 0.7, 0.9],
        |cfg, x, _| cfg.temporal_mu = x,
    )
}

/// Fig. 6 column 4 (d,h,l): varying the spatial mean of task origins.
pub fn fig6_mean_s() -> PanelSpec {
    synthetic_panel(
        "fig6",
        "mean-s",
        "spatial mean",
        "Fig. 6 (d,h,l)",
        vec![0.1, 0.3, 0.5, 0.7, 0.9],
        |cfg, x, _| cfg.task_spatial_mean = x,
    )
}

/// Fig. 7 column 1 (a,e,i): varying the demand mean μ.
pub fn fig7_mu_v() -> PanelSpec {
    synthetic_panel(
        "fig7",
        "mu-v",
        "demand mu",
        "Fig. 7 (a,e,i)",
        vec![1.0, 1.5, 2.0, 2.5, 3.0],
        |cfg, x, _| cfg.demand_mu = x,
    )
}

/// Fig. 7 column 2 (b,f,j): varying the demand σ.
pub fn fig7_sigma_v() -> PanelSpec {
    synthetic_panel(
        "fig7",
        "sigma-v",
        "demand sigma",
        "Fig. 7 (b,f,j)",
        vec![0.5, 1.0, 1.5, 2.0, 2.5],
        |cfg, x, _| cfg.demand_sigma = x,
    )
}

/// Fig. 7 column 3 (c,g,k): varying the number of periods `T`.
pub fn fig7_t() -> PanelSpec {
    PanelSpec {
        figure: "fig7",
        panel: "t",
        x_name: "T",
        paper_ref: "Fig. 7 (c,g,k)",
        xs: vec![200.0, 400.0, 600.0, 800.0, 1000.0],
        build: Arc::new(|x, scale, seed| {
            let mut cfg = SyntheticConfig::paper_default();
            cfg.num_workers = scale.shrink(cfg.num_workers);
            cfg.num_tasks = scale.shrink(cfg.num_tasks);
            cfg.periods = match scale {
                Scale::Full => x as usize,
                Scale::Quick => (x as usize / 8).max(25),
            };
            cfg.build(seed)
        }),
        strategies: paper_strategies(),
    }
}

/// Fig. 7 column 4 (d,h,l): varying the number of grids `G` (side²).
pub fn fig7_g() -> PanelSpec {
    synthetic_panel(
        "fig7",
        "g",
        "G",
        "Fig. 7 (d,h,l)",
        vec![25.0, 100.0, 225.0, 400.0, 625.0],
        |cfg, x, _| cfg.grid_side = x.sqrt().round() as u32,
    )
}

/// Fig. 8 column 1 (a,e,i): varying the worker radius `a_w`.
pub fn fig8_aw() -> PanelSpec {
    synthetic_panel(
        "fig8",
        "aw",
        "a_w",
        "Fig. 8 (a,e,i)",
        vec![5.0, 10.0, 15.0, 20.0, 25.0],
        |cfg, x, _| cfg.worker_radius = x,
    )
}

/// Fig. 8 column 2 (b,f,j): scalability, `|W| = |R|` up to 500k.
pub fn fig8_scale() -> PanelSpec {
    PanelSpec {
        figure: "fig8",
        panel: "scale",
        x_name: "|W|=|R|",
        paper_ref: "Fig. 8 (b,f,j)",
        xs: vec![100_000.0, 200_000.0, 300_000.0, 400_000.0, 500_000.0],
        build: Arc::new(|x, scale, seed| {
            let n = match scale {
                Scale::Full => x as usize,
                Scale::Quick => (x as usize) / 100,
            };
            let mut cfg = SyntheticConfig::paper_default();
            cfg.num_workers = n;
            cfg.num_tasks = n;
            cfg.build(seed)
        }),
        strategies: paper_strategies(),
    }
}

/// Fig. 8 columns 3–4: Beijing-like datasets #1/#2, varying `δ_w`.
pub fn fig8_beijing(window_rush: bool) -> PanelSpec {
    PanelSpec {
        figure: "fig8",
        panel: if window_rush { "beijing1" } else { "beijing2" },
        x_name: "delta_w",
        paper_ref: if window_rush {
            "Fig. 8 (c,g,k)"
        } else {
            "Fig. 8 (d,h,l)"
        },
        xs: vec![5.0, 10.0, 15.0, 20.0, 25.0],
        build: Arc::new(move |x, scale, seed| {
            let cfg = if window_rush {
                BeijingConfig::rush_hour(x as u32)
            } else {
                BeijingConfig::night(x as u32)
            };
            cfg.with_scale(scale.beijing_scale()).build(seed)
        }),
        strategies: paper_strategies(),
    }
}

/// Fig. 10 (Appendix D): exponential demand, varying the rate α.
pub fn fig10_alpha() -> PanelSpec {
    synthetic_panel(
        "fig10",
        "alpha",
        "exp alpha",
        "Fig. 10 (a,b,c)",
        vec![0.5, 0.75, 1.0, 1.25, 1.5],
        |cfg, x, _| cfg.demand_kind = DemandKind::Exponential { alpha: x },
    )
}

/// MAPS with paper defaults but for what `vary` changes.
fn maps_variant(
    label: &'static str,
    vary: impl FnOnce(&mut MapsConfig),
) -> (&'static str, StrategyBuilder) {
    let mut cfg = MapsConfig::default();
    vary(&mut cfg);
    let ladder = PriceLadder::paper_default();
    let build: StrategyBuilder =
        Box::new(move |cells| Box::new(MapsStrategy::new(cells, ladder.clone(), cfg.clone())));
    (label, build)
}

/// The MAPS ablation: each design choice of Algorithm 3 and Sec. 4.2
/// switched alone, on the Table-3 default world (`|W|` = 5000; Quick:
/// 250 workers, 1000 tasks, 50 periods), with BaseP as the floor:
///
/// * `DeltaRule::LDifference` (default) vs the pseudocode's
///   `ScaledShorthand` heap keys;
/// * UCB optimism on vs off (plain sample means);
/// * change detection off (default on stationary demand) vs on;
/// * spatial smoothing β ∈ {0, 0.3};
/// * Eq. (1) vs Appendix C.6's `L̃` approximation;
/// * plateau lookahead on (default) vs the literal Δ=0 stop (the
///   concave-hull correction argued at `MapsConfig::plateau_lookahead`).
///
/// The default variant is the paper's MAPS, so its row and BaseP's are
/// `fig6_w`'s at `|W|` = 5000.
pub fn ablation() -> PanelSpec {
    let mut strategies = vec![
        maps_variant("MAPS (default: L-diff, UCB)", |_| {}),
        maps_variant("MAPS delta=shorthand", |c| {
            c.delta_rule = DeltaRule::ScaledShorthand
        }),
        maps_variant("MAPS no-UCB (plain means)", |c| c.use_ucb = false),
        maps_variant("MAPS change-detect w=200", |c| c.change_window = Some(200)),
        maps_variant("MAPS smoothing beta=0.3", |c| c.smoothing = Some(0.3)),
        maps_variant("MAPS approx=C.6 tilde", |c| {
            c.approx = ApproxKind::TruncatedExpectation
        }),
        maps_variant("MAPS no plateau lookahead", |c| c.plateau_lookahead = false),
    ];
    strategies.extend(
        paper_strategies()
            .into_iter()
            .filter(|(label, _)| *label == "BaseP"),
    );
    PanelSpec {
        strategies,
        ..synthetic_panel(
            "ablation",
            "maps",
            "|W|",
            "Alg. 3 and Sec. 4.2 design choices",
            vec![5000.0],
            |cfg, x, scale| cfg.num_workers = scale.shrink(x as usize),
        )
    }
}

/// All panels: the paper's in paper order, then the ablation.
pub fn all_panels() -> Vec<PanelSpec> {
    vec![
        fig6_w(),
        fig6_r(),
        fig6_mu_t(),
        fig6_mean_s(),
        fig7_mu_v(),
        fig7_sigma_v(),
        fig7_t(),
        fig7_g(),
        fig8_aw(),
        fig8_scale(),
        fig8_beijing(true),
        fig8_beijing(false),
        fig10_alpha(),
        ablation(),
    ]
}

/// Looks a panel up by its command-line key.
pub fn panel_by_name(name: &str) -> Option<PanelSpec> {
    all_panels().into_iter().find(|p| p.panel == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_complete() {
        let panels = all_panels();
        assert_eq!(panels.len(), 14);
        let keys: Vec<_> = panels.iter().map(|p| p.panel).collect();
        for k in [
            "w", "r", "mu-t", "mean-s", "mu-v", "sigma-v", "t", "g", "aw", "scale", "beijing1",
            "beijing2", "alpha", "maps",
        ] {
            assert!(keys.contains(&k), "missing panel {k}");
        }
        let labels = |p: &PanelSpec| p.strategies.iter().map(|(l, _)| *l).collect::<Vec<_>>();
        for p in panels.iter().filter(|p| p.figure != "ablation") {
            assert_eq!(p.xs.len(), 5, "{}: paper sweeps 5 values", p.panel);
            assert_eq!(labels(p), ["MAPS", "BaseP", "SDR", "SDE", "CappedUCB"]);
        }
        let ablation = ablation();
        assert_eq!(ablation.xs, [5000.0]);
        assert_eq!(labels(&ablation).len(), 8, "seven MAPS variants and BaseP");
    }

    #[test]
    fn lookup_works() {
        assert!(panel_by_name("aw").is_some());
        assert!(panel_by_name("nope").is_none());
    }

    #[test]
    fn quick_worlds_build_and_validate() {
        for p in all_panels() {
            let world = (p.build)(p.xs[0], Scale::Quick, 1);
            world
                .validate()
                .unwrap_or_else(|e| panic!("{}/{}: {e}", p.figure, p.panel));
            assert!(world.total_tasks() > 0, "{}", p.panel);
        }
    }

    #[test]
    fn fig6_w_sweep_changes_worker_count() {
        let p = fig6_w();
        let small = (p.build)(1250.0, Scale::Quick, 1);
        let large = (p.build)(10000.0, Scale::Quick, 1);
        assert!(large.total_workers() > small.total_workers());
    }

    #[test]
    fn fig7_g_sweep_changes_grid() {
        let p = fig7_g();
        let fine = (p.build)(625.0, Scale::Quick, 1);
        assert_eq!(fine.grid.num_cells(), 625);
        let coarse = (p.build)(25.0, Scale::Quick, 1);
        assert_eq!(coarse.grid.num_cells(), 25);
    }
}
