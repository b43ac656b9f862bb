//! The benchmark workloads and the simulator configurations each
//! one runs. Every grid is built here from `RunConfig` builders, so the
//! benchmark does not depend on any figure driver's plan registry.

use seesaw_sim::{CpuKind, Frequency, L1DesignKind, RunConfig};
use seesaw_workloads::{catalog, fig12_subset};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A figure-shaped grid through `Plan::run_sweep` with a fresh store.
    Sweep,
    /// 4-core MOESI-directory cells under fragmentation and page churn.
    MulticoreChurn,
}

/// Instructions per core of a `sweep` cell.
pub const SWEEP_BUDGET: u64 = 150_000;
/// Instructions per core of a `multicore-churn` cell.
pub const CHURN_BUDGET: u64 = 100_000;
/// Instructions per core of a checker smoke run.
pub const CHECK_BUDGET: u64 = 20_000;
/// Worker threads of every timed section, the `sweep` plan's included.
/// One, not the host's two: on a shared 2-vCPU host, two busy workers
/// draw heavy hypervisor steal and make wall time too noisy to gate on.
pub const WORKER_THREADS: usize = 1;

/// The multithreaded, write-heavy workloads `multicore-churn` runs.
pub const CHURN_WORKLOADS: [&str; 4] = ["cann", "tunk", "redis", "olio"];

/// Salt that moves checker smoke runs off the timed cells' seed, so they
/// warm no artifact the timed section is meant to build.
const CHECK_SEED_SALT: u64 = 0xc4ec_4ec4_ec4e_c4ec;

/// One cell of a grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Plan label, `workload/knobs/design`.
    pub label: String,
    /// The configuration.
    pub config: RunConfig,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::Sweep, Workload::MulticoreChurn];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::MulticoreChurn => "multicore-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Per-core instruction budget of the workload's cells.
    pub fn budget(self) -> u64 {
        match self {
            Workload::Sweep => SWEEP_BUDGET,
            Workload::MulticoreChurn => CHURN_BUDGET,
        }
    }

    /// Times the timed section runs the grid. `multicore-churn` repeats
    /// it on warm caches to measure more work per process; a sweep
    /// cannot, since its second pass would be all memo hits.
    pub fn rounds(self) -> usize {
        match self {
            Workload::Sweep => 1,
            Workload::MulticoreChurn => 2,
        }
    }

    /// The timed grid. Baseline and SEESAW cells alternate, baseline
    /// first, so `cells[2k]` and `cells[2k + 1]` form a comparison pair.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut cells = Vec::new();
        let mut pair = |label: String, config: RunConfig| {
            for (tag, design) in [
                ("base", L1DesignKind::BaselineVipt),
                ("seesaw", L1DesignKind::Seesaw),
            ] {
                cells.push(Cell {
                    label: format!("{label}/{tag}"),
                    config: config.clone().design(design),
                });
            }
        };
        match self {
            Workload::Sweep => {
                for spec in catalog() {
                    for kb in [32, 64, 128] {
                        pair(
                            format!("{}/{kb}k", spec.name),
                            base_config(spec.name, seed, SWEEP_BUDGET).l1_size(kb),
                        );
                    }
                }
                // Fig. 12's fragmentation levels on the cloud subset; the
                // memhog-0 row repeats the 64 KB cells above, so the memo
                // serves those from the first simulation.
                for spec in fig12_subset() {
                    for memhog in [0, 30, 60] {
                        let config = base_config(spec.name, seed, SWEEP_BUDGET)
                            .l1_size(64)
                            .memhog(memhog);
                        pair(format!("{}/mh{memhog}", spec.name), config);
                    }
                }
            }
            Workload::MulticoreChurn => {
                for name in CHURN_WORKLOADS {
                    for kb in [32, 64, 128] {
                        pair(
                            format!("{name}/{kb}k"),
                            churn_config(name, seed).l1_size(kb),
                        );
                    }
                }
            }
        }
        cells
    }

    /// Short checker runs, one per workload of the grid (SEESAW, the
    /// design with the most invariants to break), on a salted seed.
    pub fn checker_cells(self, seed: u64) -> Vec<Cell> {
        let cells = self.cells(seed);
        let seesaw: Vec<Cell> = cells
            .into_iter()
            .filter(|c| c.config.design == L1DesignKind::Seesaw)
            .collect();
        first_per_workload(&seesaw)
            .into_iter()
            .map(|c| {
                let mut config = c.config.clone();
                config.seed ^= CHECK_SEED_SALT;
                Cell {
                    label: format!("check/{}", c.label),
                    config: config
                        .instructions(CHECK_BUDGET)
                        .warmup(CHECK_BUDGET / 3)
                        .with_checker(),
                }
            })
            .collect()
    }
}

/// The first cell of each catalog workload, in grid order.
pub fn first_per_workload(cells: &[Cell]) -> Vec<&Cell> {
    let mut seen = Vec::new();
    cells
        .iter()
        .filter(|c| {
            let first = !seen.contains(&c.config.workload.name);
            seen.push(c.config.workload.name);
            first
        })
        .collect()
}

/// The simulator seed for a benchmark seed (splitmix64, so neighbouring
/// benchmark seeds give unrelated streams).
pub fn sim_seed(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Paper defaults (32 KB, 1.33 GHz, out-of-order) at the given budget
/// with an explicit warmup of a third of it.
fn base_config(workload: &str, seed: u64, budget: u64) -> RunConfig {
    let mut config = RunConfig::paper(workload)
        .cpu(CpuKind::OutOfOrder)
        .frequency(Frequency::F1_33)
        .instructions(budget)
        .warmup(budget / 3);
    config.seed = sim_seed(seed);
    config
}

/// 4 cores on the real directory at memhog 60 %, with context switches
/// and splinter/re-promote churn inside the measured window.
fn churn_config(workload: &str, seed: u64) -> RunConfig {
    let mut config = base_config(workload, seed, CHURN_BUDGET)
        .cores(4)
        .memhog(60);
    config.context_switch_interval = Some(CHURN_BUDGET / 4);
    config.page_op_interval = Some(CHURN_BUDGET / 8);
    config
}

/// Warmup plus measured instructions a cell simulates, over all cores.
pub fn simulated_instructions(config: &RunConfig) -> u64 {
    let warmup = config
        .warmup_instructions
        .expect("benchmark cells set warmup explicitly");
    config.cores as u64 * (warmup + config.instructions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_pair_baseline_with_seesaw() {
        for w in Workload::ALL {
            let cells = w.cells(7);
            assert!(cells.len() % 2 == 0);
            for p in cells.chunks(2) {
                assert_eq!(p[0].config.design, L1DesignKind::BaselineVipt);
                assert_eq!(p[1].config.design, L1DesignKind::Seesaw);
                assert_eq!(p[0].config.workload.name, p[1].config.workload.name);
            }
        }
        assert_eq!(Workload::Sweep.cells(7).len(), 16 * 3 * 2 + 8 * 3 * 2);
        assert_eq!(Workload::MulticoreChurn.cells(7).len(), 24);
    }

    #[test]
    fn the_seed_reaches_every_config() {
        let a = Workload::Sweep.cells(1);
        let b = Workload::Sweep.cells(2);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.config.seed != y.config.seed));
        assert_eq!(a[0].config.seed, Workload::Sweep.cells(1)[0].config.seed);
    }

    #[test]
    fn checker_cells_cover_each_workload_once_off_the_timed_seed() {
        let cells = Workload::Sweep.checker_cells(3);
        assert_eq!(cells.len(), 16);
        let timed_seed = Workload::Sweep.cells(3)[0].config.seed;
        assert!(cells
            .iter()
            .all(|c| c.config.checker && c.config.seed != timed_seed));
        assert_eq!(Workload::MulticoreChurn.checker_cells(3).len(), 4);
    }
}
