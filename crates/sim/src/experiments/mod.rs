//! One driver per table and figure in the paper's evaluation.
//!
//! Every driver takes an instruction (or reference) budget so the same
//! code backs the full experiment binaries (`cargo run -p seesaw-bench
//! --bin figN`) and the Criterion benches. Each returns structured rows
//! plus a [`crate::Table`] renderer, and `EXPERIMENTS.md` records the
//! paper-vs-measured comparison.

mod ablations;
mod designs;
mod fig2;
mod fig3;
mod fig7;
mod fig10;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod multicore;
mod partitions;
mod scheduler;
mod tables;

pub use ablations::{
    ablation_table, area_control, asid_flush_ablation, insertion_ablation, prefetch_ablation,
    snoopy_ablation, AblationRow,
};
pub use designs::{
    all_design_kinds, design_fingerprint, designs, designs_table, DesignRow, DESIGN_LAB,
};
pub use fig2::{fig2a, fig2a_table, fig2b, fig2bc_table, fig2c, Fig2aRow, Fig2bRow};
pub use fig3::{fig3, fig3_table, Fig3Row, FIG3_MEMHOG};
pub use fig7::{fig7, fig7_table, fig8, fig9, freq_sweep_table, Fig7Row, FreqSweepRow};
pub use fig10::{fig10, fig10_table, fig11, fig11_table, Fig10Row, Fig11Row};
pub use fig12::{fig12, fig12_table, Fig12Row};
pub use fig13::{fig13, fig13_table, Fig13Row};
pub use fig14::{fig14, fig14_table, Fig14Row};
pub use fig15::{fig15, fig15_table, Fig15Row};
pub use multicore::{
    multicore_sweep, multicore_table, MulticoreRow, CORE_COUNTS, MULTICORE_WORKLOADS,
};
pub use partitions::{partition_ablation, partition_table, valid_partitioning, PartitionRow};
pub use scheduler::{scheduler_ablation, scheduler_table, SchedulerRow, MEMHOG_LEVELS, SQUASH_COSTS};
pub use tables::{table1, table1_table, table2, table3, table3_table, Table1Row, Table3Row};
