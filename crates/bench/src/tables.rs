//! The static artifacts: Table I's parameter presets and Fig. 3's
//! taxonomy grid, rendered as `table1` and `taxonomy` print them.

use crate::render::TextTable;
use botmeter_dga::{known_families, BarrelClass, DgaFamily, PoolClass};

/// Table I: the DGA-specific parameter settings, with the paper's values
/// alongside (`results/table1.txt`).
pub fn table1() -> String {
    let mut table = TextTable::new(&[
        "DGA Model",
        "Prototype",
        "theta_nx",
        "theta_valid",
        "theta_q",
        "delta_i",
        "pool model",
    ]);
    for family in DgaFamily::table1_prototypes() {
        let p = family.params();
        table.row(&[
            family.barrel_class().shorthand(),
            family.name(),
            &p.theta_nx().to_string(),
            &p.theta_valid().to_string(),
            &p.theta_q().to_string(),
            &p.timing().to_string(),
            &family.pool_class().to_string(),
        ]);
    }
    format!(
        "Table I — DGA-specific parameter setting\n\n{}\n\
         (paper: Murofet 798/2/798/500ms, Conficker.C 49995/5/500/1sec,\n \
         newGoZ 9995/5/500/1sec, Necurs 2046/2/2046/500ms)\n",
        table.render()
    )
}

/// Fig. 3: the pool × barrel grid with the known families of each cell
/// (`results/fig3.txt`).
pub fn taxonomy() -> String {
    let grid = known_families();
    let mut table = TextTable::new(&[
        "barrel \\ pool",
        "drain-replenish",
        "sliding-window",
        "multiple-mixture",
    ]);
    for barrel in [
        BarrelClass::Sampling,
        BarrelClass::Permutation,
        BarrelClass::RandomCut,
        BarrelClass::Uniform,
    ] {
        let cell = |pool: PoolClass| -> String {
            let families = &grid
                .iter()
                .find(|c| c.pool == pool && c.barrel == barrel)
                .expect("complete grid")
                .families;
            if families.is_empty() {
                "?".to_owned()
            } else {
                families.join(", ")
            }
        };
        let label = format!("{} ({})", barrel, barrel.shorthand());
        table.row(&[
            &label,
            &cell(PoolClass::DrainReplenish),
            &cell(PoolClass::SlidingWindow),
            &cell(PoolClass::MultipleMixture),
        ]);
    }
    format!(
        "Fig. 3 — a taxonomy of DGAs (rows: barrel model, columns: pool model)\n\
         ('?' marks combinations not yet spotted in the wild)\n\n{}",
        table.render()
    )
}
