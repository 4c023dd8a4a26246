//! Taxonomy tour: every DGA family preset in the library, its place in the
//! Fig. 3 grid, and how visible each one is behind a caching resolver.
//!
//! ```sh
//! cargo run --release --example taxonomy_tour
//! ```

use botmeter::dga::{known_families, DgaFamily};
use botmeter::exec::ExecPolicy;
use botmeter::sim::ScenarioSpec;

fn main() {
    println!("The Fig. 3 taxonomy grid:\n");
    for cell in known_families() {
        let families = if cell.families.is_empty() {
            "?".to_owned()
        } else {
            cell.families.join(", ")
        };
        println!(
            "  {:<20} × {:<18} {}",
            cell.pool.to_string(),
            cell.barrel.to_string(),
            families
        );
    }

    println!("\nPer-family presets and cache-visibility (16 bots, one epoch):\n");
    println!(
        "{:<12} {:<6} {:>8} {:>4} {:>6} {:>10}  {:>8} {:>9} {:>7}",
        "family", "cell", "θ∅", "θ∃", "θq", "δi", "raw", "visible", "ratio"
    );
    for family in [
        DgaFamily::murofet(),
        DgaFamily::srizbi(),
        DgaFamily::torpig(),
        DgaFamily::ramnit(),
        DgaFamily::qakbot(),
        DgaFamily::ranbyus(),
        DgaFamily::pushdo(),
        DgaFamily::conficker_c(),
        DgaFamily::pykspa(),
        DgaFamily::new_goz(),
        DgaFamily::necurs(),
    ] {
        let outcome = ScenarioSpec::builder(family.clone())
            .population(16)
            .seed(1)
            .build()
            .expect("presets are valid")
            .run(ExecPolicy::default());
        let raw = outcome.raw_lookups();
        let visible = outcome.observed().len();
        let p = family.params();
        println!(
            "{:<12} {:<6} {:>8} {:>4} {:>6} {:>10}  {:>8} {:>9} {:>6.1}%",
            family.name(),
            family.barrel_class().shorthand(),
            p.theta_nx(),
            p.theta_valid(),
            p.theta_q(),
            p.timing().to_string(),
            raw,
            visible,
            100.0 * visible as f64 / raw.max(1) as f64,
        );
    }
    println!("\nNote the AU rows: identical barrels + negative caching make most");
    println!("lookups invisible — the effect the Poisson estimator corrects for.");
}
