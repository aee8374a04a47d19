//! Plain-text CDF output shared by the experiment binaries.

use silo_base::Summary;

/// Print an empirical CDF as `value<TAB>probability` rows.
pub fn print_cdf(name: &str, summary: &mut Summary, points: usize) {
    println!("\n-- CDF: {name} ({} samples) --", summary.len());
    for (v, p) in summary.cdf(points) {
        println!("{v:.1}\t{p:.3}");
    }
}
