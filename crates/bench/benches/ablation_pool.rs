//! Pool-size ablation (`experiments::pool_ablation`): the paper bounds
//! profiler memory with a 1M-entry construct pool and lazy retirement
//! (Table I, Theorem 1) and reports that the pool never overflowed. This
//! ablation shrinks the pool and shows (a) reuse kicking in, (b) overflow
//! growths staying at zero for generous pools, and (c) the profile's
//! violating-RAW counts surviving aggressive reuse.

use alchemist_bench::{pool_ablation, render_pool_ablation};
use alchemist_workloads::Scale;

fn main() {
    for name in ["gzip-1.3.5", "bzip2"] {
        let rows = pool_ablation(name, Scale::Default, &[8, 64, 1024, 65536, 1_000_000]);
        print!("{}", render_pool_ablation(name, &rows));
        println!();
    }
}
