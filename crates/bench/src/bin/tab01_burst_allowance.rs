//! Table 1: percentage of messages whose latency exceeds the guarantee,
//! sweeping the bandwidth guarantee (columns, B…3B) and the burst
//! allowance (rows, M…9M) for Poisson messages of size M.

use silo_base::{seeded_rng, Bytes, Rate};
use silo_bench::Args;
use silo_simnet::msgqueue::table1;

fn main() {
    let args = Args::parse_unobserved();
    let mut rng = seeded_rng(args.seed);
    let msg = Bytes::from_kb(15);
    let avg = Rate::from_mbps(100);
    let bw = [1.0, 1.4, 1.8, 2.2, 2.6, 3.0];
    let burst = [1u64, 3, 5, 7, 9];
    let n = 100_000;
    let table = table1(msg, avg, &bw, &burst, n, &mut rng);

    println!("== Table 1: % messages later than the guarantee ==");
    println!("(rows: burst S in multiples of M; cols: guarantee in multiples of B)");
    print!("S\\B\t");
    for w in bw {
        print!("{w:.1}B\t");
    }
    println!();
    for (ri, row) in table.iter().enumerate() {
        print!("{}M\t", burst[ri]);
        for v in row {
            print!("{:.2}\t", v * 100.0);
        }
        println!();
    }
    println!("\npaper reference (same sweep):");
    println!("1M: 99 77 55 45 38 33 | 3M: 99 22 8 3.6 1.9 1.1 | 5M: 99 6.1 0.9 0.2 0.06 0.02");
    println!("7M: 99 1.6 0.09 0.01 0 0 | 9M: 98 0.4 0.01 0 0 0");
}
