//! Regenerate **Figure 4** — "Traffic of Coherency Schemes".
//!
//! For each coherency protocol (write-in broadcast, hybrid, conventional
//! write-through — plus the write-through broadcast variant with
//! `--all-protocols`), each PE count in {1,2,4,8} and each cache size in
//! {64..8192} words, report the traffic ratio averaged over the four
//! benchmarks, using 4-word lines and the allocate policy the paper selected
//! per size.
//!
//! Usage: `figure4 [--scale small|paper|large] [--threads N] [--all-protocols] [--json]`

use pwam_bench::experiments::figure4;
use pwam_bench::paper;
use pwam_bench::table::{f3, TextTable};
use pwam_cachesim::Protocol;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let known = [pwam_bench::cli::COMMON_FLAGS.as_slice(), &[("--all-protocols", false)]].concat();
    pwam_bench::cli::reject_unknown_flags(&args, &known);
    let scale = pwam_bench::cli::scale_arg(&args);
    pwam_bench::cli::threads_and_determinism_args(&args);
    let protocols: Vec<Protocol> = if args.iter().any(|a| a == "--all-protocols") {
        vec![
            Protocol::WriteInBroadcast,
            Protocol::WriteThroughBroadcast,
            Protocol::Hybrid,
            Protocol::WriteThrough,
        ]
    } else {
        vec![Protocol::WriteInBroadcast, Protocol::Hybrid, Protocol::WriteThrough]
    };

    let fig = figure4(scale, &protocols, &paper::FIGURE4_PE_COUNTS, &paper::FIGURE4_CACHE_SIZES);

    println!("Figure 4: mean traffic ratio of the coherency schemes (scale {scale:?})");
    println!("(4-word lines, allocate policy per the paper, averaged over {:?})\n", fig.benchmarks);
    for protocol in protocols.iter().map(|p| p.name()) {
        println!("{protocol}:");
        let mut header = vec!["# PEs".to_string()];
        header.extend(fig.cache_sizes.iter().map(|s| s.to_string()));
        let mut t = TextTable::new(header);
        for series in fig.series.iter().filter(|s| s.protocol == protocol) {
            let mut cells = vec![format!("{}PE", series.pes)];
            cells.extend(series.points.iter().map(|(_, tr)| f3(*tr)));
            t.row(cells);
        }
        println!("{}", t.render());
    }

    println!("Paper's qualitative results to compare against:");
    println!(" * broadcast <= hybrid <= write-through at every size and PE count;");
    println!(" * the hybrid cache comes close to the broadcast (copy-back) cache;");
    println!(" * 8 PEs with >= 128-word broadcast caches leave < 0.3 of the traffic on the bus;");
    println!(" * write-through broadcast is almost identical to write-in broadcast.");

    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string_pretty(&fig).expect("serialise"));
    }
}
