//! Regenerate **Table 1** — "Characteristics of RAP-WAM Storage Objects".
//!
//! The table is produced from the same object metadata the engine uses to
//! tag every memory reference, so it is guaranteed to describe the traces
//! actually fed to the cache simulator.

use pwam_bench::experiments::table1;
use pwam_bench::table::TextTable;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    pwam_bench::cli::reject_unknown_flags(&args, &[("--json", false)]);
    let rows = table1();
    let mut t = TextTable::new(vec!["Frame type", "area", "WAM?", "lock", "locality"]);
    for r in &rows {
        t.row(vec![
            r.frame_type.clone(),
            r.area.clone(),
            if r.in_wam { "yes" } else { "no" }.to_string(),
            if r.locked { "yes" } else { "no" }.to_string(),
            r.locality.clone(),
        ]);
    }
    println!("Table 1: Characteristics of RAP-WAM Storage Objects");
    println!("{}", t.render());
    if args.iter().any(|a| a == "--json") {
        println!("{}", serde_json::to_string_pretty(&rows).expect("serialise"));
    }
}
