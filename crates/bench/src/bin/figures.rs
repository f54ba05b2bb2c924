//! Regenerates the paper's evaluation artifacts.
//!
//! ```text
//! figures [--smoke] [--quick] [--results DIR] [table1|fig8|...|fig13|ablation|all]...
//! ```
//!
//! * `fig8`–`fig10` are the hot-cache experiments, `fig11`–`fig13` their
//!   cold-cache twins (buffer pool dropped before every query).
//! * `--quick` runs a one-tenth-scale corpus (largest list 10 000, ten
//!   queries per point); `--smoke` a CI-sized one (largest list 1 000,
//!   five queries per point). The default is the full paper-scale ladder
//!   up to 100 000.
//!
//! Every figure series lands in one `results/BENCH_figures.json`
//! artifact through the shared `xk_bench::trial` envelope (one case per
//! figure/x/algorithm point). `table1` and the β-ablation are printed
//! only — they are narrative tables, not regression-tracked series.

use std::path::PathBuf;
use xk_bench::trial::Suite;
use xk_bench::{corpus, figures, Cache, Scale, Table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut results_dir: Option<PathBuf> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--results" => {
                i += 1;
                results_dir = Some(PathBuf::from(args.get(i).expect("--results needs a value")));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [--smoke] [--quick] [--results DIR] \
                     [table1|fig8|...|fig13|ablation|all]..."
                );
                return;
            }
            other => selected.push(other.to_string()),
        }
        i += 1;
    }
    // `--results` keeps working as an alias for the trial output dir.
    if let Some(dir) = &results_dir {
        std::env::set_var("XK_BENCH_OUT", dir);
    }
    let results_dir = results_dir.unwrap_or_else(xk_bench::trial::results_dir);
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = ["table1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "ablation"]
            .map(String::from)
            .to_vec();
    }

    let cache_dir = results_dir.join("cache");
    let corpus = corpus(scale, &cache_dir);
    let started = std::time::Instant::now();

    let mut suite = Suite::new("figures", scale.tag(), 0x51CA);
    suite
        .config("queries_per_point", scale.queries_per_point() as f64)
        .config("largest_frequency", scale.large() as f64)
        .config("page_size", 4096.0)
        .config("pool_pages", 16_384.0);
    for experiment in &selected {
        let tables: Vec<Table> = match experiment.as_str() {
            "table1" => {
                print!("{}", figures::table1(&corpus));
                continue;
            }
            "fig8" => figures::fig8(&corpus, Cache::Hot),
            "fig9" => figures::fig9(&corpus, Cache::Hot),
            "fig10" => figures::fig10(&corpus, Cache::Hot),
            "fig11" => figures::fig8(&corpus, Cache::Cold),
            "fig12" => figures::fig9(&corpus, Cache::Cold),
            "fig13" => figures::fig10(&corpus, Cache::Cold),
            "ablation" => {
                print!("{}", figures::ablation_beta(&corpus));
                vec![figures::ablation_pool(&corpus)]
            }
            other => {
                eprintln!("unknown experiment {other:?}, skipping");
                continue;
            }
        };
        for t in &tables {
            print!("{}", t.to_text());
            t.record(&mut suite);
        }
    }
    if !suite.cases.is_empty() {
        suite.write().expect("write BENCH_figures.json");
    }
    eprintln!("\n[figures] done in {:.1?}", started.elapsed());
}
