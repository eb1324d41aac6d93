//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p s3crm-bench --release --bin repro            # everything, quick preset
//! cargo run -p s3crm-bench --release --bin repro -- fig6    # one artifact
//! cargo run -p s3crm-bench --release --bin repro -- --full  # overnight preset
//! cargo run -p s3crm-bench --release --bin repro -- --scale 2.0 fig9
//! cargo run -p s3crm-bench --release --bin repro -- --cache .oscg-cache fig6
//! cargo run -p s3crm-bench --release --bin repro -- --data soc-Epinions1.txt data
//! cargo run -p s3crm-bench --release --bin repro -- convert edges.txt edges.oscg
//! cargo run -p s3crm-bench --release --bin repro -- convert --shards 4 edges.txt edges.oscg
//! cargo run -p s3crm-bench --release --bin repro -- sniff edges.oscg
//! cargo run -p s3crm-bench --release --bin repro -- --estimator sketch fig9
//! cargo run -p s3crm-bench --release --bin repro -- csvdiff a.csv b.csv 0.05
//! ```
//!
//! Results print as aligned tables and are written as CSV under
//! `experiments-out/`. `--data PATH` substitutes a real dataset (SNAP text
//! or `.oscg` binary, auto-detected) for the synthetic profiles; `convert`
//! re-encodes a dataset as binary; `--cache DIR` memoizes generated
//! profiles as `.oscg` files.

#![forbid(unsafe_code)]

use osn_gen::DatasetProfile;
use s3crm_bench::experiments::{
    ablation, dataset as data_experiment, extensions, fig10, fig6, fig7, fig8, fig9, table3, table4,
};
use s3crm_bench::{dataset, Effort, Table};
use std::path::PathBuf;

struct Args {
    effort: Effort,
    artifacts: Vec<String>,
    out_dir: PathBuf,
    data: Option<PathBuf>,
    cache: Option<PathBuf>,
    pool_size: Option<usize>,
}

/// What a command line asks for.
enum Cli {
    Run(Args),
    Help,
}

const USAGE: &str = "usage: repro [--full|--micro] [--scale X] [--worlds N] [--seed N] \
                     [--pool-size N] [--estimator mc|sketch] [--out DIR] \
                     [--cache DIR] [--data PATH] \
                     [fig6 fig7 fig8 fig9 fig10 table3 table4 ablation extensions data]...\n\
                     \x20      repro convert [--shards N] INPUT OUTPUT\n\
                     \x20                                   # re-encode a dataset as .oscg (default: one shard)\n\
                     \x20      repro sniff FILE             # print an .oscg header / shard table\n\
                     \x20      repro csvdiff A B TOL        # compare two CSVs (relative tolerance)";

/// The value following `flag`.
fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed as a `T`.
fn flag_number<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = flag_value(it, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} must be {what}, got {v:?}"))
}

/// The value following `flag`, parsed as a positive integer.
fn flag_positive(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    match flag_number(it, flag, "a positive integer")? {
        0 => Err(format!("{flag} must be a positive integer, got 0")),
        v => Ok(v),
    }
}

/// Parse the global command line (program name excluded). Malformed input
/// is a usage error, never a panic.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut effort = Effort::quick();
    let mut artifacts: Vec<String> = Vec::new();
    let mut out_dir = PathBuf::from("experiments-out");
    let mut data: Option<PathBuf> = None;
    let mut cache: Option<PathBuf> = None;
    let mut pool_size: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => effort = Effort::full(),
            "--micro" => effort = Effort::micro(),
            "--scale" => {
                let scale: f64 = flag_number(&mut it, "--scale", "a positive number")?;
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(format!("--scale must be a positive number, got {scale}"));
                }
                effort.graph_scale = scale;
            }
            "--worlds" => effort.eval_worlds = flag_positive(&mut it, "--worlds")?,
            "--seed" => effort.seed = flag_number(&mut it, "--seed", "an integer")?,
            "--pool-size" => {
                // The shared worker pool is built once, up front; every
                // evaluator in every experiment folds on it. Results are
                // bit-identical at any size (the determinism contract) —
                // the flag exists for perf tuning and for CI's 2-worker
                // drift check. The pool cannot be resized once built, so a
                // repeated flag is an error rather than silently ignored.
                let threads = flag_positive(&mut it, "--pool-size")?;
                if threads > osn_pool::MAX_THREADS {
                    return Err(format!(
                        "--pool-size must be at most {}, got {threads}",
                        osn_pool::MAX_THREADS
                    ));
                }
                if pool_size.replace(threads).is_some() {
                    return Err("--pool-size given twice".to_string());
                }
            }
            "--estimator" => {
                // Which backend drives S3CA's ID phase. `mc` is the exact
                // incremental engine with Monte-Carlo snapshot re-ranking;
                // `sketch` builds a reverse-reachability sketch index and
                // runs the greedy loop against its coverage oracle (final
                // objectives are re-evaluated analytically).
                effort.estimator = match flag_value(&mut it, "--estimator")?.as_str() {
                    "mc" => s3crm_core::EstimatorBackend::Mc,
                    "sketch" => s3crm_core::EstimatorBackend::Sketch,
                    other => {
                        return Err(format!("--estimator must be mc or sketch, got {other:?}"))
                    }
                };
            }
            "--out" => out_dir = PathBuf::from(flag_value(&mut it, "--out")?),
            "--data" => data = Some(PathBuf::from(flag_value(&mut it, "--data")?)),
            "--cache" => cache = Some(PathBuf::from(flag_value(&mut it, "--cache")?)),
            "--help" | "-h" => return Ok(Cli::Help),
            other => {
                artifacts.push(other.to_string());
                // Subcommands own the rest of the command line: their flags
                // (e.g. `convert … --shards`) must not be eaten by the
                // global parser above.
                if artifacts.len() == 1 && matches!(other, "convert" | "sniff" | "csvdiff") {
                    artifacts.extend(it.by_ref());
                    break;
                }
            }
        }
    }
    if artifacts.is_empty() {
        // With a dataset on the command line the natural default is the
        // dataset sweep; otherwise the full paper reproduction.
        artifacts = if data.is_some() {
            vec!["data".to_string()]
        } else {
            [
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "table3",
                "table4",
                "ablation",
                "extensions",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect()
        };
    }
    Ok(Cli::Run(Args {
        effort,
        artifacts,
        out_dir,
        data,
        cache,
        pool_size,
    }))
}

/// Do two numeric CSV cells agree within relative tolerance `tol`
/// (absolute for magnitudes below 1)? Non-finite values never hide behind
/// the tolerance: `NaN` matches nothing (a NaN objective is exactly the
/// corruption csvdiff exists to catch, and every comparison against NaN is
/// false — the old `> tol*scale` test silently passed it), and `±inf`
/// matches only the same-signed `inf` (`inf - finite` is `inf`, but so is
/// `tol * inf`, so the old test passed that too).
fn numeric_cells_match(x: f64, y: f64, tol: f64) -> bool {
    if x.is_nan() || y.is_nan() {
        return false;
    }
    if x.is_infinite() || y.is_infinite() {
        return x == y;
    }
    let scale = x.abs().max(y.abs()).max(1.0);
    (x - y).abs() <= tol * scale
}

/// Most mismatch lines csvdiff prints before suppressing the rest: a fully
/// divergent CSV must not flood a CI log, but the summary line always
/// reports the true total.
const CSVDIFF_MAX_REPORTS: usize = 40;

/// Compare two CSVs line-wise and return one message per mismatch. Rows are
/// compared cell by cell (numeric cells within `tol`, see
/// [`numeric_cells_match`]; others exactly). When the row counts differ,
/// every unpaired trailing row of the longer file is reported individually —
/// a zip that silently drops the tail would hide *what* diverged.
fn diff_csv(a: &[String], b: &[String], tol: f64) -> Vec<String> {
    let mut msgs = Vec::new();
    if a.len() != b.len() {
        msgs.push(format!("row count {} vs {}", a.len(), b.len()));
    }
    for (row, (la, lb)) in a.iter().zip(b).enumerate() {
        let (ca, cb): (Vec<&str>, Vec<&str>) = (la.split(',').collect(), lb.split(',').collect());
        if ca.len() != cb.len() {
            msgs.push(format!(
                "row {row}: column count {} vs {}",
                ca.len(),
                cb.len()
            ));
            continue;
        }
        for (col, (va, vb)) in ca.iter().zip(&cb).enumerate() {
            match (va.trim().parse::<f64>(), vb.trim().parse::<f64>()) {
                (Ok(x), Ok(y)) => {
                    if !numeric_cells_match(x, y, tol) {
                        msgs.push(format!("row {row} col {col}: {x} vs {y} (tol {tol})"));
                    }
                }
                _ => {
                    if va.trim() != vb.trim() {
                        msgs.push(format!("row {row} col {col}: {va:?} vs {vb:?}"));
                    }
                }
            }
        }
    }
    let common = a.len().min(b.len());
    let (longer, which) = if a.len() > b.len() {
        (a, "A")
    } else {
        (b, "B")
    };
    for (row, line) in longer.iter().enumerate().skip(common) {
        msgs.push(format!("row {row} only in {which}: {line:?}"));
    }
    msgs
}

/// `repro csvdiff A B TOL` — compare two experiment CSVs cell by cell:
/// numeric cells must agree within relative tolerance `TOL` (absolute for
/// magnitudes below 1, never for non-finite values), non-numeric cells
/// exactly; unpaired trailing rows of the longer file each count as a
/// mismatch. Exit 0 on match, 1 on divergence (mismatches reported, capped
/// at [`CSVDIFF_MAX_REPORTS`] lines), 2 on usage/IO errors. CI uses this to
/// bound the sketch-vs-MC objective gap and to byte-check daemon replies
/// against their serial reference.
fn run_csvdiff(paths: &[String]) -> ! {
    let [a_path, b_path, tol] = paths else {
        eprintln!("usage: repro csvdiff A B TOL");
        std::process::exit(2);
    };
    let tol: f64 = tol.parse().unwrap_or_else(|_| {
        eprintln!("csvdiff: TOL must be a number, got {tol:?}");
        std::process::exit(2);
    });
    let read = |p: &String| -> Vec<String> {
        match std::fs::read_to_string(p) {
            Ok(s) => s.lines().map(str::to_string).collect(),
            Err(e) => {
                eprintln!("csvdiff: cannot read {p}: {e}");
                std::process::exit(2);
            }
        }
    };
    let (a, b) = (read(a_path), read(b_path));
    let msgs = diff_csv(&a, &b, tol);
    if msgs.is_empty() {
        println!("csvdiff: {a_path} and {b_path} agree within {tol}");
        std::process::exit(0);
    }
    for msg in msgs.iter().take(CSVDIFF_MAX_REPORTS) {
        eprintln!("csvdiff: {msg}");
    }
    if msgs.len() > CSVDIFF_MAX_REPORTS {
        eprintln!(
            "csvdiff: ... {} further mismatches suppressed",
            msgs.len() - CSVDIFF_MAX_REPORTS
        );
    }
    eprintln!("csvdiff: {} mismatches", msgs.len());
    std::process::exit(1);
}

/// `repro convert [--shards N] INPUT OUTPUT` — runs before the experiment
/// loop. Without `--shards` the output is one shard.
fn run_convert(args: &[String]) -> ! {
    let usage = || -> ! {
        eprintln!("usage: repro convert [--shards N] INPUT OUTPUT");
        std::process::exit(2);
    };
    let mut shards = 1;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                let v = it.next().unwrap_or_else(|| usage());
                shards = v.parse().ok().filter(|&c| c >= 1).unwrap_or_else(|| {
                    eprintln!("convert: --shards must be a positive integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            _ => paths.push(arg),
        }
    }
    let [input, output] = paths[..] else { usage() };
    let (input_p, output_p) = (std::path::Path::new(input), std::path::Path::new(output));
    match dataset::convert_sharded(input_p, output_p, shards) {
        Ok(shards) => {
            let size = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
            println!("converted {input} -> {output} ({size} bytes, {shards} shards, v2)");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("convert failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro sniff FILE` — print an `.oscg` file's header and shard table (a
/// legacy v1 file is its one shard). Opening decodes and validates the
/// whole file — every checksum, every shard and the transpose — so a clean
/// sniff proves the file.
fn run_sniff(paths: &[String]) -> ! {
    let [path] = paths else {
        eprintln!("usage: repro sniff FILE");
        std::process::exit(2);
    };
    let p = std::path::Path::new(path);
    let version = match osn_graph::binary::sniff_oscg_version(p) {
        Ok(Some(v)) => v,
        Ok(None) => {
            eprintln!("sniff: {path} is not an .oscg file");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("sniff: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let file = match osn_graph::ShardedOscg::open(p) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("sniff: {path} is a v{version} .oscg but failed validation: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{path}: .oscg v{version}{}, {} nodes, {} edges, {} shards, {} bytes, workload {}",
        if version == 1 {
            " (legacy, one shard)"
        } else {
            ""
        },
        file.node_count(),
        file.edge_count(),
        file.shard_count(),
        file.file_bytes(),
        if file.workload().is_some() {
            "present"
        } else {
            "absent"
        },
    );
    println!(
        "{:>5}  {:>22}  {:>11}  {:>11}  {:>12}  {:>16}",
        "shard", "nodes", "fwd_edges", "rev_edges", "bytes", "checksum"
    );
    for (s, info) in file.table().iter().enumerate() {
        println!(
            "{s:>5}  [{:>9}, {:>9})  {:>11}  {:>11}  {:>12}  {:016x}",
            info.node_start,
            info.node_end,
            info.fwd_edges,
            info.rev_edges,
            info.byte_len,
            info.checksum,
        );
    }
    println!("all shard checksums verified");
    std::process::exit(0);
}

fn emit(table: Table, out_dir: &std::path::Path, name: &str) {
    table.print();
    if let Err(e) = table.write_csv(out_dir, &format!("{name}.csv")) {
        eprintln!("warning: could not write {name}.csv: {e}");
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Cli::Run(args)) => args,
        Ok(Cli::Help) => {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(threads) = args.pool_size {
        if osn_pool::init_global(threads).is_err() {
            eprintln!("repro: the worker pool was already built");
            std::process::exit(2);
        }
    }
    if let Some(dir) = &args.cache {
        dataset::set_cache_dir(dir.clone());
    }
    if args.artifacts.first().map(String::as_str) == Some("convert") {
        run_convert(&args.artifacts[1..]);
    }
    if args.artifacts.first().map(String::as_str) == Some("sniff") {
        run_sniff(&args.artifacts[1..]);
    }
    if args.artifacts.first().map(String::as_str) == Some("csvdiff") {
        run_csvdiff(&args.artifacts[1..]);
    }
    let e = &args.effort;
    println!(
        "# S3CRM reproduction harness — scale x{}, {} eval worlds, seed {}, {} pool workers, {} estimator",
        e.graph_scale,
        e.eval_worlds,
        e.seed,
        osn_pool::global().num_threads(),
        match e.estimator {
            s3crm_core::EstimatorBackend::Mc => "mc",
            s3crm_core::EstimatorBackend::Sketch => "sketch",
        }
    );
    println!("# CSV output: {}\n", args.out_dir.display());

    let mut unknown = false;
    for artifact in &args.artifacts {
        let t0 = std::time::Instant::now();
        match artifact.as_str() {
            "fig6" => {
                // Paper plots (a)(b) on Douban and (c) Douban / (d) Facebook.
                let (rate, benefit) = fig6::rate_and_benefit_vs_budget(DatasetProfile::Douban, e);
                emit(rate, &args.out_dir, "fig6a_rate_vs_budget_douban");
                emit(benefit, &args.out_dir, "fig6b_benefit_vs_budget_douban");
                emit(
                    fig6::rate_vs_lambda(DatasetProfile::Douban, e),
                    &args.out_dir,
                    "fig6c_rate_vs_lambda_douban",
                );
                emit(
                    fig6::rate_vs_lambda(DatasetProfile::Facebook, e),
                    &args.out_dir,
                    "fig6d_rate_vs_lambda_facebook",
                );
                emit(
                    fig6::running_time(DatasetProfile::Douban, 2.0, e),
                    &args.out_dir,
                    "fig6e_running_time_2x",
                );
                emit(
                    fig6::running_time(DatasetProfile::Douban, 3.0, e),
                    &args.out_dir,
                    "fig6f_running_time_3x",
                );
            }
            "fig7" => {
                emit(
                    fig7::seed_sc_vs_budget(DatasetProfile::Facebook, e),
                    &args.out_dir,
                    "fig7a_seedsc_vs_budget_facebook",
                );
                emit(
                    fig7::seed_sc_vs_budget(DatasetProfile::Epinions, e),
                    &args.out_dir,
                    "fig7b_seedsc_vs_budget_epinions",
                );
                emit(
                    fig7::seed_sc_vs_lambda(DatasetProfile::Facebook, e),
                    &args.out_dir,
                    "fig7c_seedsc_vs_lambda_facebook",
                );
                emit(
                    fig7::seed_sc_vs_lambda(DatasetProfile::GooglePlus, e),
                    &args.out_dir,
                    "fig7d_seedsc_vs_lambda_gplus",
                );
                emit(
                    fig7::seed_sc_vs_kappa(DatasetProfile::Facebook, e),
                    &args.out_dir,
                    "fig7e_seedsc_vs_kappa_facebook",
                );
                emit(
                    fig7::seed_sc_vs_kappa(DatasetProfile::Douban, e),
                    &args.out_dir,
                    "fig7f_seedsc_vs_kappa_douban",
                );
            }
            "fig8" => {
                for policy in fig8::policies() {
                    let (rate, ssc) = fig8::case_study(policy, e);
                    let tag = policy.name.to_lowercase().replace('.', "");
                    emit(rate, &args.out_dir, &format!("fig8_rate_{tag}"));
                    emit(ssc, &args.out_dir, &format!("fig8_seedsc_{tag}"));
                }
            }
            "fig9" => {
                let sizes = [1000, 2000, 4000, 8000];
                emit(
                    fig9::vs_network_size(&sizes, 500.0, e),
                    &args.out_dir,
                    "fig9ab_vs_network_size",
                );
                emit(
                    fig9::vs_budget(4000, &[200.0, 400.0, 800.0, 1600.0], e),
                    &args.out_dir,
                    "fig9cd_vs_budget",
                );
            }
            "fig10" => {
                let margins = [20.0, 40.0, 60.0, 80.0];
                emit(
                    fig10::average_vs_opt(&margins, 3, e),
                    &args.out_dir,
                    "fig10a_average_vs_opt",
                );
                emit(
                    fig10::all_results_vs_opt(&margins, 5, e),
                    &args.out_dir,
                    "fig10b_all_vs_opt",
                );
            }
            "table3" => {
                emit(
                    table3::farthest_hops(&DatasetProfile::ALL, e),
                    &args.out_dir,
                    "table3_hops",
                );
            }
            "table4" => {
                emit(
                    table4::running_time(&DatasetProfile::ALL, e),
                    &args.out_dir,
                    "table4_runtime",
                );
            }
            "data" => {
                let path = args.data.as_deref().unwrap_or_else(|| {
                    eprintln!("the data artifact needs --data PATH");
                    std::process::exit(2);
                });
                let ds = match dataset::load_dataset(path, e) {
                    Ok(ds) => ds,
                    Err(err) => {
                        eprintln!("could not load {}: {err}", path.display());
                        std::process::exit(1);
                    }
                };
                println!(
                    "# dataset {}: {} nodes, {} edges, default Binv {:.1}",
                    ds.name,
                    ds.graph.node_count(),
                    ds.graph.edge_count(),
                    ds.budget,
                );
                let (rate, benefit) = data_experiment::budget_sweep(&ds, e);
                emit(rate, &args.out_dir, "data_rate_vs_budget");
                emit(benefit, &args.out_dir, "data_benefit_vs_budget");
            }
            "extensions" => {
                emit(
                    extensions::ris_vs_celf(DatasetProfile::Facebook, e),
                    &args.out_dir,
                    "extension_ris_vs_celf",
                );
                emit(
                    extensions::lt_vs_coupon_ic(DatasetProfile::Facebook, e),
                    &args.out_dir,
                    "extension_lt_vs_coupon_ic",
                );
                for cell in extensions::scenario_sweep(e) {
                    let name = cell.name.clone();
                    emit(cell.table, &args.out_dir, &name);
                }
            }
            "ablation" => {
                emit(
                    ablation::phase_ablation(DatasetProfile::Facebook, e),
                    &args.out_dir,
                    "ablation_phases",
                );
                emit(
                    ablation::evaluator_ablation(DatasetProfile::Facebook, e),
                    &args.out_dir,
                    "ablation_evaluator",
                );
            }
            other => {
                eprintln!("unknown artifact {other:?}; see --help");
                unknown = true;
                continue;
            }
        }
        eprintln!("[{artifact} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    if unknown {
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::{diff_csv, numeric_cells_match, parse_args, Cli};

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn malformed_flags_are_usage_errors_not_panics() {
        let cases: [&[&str]; 16] = [
            &["--scale", "abc"],
            &["--scale", "nan"],
            &["--scale", "-1"],
            &["--worlds", "x"],
            &["--worlds", "0"],
            &["--seed", "x"],
            &["--pool-size", "0"],
            &["--pool-size", "two"],
            &["--pool-size", "257"],
            &["--pool-size", "100000"],
            &["--pool-size", "1", "--pool-size", "2"],
            &["--estimator", "foo"],
            &["--scale"],
            &["--out"],
            &["--data"],
            &["fig6", "--cache"],
        ];
        for args in cases {
            assert!(parse(args).is_err(), "{args:?} must be a usage error");
        }
        let err = parse(&["--worlds", "x"]).err().unwrap();
        assert!(err.contains("--worlds"), "{err}");
    }

    #[test]
    fn well_formed_flags_parse() {
        let Ok(Cli::Run(args)) = parse(&[
            "--micro",
            "--scale",
            "0.5",
            "--worlds",
            "7",
            "--seed",
            "9",
            "--pool-size",
            "2",
            "--estimator",
            "sketch",
            "table3",
        ]) else {
            panic!("valid command line rejected");
        };
        assert_eq!(args.effort.graph_scale, 0.5);
        assert_eq!(args.effort.eval_worlds, 7);
        assert_eq!(args.effort.seed, 9);
        assert_eq!(args.pool_size, Some(2));
        assert_eq!(args.artifacts, vec!["table3".to_string()]);
        assert!(matches!(parse(&["--help"]), Ok(Cli::Help)));
        // Subcommands keep their own flags.
        let Ok(Cli::Run(args)) = parse(&["convert", "--shards", "x"]) else {
            panic!("subcommand flags must pass through");
        };
        assert_eq!(args.artifacts.len(), 3);
    }

    fn lines(rows: &[&str]) -> Vec<String> {
        rows.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn identical_csvs_produce_no_messages() {
        let a = lines(&["h1,h2", "1.0,x", "2.0,y"]);
        assert!(diff_csv(&a, &a, 0.0).is_empty());
    }

    #[test]
    fn trailing_rows_of_the_longer_file_are_each_reported() {
        let a = lines(&["h", "1.0"]);
        let b = lines(&["h", "1.0", "2.0", "3.0"]);
        let msgs = diff_csv(&a, &b, 0.0);
        // One row-count message plus one message per unpaired trailing row.
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs[0].contains("row count 2 vs 4"), "{msgs:?}");
        assert!(msgs[1].contains("row 2 only in B"), "{msgs:?}");
        assert!(msgs[2].contains("row 3 only in B"), "{msgs:?}");
        // Symmetric when A is the longer file.
        let msgs = diff_csv(&b, &a, 0.0);
        assert!(msgs.iter().any(|m| m.contains("row 3 only in A")));
    }

    #[test]
    fn cell_mismatches_in_the_common_prefix_still_reported_alongside_tail() {
        let a = lines(&["h", "1.0,a", "2.0,b"]);
        let b = lines(&["h", "9.0,a", "2.0,b", "3.0,c"]);
        let msgs = diff_csv(&a, &b, 0.0);
        assert!(msgs.iter().any(|m| m.contains("row 1 col 0")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("row 3 only in B")),
            "{msgs:?}"
        );
    }

    #[test]
    fn column_count_mismatch_short_circuits_the_row() {
        let a = lines(&["1,2,3"]);
        let b = lines(&["1,2"]);
        let msgs = diff_csv(&a, &b, 0.0);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("column count 3 vs 2"), "{msgs:?}");
    }

    #[test]
    fn tolerance_applies_to_numeric_cells_only() {
        let a = lines(&["1.00,abc"]);
        let b = lines(&["1.004,abd"]);
        let msgs = diff_csv(&a, &b, 0.005);
        // The numeric cell is within tolerance; the text cell differs.
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("col 1"), "{msgs:?}");
    }

    #[test]
    fn finite_cells_use_relative_tolerance() {
        assert!(numeric_cells_match(100.0, 100.4, 0.005));
        assert!(!numeric_cells_match(100.0, 101.0, 0.005));
        // Sub-unit magnitudes fall back to absolute tolerance.
        assert!(numeric_cells_match(0.001, 0.0015, 0.001));
        assert!(numeric_cells_match(0.0, 0.0, 0.0));
        assert!(numeric_cells_match(-5.0, -5.0, 0.0));
    }

    #[test]
    fn nan_never_matches() {
        assert!(!numeric_cells_match(f64::NAN, f64::NAN, 1.0));
        assert!(!numeric_cells_match(f64::NAN, 2.0, 1.0));
        assert!(!numeric_cells_match(2.0, f64::NAN, 1.0));
        assert!(!numeric_cells_match(f64::NAN, f64::INFINITY, 1.0));
    }

    #[test]
    fn infinities_match_only_same_signed_infinity() {
        assert!(numeric_cells_match(f64::INFINITY, f64::INFINITY, 0.0));
        assert!(numeric_cells_match(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            0.0
        ));
        assert!(!numeric_cells_match(f64::INFINITY, f64::NEG_INFINITY, 1.0));
        assert!(!numeric_cells_match(f64::INFINITY, 1e300, 1.0));
        assert!(!numeric_cells_match(-1e300, f64::NEG_INFINITY, 1.0));
    }
}
