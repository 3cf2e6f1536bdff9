//! `perfbench-probe` — the in-process half of the repository benchmark
//! (`perfbench/run.py` drives it). Every subcommand prints one JSON
//! object as its last stdout line.
//!
//! ```text
//! perfbench-probe mcspec --seed S --out FILE
//! perfbench-probe trace --workload W --seed S --out DIR --reference DIR
//! perfbench-probe probes --seed S
//! perfbench-probe outputs --workload W --seed S
//! perfbench-probe setup --workload W --seed S --batches B --per-batch N
//! perfbench-probe serve --serve-bin BIN --seed S --seconds T --conns K --workers W
//!     --setup-reps N --clk-tck T [--traced]
//! ```

mod cells;
mod out;
mod probes;
mod serve;
mod trace;
mod workloads;

use out::Report;
use std::collections::HashMap;
use std::path::PathBuf;

struct Args {
    cmd: String,
    flags: HashMap<String, String>,
    traced: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let cmd = it.next().ok_or("missing subcommand")?;
        let mut flags = HashMap::new();
        let mut traced = false;
        while let Some(flag) = it.next() {
            if flag == "--traced" {
                traced = true;
                continue;
            }
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.insert(key.to_string(), value);
        }
        Ok(Args { cmd, flags, traced })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("{} needs --{key}", self.cmd))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key)?;
        v.parse().map_err(|_| format!("--{key}: bad number `{v}`"))
    }
}

fn run() -> Result<Report, String> {
    let args = Args::parse()?;
    let seed: u64 = args.num("seed")?;
    match args.cmd.as_str() {
        "mcspec" => {
            let path = PathBuf::from(args.get("out")?);
            std::fs::write(&path, workloads::mc_engines_json(seed))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let mut r = Report::new();
            r.text("wrote", &path.display().to_string());
            Ok(r)
        }
        "trace" => cells::traced_pass(
            args.get("workload")?,
            seed,
            &PathBuf::from(args.get("out")?),
            &PathBuf::from(args.get("reference")?),
        ),
        "probes" => Ok(probes::run(seed)),
        "outputs" => {
            let mut files = Vec::new();
            for campaign in workloads::campaigns(args.get("workload")?, seed)? {
                files.extend(workloads::output_files(&campaign));
            }
            let mut r = Report::new();
            r.list("files", &files);
            Ok(r)
        }
        "setup" => {
            let mut r = Report::new();
            r.nums(
                "setup_s",
                &workloads::setup_times(
                    args.get("workload")?,
                    seed,
                    args.num("batches")?,
                    args.num("per-batch")?,
                )?,
            );
            Ok(r)
        }
        "serve" => serve::run(&serve::Options {
            serve_bin: PathBuf::from(args.get("serve-bin")?),
            seed,
            seconds: args.num("seconds")?,
            conns: args.num("conns")?,
            workers: args.num("workers")?,
            setup_reps: args.num("setup-reps")?,
            clk_tck: args.num("clk-tck")?,
            traced: args.traced,
        }),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() {
    match run() {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            std::process::exit(2);
        }
    }
}
