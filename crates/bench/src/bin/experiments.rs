//! The front door to every experiment: `experiments list`,
//! `experiments <name> [flags]` (report on stdout) and `experiments
//! all [--out DIR]` (one file per row of
//! [`cachecatalyst_bench::experiments::TABLE`], default `results/`).

use cachecatalyst_bench::cli::{exit_on_error, Args};
use cachecatalyst_bench::experiments::{dispatch, USAGE};

fn main() {
    let result = dispatch(&mut Args::from_env(), &mut std::io::stdout().lock());
    exit_on_error(result, USAGE);
}
