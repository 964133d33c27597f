//! The `logdep` command-line tool, built by the benchmark's own package.
//! It is the entry point of `crates/cli/src/main.rs`, statement for
//! statement (a unit test in `main.rs` compares the two), so the children
//! the benchmark runs are the CLI.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    std::process::exit(logdep_cli::run(&argv, &mut out));
}
