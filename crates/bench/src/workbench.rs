//! The shared experiment workbench.

use logdep::eval::{daily_series, DailyRun};
use logdep::l1::L1Config;
use logdep::l2::L2Config;
use logdep::l3::L3Config;
use logdep::{AppServiceModel, PairModel, PipelineConfig};
use logdep_logstore::SourceId;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig, SimOutput};
use serde::Serialize;
use std::path::{Path, PathBuf};

/// Default seed of the published experiment runs.
pub const DEFAULT_SEED: u64 = 42;
/// Default traffic scale (the calibrated ~100×-reduced HUG week).
pub const DEFAULT_SCALE: f64 = 1.0;

/// A simulated week plus everything the experiments need around it.
pub struct Workbench {
    /// The simulation output (store, truth, directory, stats).
    pub out: SimOutput,
    /// Reference pair model resolved against the store's registry.
    pub pair_ref: PairModel,
    /// Reference app→service model.
    pub svc_ref: AppServiceModel,
    /// Published directory ids, in directory order.
    pub service_ids: Vec<String>,
    /// Owner application per directory entry (same order).
    pub owners: Vec<SourceId>,
    /// Applications excluded from oracle duties (incomplete loggers).
    pub excluded: Vec<SourceId>,
    /// Number of simulated days.
    pub days: u32,
}

impl Workbench {
    /// Builds the calibrated paper week.
    pub fn paper_week(seed: u64, scale: f64) -> Self {
        Self::from_config(&SimConfig::paper_week(seed, scale))
    }

    /// Builds from an arbitrary simulation config.
    pub fn from_config(cfg: &SimConfig) -> Self {
        let out = simulate(cfg);
        let pair_ref = PairModel::from_names(
            &out.store.registry,
            out.truth
                .app_pairs
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str())),
        )
        .expect("truth names resolve against the registry");
        let service_ids: Vec<String> = out.directory.ids().iter().map(|s| s.to_string()).collect();
        let svc_ref = AppServiceModel::from_names(
            &out.store.registry,
            &service_ids,
            out.truth
                .app_service
                .iter()
                .map(|(a, s)| (a.as_str(), s.as_str())),
        )
        .expect("truth service ids resolve");
        let owners: Vec<SourceId> = out
            .topology
            .services
            .iter()
            .map(|s| {
                out.store
                    .registry
                    .find_source(&out.topology.apps[s.owner].name)
                    .expect("owner app is registered")
            })
            .collect();
        let excluded: Vec<SourceId> = out
            .truth
            .incomplete_loggers
            .iter()
            .filter_map(|n| out.store.registry.find_source(n))
            .collect();
        Self {
            out,
            pair_ref,
            svc_ref,
            service_ids,
            owners,
            excluded,
            days: cfg.days,
        }
    }

    /// The calibrated L1 configuration for this scale of data (the
    /// paper's parameters with `minlogs` rescaled from its 10 M
    /// logs/day to the simulated volume).
    pub fn l1_config(&self) -> L1Config {
        L1Config {
            minlogs: 25,
            seed: 7,
            ..L1Config::default()
        }
    }

    /// The paper's L2 configuration (timeout 1 s).
    pub fn l2_config(&self) -> L2Config {
        L2Config::default()
    }

    /// The paper's L3 configuration: the 10 standard stop patterns.
    pub fn l3_config(&self) -> L3Config {
        L3Config::with_stop_patterns(standard_stop_patterns())
    }

    /// All three layers with the calibrated configurations above, on
    /// the default worker pool.
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            l1: Some(self.l1_config()),
            l2: Some(self.l2_config()),
            l3: Some(self.l3_config()),
            ..PipelineConfig::default()
        }
    }

    /// Mines every simulated day with the layers `cfg` enables and
    /// diffs them against the references ([`daily_series`]).
    pub fn daily_series(&self, cfg: &PipelineConfig) -> DailyRun {
        daily_series(
            &self.out.store,
            self.days,
            &self.service_ids,
            cfg,
            &self.pair_ref,
            &self.svc_ref,
        )
        .expect("daily series")
    }

    /// Resolves a source id to its application name.
    pub fn name(&self, id: SourceId) -> &str {
        self.out.store.registry.source_name(id)
    }
}

/// Writes a machine-readable experiment report to
/// `target/experiments/<name>.json` and returns its path.
pub fn write_report<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()))
            .join("experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize report");
    std::fs::write(&path, json).expect("write report");
    println!("report: {}", path.display());
    path
}

/// Writes a timed bench's report under `target/experiments/` and, for
/// a full run, atomically over the committed `<name>.json` at the
/// workspace root. A `--smoke` run leaves the committed copy alone.
pub fn write_bench_report<T: Serialize>(name: &str, value: &T, smoke: bool) {
    let path = write_report(name, value);
    if smoke {
        return;
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("the bench crate sits two levels below the workspace root")
        .join(format!("{name}.json"));
    let bytes = std::fs::read(&path).expect("read the report back");
    logdep::durable::persist_atomic(&root, &bytes).expect("write the committed report");
    println!("wrote {}", root.display());
}

/// What an experiment bin was asked to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Simulation seed (`--seed N`).
    pub seed: u64,
    /// Traffic scale (`--scale X`), [`SMOKE_SCALE`] under `--smoke`.
    pub scale: f64,
    /// `--smoke`: the small CI variant of a timed bench.
    pub smoke: bool,
}

/// The traffic scale every `--smoke` run uses, whatever `--scale` says.
pub const SMOKE_SCALE: f64 = 0.15;

/// The flags a bench bin takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flags {
    /// None: the bin runs one fixed example, so any argument is an error.
    None,
    /// `--seed N` and `--scale X` (the figure bins).
    SeedScale,
    /// `--seed N`, `--scale X` and `--smoke` (the timed benches).
    SeedScaleSmoke,
}

impl Flags {
    /// The bin's usage line after its name.
    fn usage(self) -> &'static str {
        match self {
            Flags::None => "(no arguments)",
            Flags::SeedScale => "[--seed N] [--scale X]",
            Flags::SeedScaleSmoke => "[--seed N] [--scale X] [--smoke]",
        }
    }
}

/// Parses a figure bin's `--seed N` and `--scale X` (defaults
/// [`DEFAULT_SEED`] and [`DEFAULT_SCALE`]).
pub fn cli_seed_scale() -> (u64, f64) {
    let args = cli_args(DEFAULT_SCALE, Flags::SeedScale);
    (args.seed, args.scale)
}

/// Checks that a bin taking no flags was given no arguments.
pub fn cli_no_args() {
    cli_args(DEFAULT_SCALE, Flags::None);
}

/// Parses the process arguments as [`parse_args`] does. On a bad one it
/// prints the reason and a usage line and exits with code 2, so a
/// mistyped flag never runs the defaults.
pub fn cli_args(default_scale: f64, flags: Flags) -> Args {
    let argv: Vec<String> = std::env::args().collect();
    parse_args(argv.get(1..).unwrap_or_default(), default_scale, flags).unwrap_or_else(|why| {
        let bin = argv.first().map_or("bench", |p| {
            Path::new(p)
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or(p)
        });
        eprintln!("{bin}: {why}\nusage: {bin} {}", flags.usage());
        std::process::exit(2)
    })
}

/// Parses `argv` (without the program name) for a bin taking `flags`;
/// a repeated flag keeps its last value.
pub fn parse_args(argv: &[String], default_scale: f64, flags: Flags) -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        scale: default_scale,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match (flag.as_str(), flags) {
            (_, Flags::None) => return Err(format!("takes no arguments, got {flag:?}")),
            ("--seed", _) => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, not {v:?}"))?;
            }
            ("--scale", _) => {
                let v = value()?;
                args.scale = v
                    .parse()
                    .ok()
                    .filter(|x: &f64| x.is_finite() && *x > 0.0)
                    .ok_or_else(|| format!("--scale takes a positive number, not {v:?}"))?;
            }
            ("--smoke", Flags::SeedScaleSmoke) => args.smoke = true,
            (other, _) => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.smoke {
        args.scale = SMOKE_SCALE;
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str], smoke_flag: bool) -> Result<Args, String> {
        let flags = if smoke_flag {
            Flags::SeedScaleSmoke
        } else {
            Flags::SeedScale
        };
        parse_with(argv, flags)
    }

    fn parse_with(argv: &[&str], flags: Flags) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse_args(&argv, 0.5, flags)
    }

    #[test]
    fn defaults_and_values() {
        let args = |seed, scale, smoke| Args { seed, scale, smoke };
        assert_eq!(parse(&[], false), Ok(args(DEFAULT_SEED, 0.5, false)));
        assert_eq!(
            parse(&["--seed", "7", "--scale", "0.3"], false),
            Ok(args(7, 0.3, false))
        );
        assert_eq!(
            parse(&["--seed", "1", "--seed", "9"], false),
            Ok(args(9, 0.5, false))
        );
        assert_eq!(
            parse(&["--scale", "2", "--smoke", "--seed", "3"], true),
            Ok(args(3, SMOKE_SCALE, true))
        );
    }

    #[test]
    fn bad_arguments_are_errors() {
        for (argv, smoke_flag) in [
            (&["--seeds", "7"][..], true),
            (&["--seed"], true),
            (&["--seed", "-1"], true),
            (&["--seed", "x"], true),
            (&["--scale"], false),
            (&["--scale", "fast"], false),
            (&["--scale", "0"], false),
            (&["--scale", "NaN"], false),
            (&["--smoke"], false),
            (&["7"], false),
        ] {
            assert!(parse(argv, smoke_flag).is_err(), "{argv:?} parsed");
        }
        assert_eq!(
            parse(&["--seed"], false),
            Err("--seed needs a value".to_owned())
        );
    }

    #[test]
    fn a_flagless_bin_rejects_every_argument() {
        assert_eq!(
            parse_with(&[], Flags::None),
            Ok(Args {
                seed: DEFAULT_SEED,
                scale: 0.5,
                smoke: false
            })
        );
        for argv in [
            &["--seed", "7"][..],
            &["--scale", "1"],
            &["--smoke"],
            &["7"],
        ] {
            assert_eq!(
                parse_with(argv, Flags::None),
                Err(format!("takes no arguments, got {:?}", argv[0])),
                "{argv:?}"
            );
        }
    }
}
