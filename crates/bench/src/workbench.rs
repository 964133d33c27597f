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
use std::path::PathBuf;

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

    /// Writes a machine-readable experiment report under
    /// `target/experiments/<name>.json` and returns the path.
    pub fn report<T: Serialize>(&self, name: &str, value: &T) -> PathBuf {
        write_report(name, value)
    }
}

/// Writes a JSON report under `target/experiments/`.
pub fn write_report<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()))
            .join("experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize report");
    std::fs::write(&path, json).expect("write report");
    path
}

/// Parses `--seed N` and `--scale X` from argv, with defaults.
pub fn cli_seed_scale() -> (u64, f64) {
    let mut seed = DEFAULT_SEED;
    let mut scale = DEFAULT_SCALE;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().expect("--seed takes an integer");
                i += 2;
            }
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().expect("--scale takes a float");
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument {other:?}");
                i += 1;
            }
        }
    }
    (seed, scale)
}
