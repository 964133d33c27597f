//! What the dependency model is *for*: root-cause analysis and impact
//! prediction (§1.1 of the paper).
//!
//! Mines the model with technique L3, builds the dependency graph, and
//! answers the operator questions the paper opens with: which
//! components does a degradation reach, which single component best
//! explains a set of simultaneous symptoms, and whose availability
//! matters most.
//!
//! ```text
//! cargo run --release -p logdep-examples --example root_cause
//! ```

use logdep::graph::DependencyGraph;
use logdep::l3::{run_l3_pool, L3Config};
use logdep::par::ParConfig;
use logdep_logstore::time::TimeRange;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig};

fn main() {
    // Mine the model from one simulated day.
    let mut cfg = SimConfig::paper_week(31, 0.2);
    cfg.days = 1;
    let out = simulate(&cfg);
    let ids: Vec<String> = out.directory.ids().iter().map(|s| s.to_string()).collect();
    let res = run_l3_pool(
        &out.store,
        TimeRange::day(0),
        &ids,
        &L3Config::with_stop_patterns(standard_stop_patterns()),
        &ParConfig::default(),
    )
    .expect("L3 runs");

    // Service index → owner application, from operational knowledge
    // (the simulator's topology plays that role here).
    let owners: Vec<_> = out
        .topology
        .services
        .iter()
        .map(|s| {
            out.store
                .registry
                .find_source(&out.topology.apps[s.owner].name)
                .expect("owner registered")
        })
        .collect();
    let graph = DependencyGraph::from_app_service(&res.detected, &owners);
    let name = |id| out.store.registry.source_name(id);
    println!(
        "mined graph: {} applications, {} directed dependencies\n",
        graph.nodes().count(),
        graph.n_edges()
    );

    // 1. Availability criticality: who must not go down?
    println!("most critical components (size of transitive impact):");
    for (app, impact) in graph.criticality().into_iter().take(5) {
        println!("  {:>24}  impacts {impact} applications", name(app));
    }

    // 2. Impact prediction for the most critical component.
    let (critical, _) = graph.criticality()[0];
    let impact = graph.impact_set(critical);
    println!(
        "\nif {} degrades, {} applications are affected, e.g.: {}",
        name(critical),
        impact.len(),
        impact
            .iter()
            .take(4)
            .map(|&a| name(a))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // 3. Root-cause analysis: three dependents of the critical
    // component start alarming — who explains all three?
    let symptoms: Vec<_> = impact.iter().copied().take(3).collect();
    if symptoms.len() == 3 {
        println!(
            "\nsymptoms: {} are all degraded",
            symptoms
                .iter()
                .map(|&a| name(a))
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!("root-cause candidates (fewest collateral implications first):");
        for (cand, collateral) in graph.root_candidates(&symptoms).into_iter().take(5) {
            println!(
                "  {:>24}  (+{collateral} unexplained implications)",
                name(cand)
            );
        }
        let candidates = graph.root_candidates(&symptoms);
        assert!(
            candidates.iter().any(|c| c.0 == critical),
            "the true culprit must appear among the candidates"
        );
        println!(
            "\nthe ranked list contains {}, the component the symptoms were drawn from",
            name(critical)
        );
    }
}
