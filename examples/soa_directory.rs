//! Technique L3 against a service-directory document, with log
//! persistence: the "operations" workflow of the paper's HUG solution.
//!
//! Demonstrates the full external interface: parse the directory XML,
//! ingest a TSV log file, scan for citations with stop patterns, and
//! print the resulting dependency model — exactly what a deployment
//! would run nightly.
//!
//! ```text
//! cargo run --release -p logdep-examples --example soa_directory
//! ```

use logdep::l3::{run_l3_pool, L3Config};
use logdep::par::ParConfig;
use logdep_logstore::codec::{read_store, write_store};
use logdep_logstore::time::TimeRange;
use logdep_logstore::Millis;
use logdep_sim::ServiceDirectory;

const DIRECTORY_XML: &str = r#"<serviceDirectory>
  <group id="DPINOTIFICATION" url="http://srv01.hcuge.ch:9999/dpinotification" replicated="true"/>
  <group id="DPIPUBLICATION" url="http://srv02.hcuge.ch:9999/dpipublication" replicated="false"/>
  <group id="LABRESULTS" url="http://srv03.hcuge.ch:9999/labresults" replicated="false"/>
</serviceDirectory>"#;

const LOG_TSV: &str = "\
1000\t1002\tDPIFormidoc\t-\t-\tINF\tInvoke externalService [fct [notify] server [srv01.hcuge.ch:9999/dpinotification]]\n\
1100\t1104\tDPINotifyCore\t-\t-\tINF\tServing request [fct [notify] group [DPINOTIFICATION]] for DPIFormidoc\n\
2000\t2001\tDPIFormidoc\t-\t-\tINF\t(DPIPUBLICATION) publish( $doc )\n\
3000\t3003\tDPIViewer\t-\t-\tINF\tcalling LABRESULTS.fetch for record 4711\n\
4000\t4002\tDPIViewer\t-\t-\tINF\topened record for patient Mrs DPINOTIFICATION (dob 3.7.1951)\n\
5000\t5001\tDPIBatch\t-\t-\tDBG\theartbeat ok seq=99\n";

fn main() {
    // 1. The service directory, as the XML document HUG publishes.
    let directory = ServiceDirectory::from_xml(DIRECTORY_XML).expect("directory parses");
    let ids: Vec<String> = directory.ids().iter().map(|s| s.to_string()).collect();
    println!("directory: {} groups: {:?}", directory.len(), ids);

    // 2. Ingest the TSV log export (round-tripped through the codec to
    // show both directions).
    let (store, errors) = read_store(LOG_TSV.as_bytes()).expect("logs parse");
    assert!(errors.is_empty(), "malformed lines: {errors:?}");
    let mut buf = Vec::new();
    write_store(&mut buf, &store).expect("logs re-serialize");
    println!(
        "ingested {} logs ({} bytes round-tripped)\n",
        store.len(),
        buf.len()
    );

    let range = TimeRange::new(Millis(0), Millis(10_000));

    // 3. Naive scan — no stop patterns: the server-side log of
    // DPINotifyCore inverts a dependency, and the patient whose name
    // matches a service id creates a coincidence (§4.8).
    let naive = run_l3_pool(
        &store,
        range,
        &ids,
        &L3Config::default(),
        &ParConfig::default(),
    )
    .expect("L3 naive");
    println!("without stop patterns:");
    for (app, svc) in naive.detected.iter() {
        println!("  {} -> {}", store.registry.source_name(app), ids[svc]);
    }

    // 4. Production scan with stop patterns.
    let cfg = L3Config::with_stop_patterns(["serving request*"]);
    let res = run_l3_pool(&store, range, &ids, &cfg, &ParConfig::default()).expect("L3 runs");
    println!("\nwith stop patterns ({} logs stopped):", res.stopped_logs);
    for (app, svc) in res.detected.iter() {
        println!("  {} -> {}", store.registry.source_name(app), ids[svc]);
    }

    let formidoc = store
        .registry
        .find_source("DPIFormidoc")
        .expect("known app");
    let core = store
        .registry
        .find_source("DPINotifyCore")
        .expect("known app");
    assert!(res.detected.contains(formidoc, 0));
    assert!(res.detected.contains(formidoc, 1));
    assert!(
        !res.detected.contains(core, 0),
        "server-side citation must be stopped"
    );
    println!(
        "\nnote the surviving coincidence (DPIViewer -> DPINOTIFICATION from a patient \
         name): §4.8's coincidence category — stop patterns cannot remove it, only more context can"
    );
}
