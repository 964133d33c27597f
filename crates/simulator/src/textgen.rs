//! Free-text log message generation.
//!
//! Technique L3 lives or dies by the *shape* of the message text, so the
//! templates here reproduce the paper's observations faithfully:
//!
//! * invocation logs are "peculiar to each piece of code" — every caller
//!   application has one of several developer styles, but all of them
//!   mention some element provided by the service directory (§3.3);
//! * callee-side logs also cite the group, which is what the paper's
//!   *stop patterns* exist to suppress;
//! * background chatter, UI actions and the occasional patient who
//!   shares a name with a service id complete the noise floor.
//!
//! [`standard_stop_patterns`] is the simulated counterpart of the 10
//! stop patterns the paper's deployment used.

use rand::rngs::StdRng;
use rand::Rng;

/// Developer style of invocation logging, fixed per application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallerStyle {
    /// `Invoke externalService [fct [notify] server [srv03.hcuge.ch:9999/dpinotification]]`
    Bracketed,
    /// `(DPINOTIFICATION) notify( $params )`
    Parenthesized,
    /// `calling DPINOTIFICATION.notify for record 1234`
    Prose,
}

impl CallerStyle {
    /// Deterministic style for an application index.
    pub fn for_app(app: usize) -> Self {
        match app % 3 {
            0 => CallerStyle::Bracketed,
            1 => CallerStyle::Parenthesized,
            _ => CallerStyle::Prose,
        }
    }
}

/// Remote function names used in invocation texts.
const FCTS: [&str; 8] = [
    "notify", "publish", "query", "update", "fetch", "submit", "archive", "validate",
];

/// Picks a plausible remote function name.
#[expect(
    clippy::indexing_slicing,
    reason = "the pick is drawn below the table's length"
)]
pub fn pick_fct(rng: &mut StdRng) -> &'static str {
    FCTS[rng.gen_range(0..FCTS.len())]
}

/// Caller-side "before invocation" log text citing the directory
/// element `cited_id` of a service whose published URL path/host are
/// given. `cited_id` may deliberately be a wrong or outdated id.
pub fn caller_invoke(
    style: CallerStyle,
    cited_id: &str,
    host: &str,
    fct: &str,
    rng: &mut StdRng,
) -> String {
    match style {
        CallerStyle::Bracketed => format!(
            "Invoke externalService [fct [{fct}] server [{host}:9999/{}]]",
            cited_id.to_ascii_lowercase()
        ),
        CallerStyle::Parenthesized => format!("({cited_id}) {fct}( $params )"),
        CallerStyle::Prose => format!(
            "calling {cited_id}.{fct} for record {}",
            rng.gen_range(1000..99999)
        ),
    }
}

/// Caller-side "invocation returned" log text (cites nothing).
pub fn caller_return(fct: &str, latency_ms: i64) -> String {
    format!("call returned [fct [{fct}]] rc=0 in {latency_ms} ms")
}

/// Caller-side log of an application that does *not* cite its
/// invocations (the §4.8 "interactions not logged" category).
pub fn caller_uncited(fct: &str) -> String {
    format!("processing step {fct} completed")
}

/// Callee-side log text. `covered` selects a template matched by the
/// standard stop patterns; the uncovered ("leaky") template is the one
/// producing the paper's residual inverted dependencies. `cites` controls
/// whether the group id appears at all.
pub fn callee_log(
    covered: bool,
    cites: bool,
    group_id: &str,
    fct: &str,
    caller_name: &str,
    rng: &mut StdRng,
) -> String {
    if !cites {
        return format!("handled {fct} in {} ms", rng.gen_range(2..300));
    }
    if covered {
        match rng.gen_range(0..3) {
            0 => format!("Serving request [fct [{fct}] group [{group_id}]] for {caller_name}"),
            1 => format!("incoming invocation {fct} on {group_id}"),
            _ => format!("request received from {caller_name} [group {group_id}]"),
        }
    } else {
        // Deliberately *not* matched by the standard stop patterns.
        format!(
            "done [{group_id}] unit completed in {} ms",
            rng.gen_range(2..300)
        )
    }
}

/// Exception stack-trace text logged by the *top-level* caller when a
/// nested (transitive) invocation fails; cites the deep service id.
pub fn stacktrace(deep_id: &str, mid_app: &str, fct: &str) -> String {
    format!(
        "Unhandled exception RemoteFault: {fct} failed; cause: timeout contacting ({deep_id}) \
         | trace: handler.invoke -> {mid_app}.dispatch -> remote.call({deep_id})"
    )
}

/// Background chatter (no citations, no session context).
pub fn background(rng: &mut StdRng) -> String {
    match rng.gen_range(0..6) {
        0 => format!("heartbeat ok seq={}", rng.gen_range(0..1_000_000)),
        1 => format!("queue depth {}", rng.gen_range(0..500)),
        2 => "cache purge completed".to_owned(),
        3 => format!("scheduled task {} finished", rng.gen_range(1..40)),
        4 => format!("gc pause {} ms", rng.gen_range(1..80)),
        _ => format!("connection pool size {}", rng.gen_range(1..64)),
    }
}

/// Client UI action log (session context, no citations).
pub fn ui_action(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => format!("user action: open tab {}", rng.gen_range(1..12)),
        1 => "user action: save form".to_owned(),
        2 => format!("view rendered in {} ms", rng.gen_range(20..900)),
        _ => "user action: search".to_owned(),
    }
}

/// The coincidence text: a patient record whose name collides with a
/// service-directory id (§4.8: 7 false positives "due to coincidence").
/// Must not match any stop pattern.
#[expect(
    clippy::indexing_slicing,
    reason = "the pick is drawn below the table's length"
)]
pub fn coincidence(service_id: &str, rng: &mut StdRng) -> String {
    format!(
        "opened record for patient {} {service_id} (dob {}.{}.19{})",
        ["Mr", "Mrs", "Dr"][rng.gen_range(0..3)],
        rng.gen_range(1..28),
        rng.gen_range(1..12),
        rng.gen_range(30..99),
    )
}

/// The standard stop-pattern set — the simulated counterpart of the 10
/// patterns the paper's HUG deployment used (§4.8). They cover every
/// covered callee template above plus common server-side shapes that a
/// deployment would accumulate.
pub fn standard_stop_patterns() -> Vec<&'static str> {
    vec![
        "serving request*",
        "*incoming invocation*",
        "*request received from*",
        "handled * in * ms",
        "dispatching * to local handler*",
        "*session opened by*",
        "*auth check for request*",
        "worker * accepted job*",
        "replication sync * applied",
        "*listener bound on port*",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn caller_styles_cite_the_id() {
        let mut r = rng();
        for style in [
            CallerStyle::Bracketed,
            CallerStyle::Parenthesized,
            CallerStyle::Prose,
        ] {
            let text = caller_invoke(style, "DPINOTIFICATION", "srv01.hcuge.ch", "notify", &mut r);
            assert!(
                text.to_ascii_lowercase().contains("dpinotification"),
                "style {style:?} lost the citation: {text}"
            );
        }
    }

    #[test]
    fn style_is_deterministic_per_app() {
        assert_eq!(CallerStyle::for_app(0), CallerStyle::Bracketed);
        assert_eq!(CallerStyle::for_app(1), CallerStyle::Parenthesized);
        assert_eq!(CallerStyle::for_app(2), CallerStyle::Prose);
        assert_eq!(CallerStyle::for_app(3), CallerStyle::Bracketed);
    }

    #[test]
    fn covered_callee_templates_match_stop_patterns() {
        use logdep_textmatch::StopPatterns;
        let stops = StopPatterns::new(standard_stop_patterns());
        let mut r = rng();
        for _ in 0..50 {
            let t = callee_log(true, true, "LABCORE", "query", "DPIViewer", &mut r);
            assert!(stops.matches(&t), "covered template escaped: {t}");
            let t = callee_log(true, false, "LABCORE", "query", "DPIViewer", &mut r);
            assert!(stops.matches(&t), "non-citing template escaped: {t}");
        }
    }

    #[test]
    fn leaky_callee_template_evades_stop_patterns_but_cites() {
        use logdep_textmatch::StopPatterns;
        let stops = StopPatterns::new(standard_stop_patterns());
        let mut r = rng();
        let t = callee_log(false, true, "LABCORE", "query", "DPIViewer", &mut r);
        assert!(!stops.matches(&t), "leaky template was stopped: {t}");
        assert!(t.contains("LABCORE"));
    }

    #[test]
    fn stacktrace_cites_deep_service_as_whole_word() {
        use logdep_textmatch::{MatchMode, MatcherBuilder};
        let t = stacktrace("HL7GATEWAY", "MEDTransfers", "submit");
        let mut b = MatcherBuilder::new();
        b.mode(MatchMode::WholeWord).add("HL7GATEWAY");
        assert!(b.build().contains_any(&t), "no whole-word citation: {t}");
    }

    #[test]
    fn background_and_ui_texts_never_cite_or_stop() {
        use logdep_textmatch::StopPatterns;
        let stops = StopPatterns::new(standard_stop_patterns());
        let mut r = rng();
        for _ in 0..100 {
            let t = background(&mut r);
            assert!(!stops.matches(&t), "background text stopped: {t}");
            let t = ui_action(&mut r);
            assert!(!stops.matches(&t), "ui text stopped: {t}");
        }
    }

    #[test]
    fn coincidence_cites_id_and_evades_stops() {
        use logdep_textmatch::{MatcherBuilder, StopPatterns};
        let stops = StopPatterns::new(standard_stop_patterns());
        let mut r = rng();
        let t = coincidence("STATWAREHOUSE", &mut r);
        assert!(!stops.matches(&t));
        let mut b = MatcherBuilder::new();
        b.add("STATWAREHOUSE");
        assert!(b.build().contains_any(&t));
    }

    #[test]
    fn uncited_caller_text_contains_no_bracket_citation() {
        let t = caller_uncited("publish");
        assert!(!t.contains('('));
        assert!(!t.contains('['));
    }

    #[test]
    fn ten_stop_patterns_like_the_paper() {
        assert_eq!(standard_stop_patterns().len(), 10);
    }
}
