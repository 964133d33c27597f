//! The user and machine population.
//!
//! Session reconstruction (technique L2) is hard precisely because "a
//! machine can be shared by different users, and a user might be active
//! on different machines" (§3.2). The population model reproduces both:
//! every user has a home machine, some users roam across wards, and
//! shared ward machines serve many users.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A user of the clinical system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserSpec {
    /// Login name, e.g. `u042`.
    pub name: String,
    /// Home machine index.
    pub home_host: usize,
    /// Probability that a given session happens away from the home
    /// machine (roaming clinicians).
    pub roam_prob: f64,
}

/// A client machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Machine name, e.g. `ws-017`.
    pub name: String,
    /// Whether this is a shared ward machine (more users, more churn).
    pub shared: bool,
}

/// The generated population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Population {
    /// Users, index = user id in the simulation.
    pub users: Vec<UserSpec>,
    /// Machines, index = host id in the simulation.
    pub hosts: Vec<HostSpec>,
}

impl Population {
    /// Generates `n_users` users over `n_hosts` machines. About a third
    /// of the machines are shared ward machines.
    pub fn generate(n_users: usize, n_hosts: usize, rng: &mut StdRng) -> Self {
        assert!(n_hosts > 0, "need at least one host");
        let hosts: Vec<HostSpec> = (0..n_hosts)
            .map(|i| HostSpec {
                name: format!("ws-{i:03}"),
                shared: i % 3 == 0,
            })
            .collect();
        let users = (0..n_users)
            .map(|i| UserSpec {
                name: format!("u{i:03}"),
                home_host: rng.gen_range(0..n_hosts),
                roam_prob: if rng.gen_bool(0.25) { 0.5 } else { 0.08 },
            })
            .collect();
        Self { users, hosts }
    }

    /// Picks the machine for a new session of `user`: usually the home
    /// machine, sometimes (per the user's roaming probability) another —
    /// preferentially a shared ward machine.
    #[expect(
        clippy::indexing_slicing,
        reason = "user and host ids index the population they came from"
    )]
    pub fn session_host(&self, user: usize, rng: &mut StdRng) -> usize {
        let spec = &self.users[user];
        if !rng.gen_bool(spec.roam_prob) {
            return spec.home_host;
        }
        // Roaming: prefer shared machines.
        for _ in 0..8 {
            let h = rng.gen_range(0..self.hosts.len());
            if self.hosts[h].shared && h != spec.home_host {
                return h;
            }
        }
        rng.gen_range(0..self.hosts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pop(seed: u64) -> (Population, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = Population::generate(60, 20, &mut rng);
        (p, rng)
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = pop(3);
        let (b, _) = pop(3);
        assert_eq!(a, b);
    }

    #[test]
    fn shapes() {
        let (p, _) = pop(1);
        assert_eq!(p.users.len(), 60);
        assert_eq!(p.hosts.len(), 20);
        let shared = p.hosts.iter().filter(|h| h.shared).count();
        assert!(shared >= 6, "about a third shared, got {shared}");
        for u in &p.users {
            assert!(u.home_host < p.hosts.len());
            assert!(u.roam_prob > 0.0 && u.roam_prob < 1.0);
        }
    }

    #[test]
    fn names_unique() {
        let (p, _) = pop(2);
        let mut names: Vec<&str> = p.users.iter().map(|u| u.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 60);
    }

    #[test]
    fn sessions_mostly_on_home_machine() {
        let (p, mut rng) = pop(4);
        let user = 0;
        let home = p.users[user].home_host;
        let trials = 300;
        let at_home = (0..trials)
            .filter(|_| p.session_host(user, &mut rng) == home)
            .count();
        // roam_prob is at most 0.5, so at least ~half the sessions are
        // at home; for the common 0.08 case nearly all are.
        assert!(at_home > trials / 3, "at_home = {at_home}");
    }

    #[test]
    fn roaming_happens() {
        let (p, mut rng) = pop(5);
        // Find a roamer (roam_prob = 0.5).
        let roamer = p
            .users
            .iter()
            .position(|u| u.roam_prob > 0.4)
            .expect("population contains roamers");
        let home = p.users[roamer].home_host;
        let away = (0..300)
            .filter(|_| p.session_host(roamer, &mut rng) != home)
            .count();
        assert!(away > 50, "roamer never roamed: {away}");
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn zero_hosts_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        Population::generate(5, 0, &mut rng);
    }
}
