//! Tenant identity: service classes, per-tenant workload specs, and the
//! compact mix grammar the CLI and campaign axes share.
//!
//! A *tenant* is one client of the shared memory system. Each tenant
//! belongs to a [`TenantClass`] that fixes how the serving layer treats it
//! under pressure: latency-sensitive tenants keep their bandwidth budget
//! and are shed only as a last resort, bandwidth-hungry tenants are
//! throttled first and shed earlier on the degradation ladder.
//!
//! # Mix grammar
//!
//! Tenant mixes parse from compact `+`-separated group specs (the CLI's
//! `--tenants` argument and the campaign `tenants` axis):
//!
//! ```text
//! <class>:<count>:<kernel>:<n>[:<stride>]
//! ```
//!
//! where `class` is `ls` (latency-sensitive) or `bh` (bandwidth-hungry),
//! `count` replicates the group, and `kernel`/`n`/`stride` describe the
//! stream computation each request runs. `ls:2:daxpy:256+bh:6:copy:1024`
//! is two latency-sensitive daxpy tenants and six bandwidth-hungry copy
//! tenants. Request cadence and deadlines derive deterministically from
//! the class and the working-set size so a mix string fully determines the
//! offered load.

use std::fmt;

/// Virtual interface-clock cycle count (integer only, like the rest of the
/// workspace).
pub type Cycle = u64;

/// Service class of a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantClass {
    /// Wants bounded response time; protected by the degradation ladder.
    LatencySensitive,
    /// Wants raw throughput; first to be throttled and shed.
    BandwidthHungry,
}

impl TenantClass {
    /// Short stable label used in specs, reports, and goldens.
    pub fn label(self) -> &'static str {
        match self {
            TenantClass::LatencySensitive => "ls",
            TenantClass::BandwidthHungry => "bh",
        }
    }

    /// Parse a class label from the mix grammar.
    pub fn parse(s: &str) -> Result<Self, MixError> {
        match s {
            "ls" => Ok(TenantClass::LatencySensitive),
            "bh" => Ok(TenantClass::BandwidthHungry),
            other => Err(MixError::new(format!(
                "unknown tenant class `{other}` (expected `ls` or `bh`)"
            ))),
        }
    }
}

impl fmt::Display for TenantClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One tenant's identity and workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Stable name, e.g. `ls0` or `bh3` (group label plus replica index).
    pub name: String,
    /// Service class.
    pub class: TenantClass,
    /// Kernel each request runs (`copy`, `daxpy`, ...; the executor
    /// interprets the string, the serving layer does not).
    pub kernel: String,
    /// Elements per stream for each request.
    pub n: u64,
    /// Element stride for each request.
    pub stride: u64,
    /// Requests this tenant submits over the run.
    pub requests: u64,
    /// Cycles between consecutive request arrivals.
    pub period: Cycle,
    /// Relative deadline: a request submitted at `t` misses if it
    /// completes after `t + deadline`.
    pub deadline: Cycle,
}

/// Error parsing a tenant-mix spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixError {
    msg: String,
}

impl MixError {
    pub(crate) fn new(msg: String) -> Self {
        Self { msg }
    }
}

impl fmt::Display for MixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant mix: {}", self.msg)
    }
}

impl std::error::Error for MixError {}

/// A parsed multi-tenant workload: the ordered tenant registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantMix {
    /// Tenants in spec order; index in this vector is the tenant id used
    /// everywhere inside the serving layer.
    pub tenants: Vec<TenantSpec>,
}

/// Rough per-request service estimate in cycles, used only to derive
/// arrival cadence and deadlines from a mix spec. Two streams' worth of
/// data packets plus fixed overhead; deliberately coarse — tight deadlines
/// are exercised by tests that set [`TenantSpec::deadline`] directly.
fn service_estimate(n: u64, stride: u64) -> Cycle {
    4 * n.max(1) * stride.clamp(1, 4) + 256
}

impl TenantMix {
    /// Parse the `+`-separated mix grammar (see module docs). Empty input
    /// is an empty mix (tenancy disabled).
    pub fn parse(spec: &str) -> Result<Self, MixError> {
        let mut tenants = Vec::new();
        if spec.trim().is_empty() {
            return Ok(Self { tenants });
        }
        for group in spec.split('+') {
            let parts: Vec<&str> = group.split(':').collect();
            if parts.len() < 4 || parts.len() > 5 {
                return Err(MixError::new(format!(
                    "group `{group}` must be class:count:kernel:n[:stride]"
                )));
            }
            let class = TenantClass::parse(parts[0])?;
            let count: u64 = parts[1]
                .parse()
                .map_err(|_| MixError::new(format!("bad count in `{group}`")))?;
            if count == 0 || count > 4096 {
                return Err(MixError::new(format!(
                    "count {count} out of range 1..=4096 in `{group}`"
                )));
            }
            let kernel = parts[2].to_string();
            if kernel.is_empty() {
                return Err(MixError::new(format!("empty kernel in `{group}`")));
            }
            let n: u64 = parts[3]
                .parse()
                .map_err(|_| MixError::new(format!("bad n in `{group}`")))?;
            if n == 0 {
                return Err(MixError::new(format!("n must be positive in `{group}`")));
            }
            let stride: u64 = match parts.get(4) {
                Some(s) => s
                    .parse()
                    .map_err(|_| MixError::new(format!("bad stride in `{group}`")))?,
                None => 1,
            };
            if stride == 0 {
                return Err(MixError::new(format!(
                    "stride must be positive in `{group}`"
                )));
            }
            let est = service_estimate(n, stride);
            let (requests, period, deadline) = match class {
                // Latency-sensitive: sparse arrivals, tight deadlines.
                TenantClass::LatencySensitive => (6, est * 4, est * 3),
                // Bandwidth-hungry: back-to-back arrivals, loose deadlines.
                TenantClass::BandwidthHungry => (4, est, est * 16),
            };
            let base = tenants
                .iter()
                .filter(|t: &&TenantSpec| t.class == class)
                .count() as u64;
            for i in 0..count {
                tenants.push(TenantSpec {
                    name: format!("{}{}", class.label(), base + i),
                    class,
                    kernel: kernel.clone(),
                    n,
                    stride,
                    requests,
                    period,
                    deadline,
                });
            }
        }
        Ok(Self { tenants })
    }

    /// Number of tenants in the mix.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when the mix has no tenants (tenancy disabled).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Total requests the whole mix will submit.
    pub fn total_requests(&self) -> u64 {
        self.tenants.iter().map(|t| t.requests).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let mix = TenantMix::parse("ls:2:daxpy:256+bh:6:copy:1024").unwrap();
        assert_eq!(mix.len(), 8);
        assert_eq!(mix.tenants[0].name, "ls0");
        assert_eq!(mix.tenants[1].name, "ls1");
        assert_eq!(mix.tenants[2].name, "bh0");
        assert_eq!(mix.tenants[7].name, "bh5");
        assert_eq!(mix.tenants[0].class, TenantClass::LatencySensitive);
        assert_eq!(mix.tenants[0].kernel, "daxpy");
        assert_eq!(mix.tenants[0].n, 256);
        assert_eq!(mix.tenants[2].kernel, "copy");
        assert!(mix.tenants[0].deadline < mix.tenants[2].deadline);
    }

    #[test]
    fn replica_names_continue_across_groups_of_the_same_class() {
        let mix = TenantMix::parse("bh:2:copy:64+bh:2:scale:64").unwrap();
        let names: Vec<&str> = mix.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["bh0", "bh1", "bh2", "bh3"]);
    }

    #[test]
    fn optional_stride_defaults_to_one() {
        let mix = TenantMix::parse("ls:1:copy:128").unwrap();
        assert_eq!(mix.tenants[0].stride, 1);
        let mix = TenantMix::parse("ls:1:copy:128:4").unwrap();
        assert_eq!(mix.tenants[0].stride, 4);
    }

    #[test]
    fn empty_spec_is_an_empty_mix() {
        assert!(TenantMix::parse("").unwrap().is_empty());
        assert!(TenantMix::parse("  ").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_groups() {
        assert!(TenantMix::parse("xx:1:copy:64").is_err());
        assert!(TenantMix::parse("ls:0:copy:64").is_err());
        assert!(TenantMix::parse("ls:1:copy:0").is_err());
        assert!(TenantMix::parse("ls:1:copy:64:0").is_err());
        assert!(TenantMix::parse("ls:1:copy").is_err());
        assert!(TenantMix::parse("ls:1:copy:64:1:9").is_err());
        assert!(TenantMix::parse("ls:9999:copy:64").is_err());
    }

    #[test]
    fn total_requests_sums_every_group() {
        let mix = TenantMix::parse("ls:2:daxpy:64+bh:3:copy:64").unwrap();
        assert_eq!(mix.total_requests(), 2 * 6 + 3 * 4);
    }
}
