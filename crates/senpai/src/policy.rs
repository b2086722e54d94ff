//! Per-workload Senpai policies.
//!
//! Production runs "a single globally optimal Senpai configuration"
//! (§3.3), but the paper notes that workloads with relaxed SLOs tolerate
//! more pressure and announces plans "to exploit distinct Senpai
//! configurations across workloads with different performance SLO
//! thresholds". A [`PolicyMap`] implements that: a global default plus
//! named overrides, resolved per container.

use std::collections::BTreeMap;

use crate::config::SenpaiConfig;

/// A global default configuration with per-workload overrides.
///
/// # Example
///
/// ```
/// use tmo_senpai::{PolicyMap, SenpaiConfig};
///
/// let map = PolicyMap::new(SenpaiConfig::production())
///     .with_policy("Batch", SenpaiConfig::config_b());
/// assert_eq!(map.config_for("Web"), &SenpaiConfig::production());
/// assert_eq!(map.config_for("Batch"), &SenpaiConfig::config_b());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyMap {
    default: SenpaiConfig,
    overrides: BTreeMap<String, SenpaiConfig>,
}

impl PolicyMap {
    /// Creates a map with only the global default.
    pub fn new(default: SenpaiConfig) -> Self {
        PolicyMap {
            default,
            overrides: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) an override for the named workload.
    pub fn with_policy(mut self, name: impl Into<String>, config: SenpaiConfig) -> Self {
        self.overrides.insert(name.into(), config);
        self
    }

    /// The global default.
    pub fn default_config(&self) -> &SenpaiConfig {
        &self.default
    }

    /// Resolves the config for a workload name.
    pub fn config_for(&self, name: &str) -> &SenpaiConfig {
        self.overrides.get(name).unwrap_or(&self.default)
    }
}

impl Default for PolicyMap {
    fn default() -> Self {
        PolicyMap::new(SenpaiConfig::production())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_applies_to_unknown_names() {
        let map = PolicyMap::default();
        assert_eq!(map.config_for("anything"), &SenpaiConfig::production());
    }

    #[test]
    fn overrides_win_and_replace() {
        let map = PolicyMap::new(SenpaiConfig::production())
            .with_policy("Batch", SenpaiConfig::config_b())
            .with_policy("Batch", SenpaiConfig::file_only());
        assert_eq!(map.config_for("Batch"), &SenpaiConfig::file_only());
    }

    #[test]
    fn default_config_accessor() {
        let map = PolicyMap::new(SenpaiConfig::config_a());
        assert_eq!(map.default_config(), &SenpaiConfig::config_a());
    }
}
