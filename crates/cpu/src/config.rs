//! Core configuration: pipeline geometry and the four fence
//! configurations of the paper's evaluation (T, S, T+, S+).

use sfence_core::ScopeConfig;

/// The four fence configurations of Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FenceConfig {
    /// `true` = S-Fence hardware enabled (scoped fences honoured);
    /// `false` = every fence behaves as a traditional full fence.
    pub honor_scopes: bool,
    /// In-window speculation [Gharachorloo et al.]: fences issue
    /// speculatively and hold only retirement.
    pub in_window_speculation: bool,
}

impl FenceConfig {
    /// `T` — traditional fences.
    pub const TRADITIONAL: FenceConfig = FenceConfig {
        honor_scopes: false,
        in_window_speculation: false,
    };
    /// `S` — scoped fences.
    pub const SFENCE: FenceConfig = FenceConfig {
        honor_scopes: true,
        in_window_speculation: false,
    };
    /// `T+` — traditional fences with in-window speculation.
    pub const TRADITIONAL_SPEC: FenceConfig = FenceConfig {
        honor_scopes: false,
        in_window_speculation: true,
    };
    /// `S+` — scoped fences with in-window speculation.
    pub const SFENCE_SPEC: FenceConfig = FenceConfig {
        honor_scopes: true,
        in_window_speculation: true,
    };

    /// The paper's label for this configuration.
    pub fn label(&self) -> &'static str {
        match (self.honor_scopes, self.in_window_speculation) {
            (false, false) => "T",
            (true, false) => "S",
            (false, true) => "T+",
            (true, true) => "S+",
        }
    }
}

/// Branch predictor table entries (power of two).
pub const BPRED_ENTRIES: usize = 512;
/// Maximum store-buffer drains in flight. The buffer drains out of
/// order (RMO, the paper's memory model); only same-address stores
/// stay ordered.
pub const MAX_OUTSTANDING_STORES: usize = 4;

/// Per-core microarchitectural parameters (paper Table III defaults).
///
/// The core implements one memory model, RMO: a CAS orders prior
/// *loads* (it executes at the ROB head) but not prior stores to
/// other addresses — explicit fences must do that, which is exactly
/// what the paper's benchmarks exercise.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Reorder buffer entries (Fig. 16 sweeps 64/128/256).
    pub rob_size: usize,
    /// Store buffer entries.
    pub sb_size: usize,
    /// Instructions issued into the ROB, and retired from it, per
    /// cycle.
    pub width: usize,
    /// Redirect bubble after a branch misprediction.
    pub mispredict_penalty: u64,
    pub fence: FenceConfig,
    pub scope: ScopeConfig,
    /// Record retired-event traces for conformance checking.
    pub trace: bool,
    /// Record the microarchitectural pipeline event trace
    /// ([`sfence_core::pipe`]): fetch/issue/retire, fence
    /// dispatch/complete, degrade/overflow/recovery, directory walks.
    /// Off by default; the hot path pays one bool check when disabled.
    pub pipe_trace: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            rob_size: 128,
            sb_size: 8,
            width: 2,
            mispredict_penalty: 8,
            fence: FenceConfig::SFENCE,
            scope: ScopeConfig::default(),
            trace: false,
            pipe_trace: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(FenceConfig::TRADITIONAL.label(), "T");
        assert_eq!(FenceConfig::SFENCE.label(), "S");
        assert_eq!(FenceConfig::TRADITIONAL_SPEC.label(), "T+");
        assert_eq!(FenceConfig::SFENCE_SPEC.label(), "S+");
    }
}
