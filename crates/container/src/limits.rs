//! Per-container resource limits (Docker-style cgroup controls).
//!
//! The paper notes that Docker "enables AnDrone to prevent abuse and
//! excessive consumption of resources" by letting it cap what each
//! virtual drone can use, even though the evaluation runs with
//! resource controls disabled (Figures 10–11). Both configurations are
//! supported here.

/// Resource caps applied to one container.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceLimits {
    /// Maximum resident memory in bytes, if capped.
    pub memory_bytes: Option<u64>,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits::UNLIMITED
    }
}

impl ResourceLimits {
    /// No caps: the evaluation configuration.
    pub const UNLIMITED: ResourceLimits = ResourceLimits { memory_bytes: None };

    /// Clamps a requested memory allocation to the cap, returning
    /// `true` if the total would stay within limits.
    pub fn permits_memory(&self, current: u64, requested: u64) -> bool {
        match self.memory_bytes {
            Some(cap) => current.saturating_add(requested) <= cap,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_permits_everything() {
        let l = ResourceLimits::UNLIMITED;
        assert!(l.permits_memory(u64::MAX - 1, 1));
    }

    #[test]
    fn memory_cap_enforced() {
        let l = ResourceLimits {
            memory_bytes: Some(100),
        };
        assert!(l.permits_memory(60, 40));
        assert!(!l.permits_memory(61, 40));
    }
}
