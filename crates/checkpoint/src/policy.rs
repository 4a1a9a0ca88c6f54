//! When to checkpoint and how many to keep.

/// Checkpointing policy: interval and retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint every N step boundaries (`None`: never).
    pub every_steps: Option<u64>,
    /// Keep only the most recent K snapshots (`None`: keep all).
    pub retain: Option<usize>,
}

impl CheckpointPolicy {
    /// Checkpoint every `n` steps, keep everything.
    pub fn every(n: u64) -> Self {
        assert!(n > 0, "checkpoint interval must be positive");
        CheckpointPolicy {
            every_steps: Some(n),
            retain: None,
        }
    }

    /// Never checkpoint.
    pub fn never() -> Self {
        CheckpointPolicy {
            every_steps: None,
            retain: None,
        }
    }

    /// Keep only the most recent `k` snapshots (a ring).
    pub fn retaining(mut self, k: usize) -> Self {
        assert!(k > 0, "retention ring must hold at least one snapshot");
        self.retain = Some(k);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let p = CheckpointPolicy::every(100).retaining(3);
        assert_eq!(p.every_steps, Some(100));
        assert_eq!(p.retain, Some(3));
        assert_eq!(CheckpointPolicy::never().every_steps, None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_is_refused() {
        let _ = CheckpointPolicy::every(0);
    }
}
