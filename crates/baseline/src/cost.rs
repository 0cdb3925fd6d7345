//! CPU cost model.
//!
//! The defaults are the `cpu.*` rows of the cost table
//! ([`lastcpu_sim::costs`]) and approximate a current server core running a
//! general-purpose kernel. No experiment builds this struct with other
//! values yet (sweeping the rows is ROADMAP item 6); the *relations* are
//! the modelling decision (interrupt < syscall < context switch ≪ device
//! latencies).

use lastcpu_sim::{costs, SimDuration};

/// Costs of kernel involvement.
#[derive(Debug, Clone, Copy)]
pub struct CpuCostModel {
    /// Interrupt entry/exit (mode switch, state save, EOI).
    pub interrupt_entry: SimDuration,
    /// One system-call worth of kernel work (lookup, bookkeeping).
    pub syscall: SimDuration,
    /// Context switch to the serving task.
    pub context_switch: SimDuration,
    /// Per-byte cost of copying payloads through the kernel (ps/byte).
    pub per_byte_copy_ps: u64,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        CpuCostModel {
            interrupt_entry: costs::CPU_INTERRUPT_ENTRY,
            syscall: costs::CPU_SYSCALL,
            context_switch: costs::CPU_CONTEXT_SWITCH,
            per_byte_copy_ps: costs::CPU_PER_BYTE_COPY,
        }
    }
}

impl CpuCostModel {
    /// Cost of copying `bytes` through the kernel.
    pub fn copy(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(bytes as u64 * self.per_byte_copy_ps / 1000)
    }

    /// Cost of fielding one device interrupt with `bytes` of payload.
    pub fn interrupt_with_copy(&self, bytes: usize) -> SimDuration {
        self.interrupt_entry + self.copy(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relations_hold() {
        let c = CpuCostModel::default();
        assert!(c.interrupt_entry < c.syscall);
        assert!(c.syscall < c.context_switch);
        assert!(c.copy(0) == SimDuration::ZERO);
        assert!(c.copy(4096) > SimDuration::ZERO);
        assert!(c.interrupt_with_copy(1000) > c.interrupt_entry);
    }
}
