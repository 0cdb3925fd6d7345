//! The centralized baseline: a conventional CPU-controlled system.
//!
//! The paper positions its design against "accelerator-centric systems with
//! centralized control, such as OmniX, M³X and IX, \[which\] rely on the CPU
//! to handle only the mundane tasks of initialization, coordination and
//! error handling" (§1) — and against the fully traditional system where
//! the CPU is also on the data path. This crate implements that comparator
//! on the same simulated hardware:
//!
//! - [`CpuDevice`]: *the last CPU*. It runs the kernel: a **central service
//!   directory** (it observes every `Announce` — precisely the global state
//!   the paper's design forbids), an **open broker** (clients open services
//!   through the kernel, which forwards and polices), the **memory
//!   manager** (the same allocation policy as `lastcpu-memctl`, but run on
//!   the CPU, which registers as the Memory controller with the bus), and a
//!   hosted application ([`CpuApp`]) for the fully CPU-mediated data path.
//!   Every message that reaches the CPU pays interrupt-entry and syscall
//!   costs, and the kernel is serialized — one core, one lock.
//! - [`DumbNic`]: a conventional NIC: DMA the frame, raise an interrupt,
//!   let the kernel deal with it. Payloads cross the CPU on both directions.
//!
//! The experiments run the same workloads against both systems; the
//! baseline's costs are the quantities the paper claims a CPU-less design
//! removes (E1, E2) — and its centralized directory is the thing that makes
//! discovery O(1) instead of a broadcast, which E7 reports honestly.

#![forbid(unsafe_code)]

pub mod cost;
pub mod cpu;
pub mod dumbnic;

pub use cost::CpuCostModel;
pub use cpu::{encode_broker_params, CpuApp, CpuDevice, IdleApp, KernelEnv, KERNEL_OPEN};
pub use dumbnic::{decode_packet, encode_packet, DumbNic};
