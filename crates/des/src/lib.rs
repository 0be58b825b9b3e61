//! # cumf-des — discrete-event simulation engine
//!
//! A small, deterministic discrete-event simulation (DES) kernel. It is the
//! substrate beneath the GPU machine model (`cumf-gpu-sim`) and the NOMAD
//! cluster model in this workspace, but it is fully generic: processes,
//! FCFS servers, processor-sharing bandwidth links, and keyed locks.
//!
//! ## Why a DES?
//!
//! The cuMF_SGD paper (HPDC'17) explains every throughput result with
//! queueing arguments: SGD-MF is memory-bound (roofline), LIBMF's global
//! scheduling table is a contended critical section that saturates at ~30
//! workers, NOMAD is bottlenecked by network bandwidth, and multi-GPU
//! cuMF_SGD overlaps PCIe transfers with compute. A DES lets us reproduce
//! those behaviours from first principles — contention, sharing, and
//! pipelining *emerge* from the model rather than being curve-fit.
//!
//! ## Model
//!
//! * A [`Simulation`] owns a clock, an event calendar, resources, and
//!   processes.
//! * A [`Process`] is an explicit state machine. Each `resume` returns a
//!   [`Block`] describing what it waits for next: a delay, an FCFS service,
//!   a bandwidth transfer, or a keyed lock.
//! * Simultaneous events fire in FIFO scheduling order, so runs are fully
//!   deterministic.
//!
//! ```
//! use cumf_des::{Block, Ctx, Process, SimTime, Simulation};
//!
//! struct Worker { left: usize, link: cumf_des::LinkId }
//! impl Process for Worker {
//!     fn resume(&mut self, _ctx: &mut Ctx<'_>) -> Block {
//!         if self.left == 0 { return Block::Done; }
//!         self.left -= 1;
//!         Block::Transfer { link: self.link, bytes: 1e6 }
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! let dram = sim.add_link("dram", 360e9); // 360 GB/s
//! for _ in 0..4 {
//!     sim.spawn(Box::new(Worker { left: 100, link: dram }));
//! }
//! let report = sim.run(None);
//! assert!(report.link("dram").unwrap().bytes_transferred == 4.0 * 100.0 * 1e6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod event;
mod process;
pub mod reference;
mod resource;
pub mod smallq;
pub mod stats;
mod time;

pub use engine::{RunReport, Simulation};
pub use event::{EventId, EventQueue};
pub use process::{Block, Ctx, Pid, Process};
pub use resource::{LinkId, LockId, ResourceKind, ResourceNode, ServerId};
pub use smallq::SmallDeque;
pub use stats::{LinkStats, LockStats, ServerStats, Tally, TimeWeighted};
pub use time::SimTime;
