//! # netcon — network constructors
//!
//! A complete Rust implementation of **“Simple and Efficient Local Codes
//! for Distributed Stable Network Construction”** (Michail & Spirakis,
//! PODC 2014 / Distributed Computing). This facade crate re-exports the
//! workspace:
//!
//! * [`core`] — the model: protocols, populations, schedulers, simulation;
//! * [`graph`] — edge sets, shape predicates, random graphs, isomorphism;
//! * [`protocols`] — every constructor from the paper (lines, rings,
//!   stars, cycle covers, k-regular networks, cliques, replication…);
//! * [`processes`] — the fundamental probabilistic processes of Table 1;
//! * [`analysis`] — trial sweeps, statistics and power-law fits;
//! * [`tm`] — the space-bounded Turing-machine substrate;
//! * [`universal`] — partitions, TM-on-a-line simulation, universal
//!   constructors and supernodes (§6).
//!
//! ## Quickstart
//!
//! ```
//! use netcon::core::Simulation;
//! use netcon::graph::properties::is_spanning_star;
//! use netcon::protocols::global_star;
//!
//! // n = 32 identical 2-state processes self-assemble a spanning star.
//! let mut sim = Simulation::new(global_star::protocol(), 32, 7);
//! let outcome = sim.run_until(|p| global_star::is_stable(p), 50_000_000);
//! assert!(outcome.stabilized());
//! assert!(is_spanning_star(sim.population().edges()));
//! ```
//!
//! For measurement-grade runs, compile the protocol and use an exact
//! event-driven engine — identical output distribution, cost proportional
//! to *effective* interactions only (`docs/engines.md` catalogues all
//! four engines and their exactness arguments):
//!
//! ```
//! use netcon::core::{EventSim, ExactEngine};
//! use netcon::protocols::global_star;
//!
//! let mut sim = EventSim::new(global_star::protocol().compile(), 128, 7);
//! let outcome = sim.run_until(global_star::is_stable, u64::MAX);
//! assert!(outcome.stabilized());
//! assert!(sim.is_quiescent()); // O(1)
//! ```

pub use netcon_analysis as analysis;
pub use netcon_core as core;
pub use netcon_graph as graph;
pub use netcon_processes as processes;
pub use netcon_protocols as protocols;
pub use netcon_tm as tm;
pub use netcon_universal as universal;
