//! Graph substrate for the network-constructor model.
//!
//! The network-constructor model of Michail & Spirakis (PODC 2014) runs on a
//! complete interaction graph over `n` processes in which every unordered
//! pair `{u, v}` carries a binary edge state (active/inactive). This crate
//! provides the data structures and graph algorithms every other crate in
//! the workspace builds on:
//!
//! * [`EdgeSet`] — a dense adjacency bitset (one contiguous row per
//!   node) over the `n(n−1)/2` undirected edges, with maintained degrees
//!   and active-edge count;
//! * [`properties`] — predicates for every target shape in the paper
//!   (spanning line/ring/star, cycle cover, k-regular connected, clique
//!   partitions, matchings);
//! * [`components`] — connected components and a union–find;
//! * [`gnp`] — the G(n, p) random-graph model used by the universal
//!   constructors (§6 of the paper);
//! * [`iso`] — exact graph-isomorphism testing for verifying constructions
//!   "up to isomorphism" (Definition 2 of the paper);
//! * [`matrix`] — adjacency-matrix encoding used as Turing-machine input.
//!
//! # Example
//!
//! ```
//! use netcon_graph::EdgeSet;
//! use netcon_graph::properties::is_spanning_line;
//!
//! let mut es = EdgeSet::new(4);
//! es.activate(0, 1);
//! es.activate(1, 2);
//! es.activate(2, 3);
//! assert!(is_spanning_line(&es));
//! assert_eq!(es.degree(1), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edgeset;

pub mod components;
pub mod gnp;
pub mod iso;
pub mod matrix;
pub mod properties;

pub use edgeset::{ActiveEdges, EdgeSet, Neighbors};
