//! # apps — the paper's evaluated applications
//!
//! Each case study of the evaluation section, in both its reference and
//! decoupled form, with *real* data. Each `run_*` launches a case study
//! on the simulated machine; every decoupled form is a rank body generic
//! over [`mpistream::Transport`], so the native and socket backends run
//! it too, while the references are the paper's MPI baselines and stay
//! on the simulator:
//!
//! - [`mapreduce`] — word histogram over a Zipf corpus (Fig. 5);
//! - [`cg`] — conjugate-gradient Poisson solver with halo exchange
//!   (Fig. 6);
//! - [`pic`] — mini-iPIC3D particle code: particle communication (Fig. 2
//!   and Fig. 7) and particle I/O (Fig. 8);
//! - [`analysis`] — the decoupled workload analysis of Listing 1.
//!
//! All implementations separate **nominal** workload (which drives the
//! virtual-time cost model at paper scale) from **actual** in-memory data
//! (computed on for real and checked against serial oracles).

#![warn(clippy::disallowed_types)] // see clippy.toml: determinism as a lint

pub mod analysis;
pub mod cg;
pub mod mapreduce;
pub mod pic;
pub mod portable;
