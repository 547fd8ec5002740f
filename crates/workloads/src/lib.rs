//! Workloads reproducing the paper's evaluation (§8).
//!
//! SPEC CPU2006, PARSEC/SPLASH-2X and the web-server benchmarks are not
//! redistributable; each is replaced by a synthetic workload calibrated to
//! its published pointer-tracking profile (Table 1, Figures 9–12). See
//! `DESIGN.md` §2 for the substitution argument and [`profiles`] for the
//! per-benchmark data.
//!
//! * [`spec`] — single-threaded Table 1-shaped generators (Figures 9, 11);
//! * [`parsec`] — multithreaded sharing-pattern kernels (Figures 10, 12);
//! * [`server`] — the Apache/Nginx/Cherokee request loop (§8.2/§8.3);
//! * [`exploits`] — the §8.1 effectiveness scenarios;
//! * [`cost`] — machine-independent compute calibration;
//! * [`env`](mod@env) — fresh experiment environments per detector kind.

pub mod cost;
pub mod env;
pub mod exploits;
pub mod parsec;
pub mod profiles;
pub mod server;
pub mod spec;

pub use cost::{calibrate, CostModel};
pub use env::{local_env, shared_env, DetectorKind};
pub use profiles::ServerProfile;
pub use server::{run_server, run_server_opts, ClassLatency, ServerOptions, ServerResult};
pub use spec::{run_spec, RunResult};
