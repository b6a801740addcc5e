//! # sdo-workloads — benchmark kernels for the SDO reproduction
//!
//! The paper evaluates on SPEC CPU2017 with reference inputs. Those
//! binaries and traces are not reproducible here, so this crate provides
//! synthetic kernels written in the mini-ISA whose *cache-level residency
//! profiles* and *branch behaviour* span the same space (see DESIGN.md §1
//! for the substitution argument):
//!
//! | kernel | models | driven by |
//! |---|---|---|
//! | `ptr_chase` | mcf | random pointer chasing, L2/L3/DRAM footprints |
//! | `stream` | lbm | unit stride, one L1 miss per 8 words |
//! | `stride` | cactuBSSN | constant non-unit stride |
//! | `mix_branchy` | gcc | data-dependent branches + mixed loads |
//! | `hash_lookup` | xalancbmk | scattered accesses into an L3-sized table |
//! | `stencil` | fotonik3d | 3-point stencil, periodic misses |
//! | `matmul_blocked` | FP compute | blocked GEMM-like FP mul/add |
//! | `fp_subnormal` | — | FP stream with controllable subnormal fraction |
//! | `phase_shift` | omnetpp | alternating L1/L3-resident phases |
//! | `l1_resident` | exchange2 | tight ALU + L1-resident loads |
//!
//! Every kernel follows the paper's Figure-1 shape naturally: loads feed
//! bounds-style branches and subsequent (indirect) loads, so speculative
//! windows with tainted transmitters arise exactly as in the motivating
//! code. All kernels halt deterministically (no input-dependent loop
//! exits actually fire).
//!
//! Also here: the executable **Spectre V1** attack ([`spectre`]) used by
//! the penetration test, and a structured [`random`] program generator
//! for differential fuzzing of the out-of-order core.
//!
//! ## Example
//!
//! ```rust
//! use sdo_workloads::suite;
//! let kernels = suite();
//! assert_eq!(kernels.len(), 10);
//! assert!(kernels.iter().any(|w| w.name() == "ptr_chase"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod kernels;
pub mod litmus;
pub mod random;
pub mod rv32;
pub mod spectre;

pub use kernels::{suite, workload_class, Workload};
pub use litmus::{litmus_case, Channel, LitmusCase, StaticExpect, CORPUS};
pub use rv32::{rv32_expect, rv32_litmus_cases, rv32_suite};
pub use spectre::{spectre_fp_victim, spectre_v1_victim, spectre_v1_with_secret, SpectreScenario};
