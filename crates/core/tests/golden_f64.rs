//! Golden bit-identity test: the default f64 pipeline must reproduce its
//! pinned output bit for bit.
//!
//! The hashes were first captured on the commit immediately before the
//! `Scalar`-generic refactor (plain and line-search paths, 64 px grid,
//! K = 4, vertical wire target). They were re-pinned once since, when the
//! real-input FFT (`RfftPlan`) became the only production transform: its
//! half-spectrum untangling rounds differently from the dense complex
//! transform it replaced, so every f64 result moved at round-off level.
//! The hash is FNV-1a over `f64::to_bits` of every history field, the
//! final mask, and the final level-set function — any reordering of
//! floating-point operations in the f64 path changes it.

use lsopc_core::{IltResult, LevelSetIlt, RunControl};
use lsopc_grid::Grid;
use lsopc_litho::LithoSimulator;
use lsopc_optics::OpticsConfig;

fn sim() -> LithoSimulator {
    LithoSimulator::from_optics(&OpticsConfig::iccad2013().with_kernel_count(4), 64, 4.0)
        .expect("valid configuration")
}

fn wire_target() -> Grid<f64> {
    Grid::from_fn(64, 64, |x, y| {
        if (26..38).contains(&x) && (12..52).contains(&y) {
            1.0
        } else {
            0.0
        }
    })
}

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_f64(&mut self, v: f64) {
        self.push(v.to_bits());
    }
}

fn result_hash(result: &IltResult) -> u64 {
    let mut h = Fnv::new();
    h.push(result.iterations as u64);
    h.push(u64::from(result.converged));
    for r in &result.history {
        h.push(r.iteration as u64);
        h.push_f64(r.cost_nominal);
        h.push_f64(r.cost_pvb);
        h.push_f64(r.cost_total);
        h.push_f64(r.max_velocity);
        h.push_f64(r.time_step);
        h.push_f64(r.cg_beta);
        h.push_f64(r.lambda_scale);
    }
    for &v in result.mask.as_slice() {
        h.push_f64(v);
    }
    for &v in result.levelset.as_slice() {
        h.push_f64(v);
    }
    h.0
}

#[test]
fn plain_path_is_bit_identical_to_pre_refactor_output() {
    let result = LevelSetIlt::builder()
        .max_iterations(8)
        .build()
        .optimize(&sim(), &wire_target(), &RunControl::new())
        .expect("optimization runs");
    let hash = result_hash(&result);
    println!("plain golden hash: {hash:#018x}");
    assert_eq!(hash, GOLDEN_PLAIN, "plain-path f64 output drifted bitwise");
}

#[test]
fn line_search_path_is_bit_identical_to_pre_refactor_output() {
    let result = LevelSetIlt::builder()
        .max_iterations(6)
        .lambda_t(4.0)
        .line_search(true)
        .build()
        .optimize(&sim(), &wire_target(), &RunControl::new())
        .expect("optimization runs");
    let hash = result_hash(&result);
    println!("line-search golden hash: {hash:#018x}");
    assert_eq!(
        hash, GOLDEN_LINE_SEARCH,
        "line-search f64 output drifted bitwise"
    );
}

const GOLDEN_PLAIN: u64 = 0x409c_00df_eb4a_b8ee;
const GOLDEN_LINE_SEARCH: u64 = 0x41f8_d2ec_bd61_4f42;
