//! Property tests for the lane-vector primitives and the chunked lane
//! decomposition.
//!
//! Every [`LaneVec`] operation is required to be the exact lane-wise lift
//! of its scalar counterpart — lane `k` of the output depends only on
//! lane `k` of the inputs and bit `k` of the mask. These tests drive
//! each primitive with seeded pseudo-random lanes and masks at every
//! chunk width the replay dispatcher instantiates (K ∈ {4, 8, 16}, and
//! K = 1 as the degenerate lift) for both cycle-word widths, comparing
//! against a direct per-lane scalar loop.
//!
//! The ragged-count test proves what the sweeps depend on:
//! [`SweepReplay::simulate_many`] returns exactly one result per
//! (config, stream) cell for any stream and config count, each equal to
//! that cell's scalar [`simulate`] at its own config.

use bp_pipeline::lanes::{CycleWord, LaneVec};
use bp_pipeline::{simulate, PipelineConfig, SimStats, SweepReplay};
use bp_trace::{InstClass, Reg, RetiredInst, Trace, TraceMeta};

/// Deterministic 64-bit LCG (same multiplier the in-crate tests use).
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
    *state
}

/// Drives one binary LaneVec op against its scalar lift for `ROUNDS`
/// random inputs at lane width `K`.
fn check_binary_op<C: CycleWord, const K: usize>(
    seed: u64,
    op: impl Fn(LaneVec<C, K>, LaneVec<C, K>) -> LaneVec<C, K>,
    scalar: impl Fn(C, C) -> C,
    label: &str,
) {
    const ROUNDS: usize = 200;
    let mut state = seed;
    for round in 0..ROUNDS {
        let mut a = LaneVec::<C, K>::default();
        let mut b = LaneVec::<C, K>::default();
        for k in 0..K {
            a.0[k] = C::narrow(lcg(&mut state) >> 34);
            b.0[k] = C::narrow(lcg(&mut state) >> 34);
        }
        let got = op(a, b);
        for k in 0..K {
            assert_eq!(
                got.0[k],
                scalar(a.0[k], b.0[k]),
                "{label}: K={K} lane {k} round {round}"
            );
        }
    }
}

/// Runs the full primitive battery at one (C, K) instantiation.
fn check_primitives<C: CycleWord, const K: usize>(seed: u64) {
    check_binary_op::<C, K>(seed, LaneVec::max, |a, b| a.max(b), "max");
    check_binary_op::<C, K>(seed ^ 0xA5, LaneVec::sub_sat, CycleWord::sub_sat, "sub_sat");

    let mut state = seed.wrapping_add(99);
    for round in 0..200 {
        let mut a = LaneVec::<C, K>::default();
        let mut b = LaneVec::<C, K>::default();
        for k in 0..K {
            a.0[k] = C::narrow(lcg(&mut state) >> 34);
            b.0[k] = C::narrow(lcg(&mut state) >> 34);
        }
        let mask = (lcg(&mut state) & ((1u64 << K) - 1)) as u32;
        let scalar_inc = C::narrow(lcg(&mut state) >> 40);

        let added = a.add_scalar(scalar_inc);
        let added_lanes = a.add_lanes(b);
        let mut sel = LaneVec::<C, K>::default();
        for k in (0..K).filter(|k| mask & (1 << k) != 0) {
            sel.0[k] = C::ALL_ONES;
        }
        let lo = (lcg(&mut state) % K as u64) as usize;
        let hi = lo + (lcg(&mut state) % (K - lo) as u64) as usize + 1;
        let spliced = a.splice(lo..hi, b);
        let blended = a.blend(lo..hi, sel, b);
        let mmax = a.masked_max(mask, b);
        let wide = a.widen();
        // The equality count, stepped over a run of comparisons: half
        // the pairs compare a lane with itself (always equal), the rest
        // random lanes (almost never equal).
        let mut count = LaneVec::<C, K>::default();
        let mut scalar_count = [0u64; K];
        for step in 0..8 {
            let mut x = LaneVec::<C, K>::default();
            let mut y = LaneVec::<C, K>::default();
            for k in 0..K {
                x.0[k] = C::narrow(lcg(&mut state) >> 34);
                y.0[k] = if step % 2 == 0 { x.0[k] } else { C::narrow(lcg(&mut state) >> 34) };
            }
            count.count_eq(x, y);
            for (c, (x, y)) in scalar_count.iter_mut().zip(x.0.iter().zip(&y.0)) {
                *c += u64::from(x == y);
            }
        }
        assert_eq!(count.widen().0, scalar_count, "count_eq: K={K} round {round}");
        for k in 0..K {
            let bit = mask & (1 << k) != 0;
            assert_eq!(added.0[k], a.0[k].add(scalar_inc), "add_scalar: K={K} lane {k}");
            assert_eq!(
                added_lanes.0[k],
                a.0[k].add(b.0[k]),
                "add_lanes: K={K} lane {k}"
            );
            let inside = (lo..hi).contains(&k);
            let expect_splice = if inside { b.0[k] } else { a.0[k] };
            assert_eq!(
                spliced.0[k], expect_splice,
                "splice: K={K} lane {k} round {round}"
            );
            let expect_blend = if inside && bit { b.0[k] } else { a.0[k] };
            assert_eq!(
                blended.0[k], expect_blend,
                "blend: K={K} lane {k} round {round}"
            );
            let expect_mmax = if bit && b.0[k] > a.0[k] { b.0[k] } else { a.0[k] };
            assert_eq!(mmax.0[k], expect_mmax, "masked_max: K={K} lane {k} round {round}");
            assert_eq!(wide.0[k], a.0[k].widen(), "widen: K={K} lane {k}");
        }

        // u64 accumulator primitives, lifted from the same lanes.
        let mut acc = wide;
        acc.add_mask_bits(mask);
        let mut acc2 = wide;
        acc2.add_masked(mask, b.widen());
        for k in 0..K {
            let bit = mask & (1 << k) != 0;
            assert_eq!(acc.0[k], a.0[k].widen() + u64::from(bit), "add_mask_bits");
            let expect = a.0[k].widen() + if bit { b.0[k].widen() } else { 0 };
            assert_eq!(acc2.0[k], expect, "add_masked: K={K} lane {k}");
        }
    }
}

#[test]
fn top_bit_is_the_sign_bit() {
    for (v, top) in [
        (0u64, false),
        (1, false),
        (u64::MAX >> 1, false),
        (1 << 63, true),
        (u64::MAX, true),
    ] {
        assert_eq!(v.top_bit(), top, "u64 {v:#x}");
        let narrow = (v >> 32) as u32;
        assert_eq!(narrow.top_bit(), top, "u32 {narrow:#x}");
    }
}

#[test]
fn primitives_match_scalar_lift_at_every_chunk_width() {
    check_primitives::<u32, 1>(3);
    check_primitives::<u32, 4>(7);
    check_primitives::<u32, 8>(11);
    check_primitives::<u32, 16>(13);
    check_primitives::<u64, 1>(17);
    check_primitives::<u64, 4>(23);
    check_primitives::<u64, 8>(29);
    check_primitives::<u64, 16>(31);
}

/// A mixed synthetic trace exercising loads, stores, forwarding,
/// multiplies and branches (mirrors the in-crate sweep tests).
fn mixed_trace(name: &str, seed: u64, n: u64) -> (Trace, usize) {
    let mut t = Trace::new(TraceMeta::new(name, 0));
    let mut branches = 0;
    let mut state = seed;
    for i in 0..n {
        lcg(&mut state);
        match state % 7 {
            0 => {
                t.push(RetiredInst::cond_branch(
                    i * 4,
                    state & 2 == 0,
                    0,
                    Some((state % 8) as u8),
                    None,
                ));
                branches += 1;
            }
            1 => t.push(RetiredInst::mem(
                i * 4,
                InstClass::Load,
                (state >> 8) % 4096,
                None,
                None,
                Some(Reg::new((state % 16) as u8)),
                0,
            )),
            2 => t.push(RetiredInst::mem(
                i * 4,
                InstClass::Store,
                (state >> 8) % 4096,
                Some(Reg::new((state % 16) as u8)),
                None,
                None,
                0,
            )),
            3 => t.push(RetiredInst::op(
                i * 4,
                InstClass::Mul,
                Some(Reg::new((state % 16) as u8)),
                Some(Reg::new(((state >> 4) % 16) as u8)),
                Some(Reg::new(((state >> 8) % 16) as u8)),
                0,
            )),
            _ => t.push(RetiredInst::op(
                i * 4,
                InstClass::Alu,
                Some(Reg::new((state % 16) as u8)),
                None,
                Some(Reg::new(((state >> 4) % 16) as u8)),
                0,
            )),
        }
    }
    (t, branches)
}

fn flag_streams(branches: usize, count: u64, seed: u64) -> Vec<Vec<bool>> {
    (0..count)
        .map(|i| {
            let mut state = seed + i;
            (0..branches)
                .map(|_| lcg(&mut state) % 100 < i * 7 % 60)
                .collect()
        })
        .collect()
}

#[test]
fn ragged_lane_counts_replay_every_stream() {
    // Every stream count from 1 to 36 at every count of 1 to 6 mixed
    // configs must produce exactly one result per cell, each matching
    // the scalar replay at that cell's config — no cell may be dropped,
    // doubled or replayed at a neighbour's config by the chunking, the
    // padding or the per-lane lags. The fourth config's penalty forces
    // the `u64` fallback on every chunk holding it. Run with metrics off,
    // then on, so both instantiations answer.
    let base = PipelineConfig::skylake();
    let (t, b) = mixed_trace("ragged", 3, 1_500);
    let sweep = SweepReplay::new(&t, &base);
    let all = flag_streams(b, 36, 9);
    let mut wide = base.scaled(4);
    wide.mispredict_penalty = u32::MAX / 2;
    let configs = [
        base.scaled(32),
        base.clone(),
        base.scaled(2),
        wide,
        base.scaled(16),
        base.scaled(8),
    ];
    let scalar: Vec<Vec<SimStats>> = configs
        .iter()
        .map(|c| all.iter().map(|f| simulate(&t, f, c)).collect())
        .collect();
    for metrics in [false, true] {
        if metrics {
            bp_metrics::force_enable();
        }
        for m in 1..=configs.len() {
            for n in 1..=all.len() {
                let refs: Vec<&[bool]> = all[..n].iter().map(Vec::as_slice).collect();
                let many = sweep.simulate_many(&refs, &configs[..m]);
                assert_eq!(many.len(), m);
                for (c, per_config) in many.iter().enumerate() {
                    assert_eq!(per_config.len(), n);
                    for (k, got) in per_config.iter().enumerate() {
                        assert_eq!(
                            *got, scalar[c][k],
                            "metrics {metrics}, {n}×{m}: config {c} lane {k}"
                        );
                    }
                }
            }
        }
    }
}
