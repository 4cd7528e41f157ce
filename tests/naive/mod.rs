//! Naive reference implementations of TAGE and TAGE-SC-L: test support
//! for the bit-identity suite (`tests/bit_identity.rs`).
//!
//! These are the straightforward array-of-structs formulations the
//! optimized hot-path implementations ([`bp_predictors::Tage`],
//! [`bp_predictors::TageScL`]) were derived from: one `Vec<Vec<Entry>>`
//! per tagged bank, [`SatCounter`] state machines instead of branchless
//! lanes, and indices recomputed wherever they are needed. They exist so
//! the optimizations stay *provably* behavior-preserving: the bit-identity
//! suite replays full workload traces through both implementations and
//! asserts identical prediction streams and identical
//! [`state_digest`](Predictor::state_digest) values at the end.
//!
//! Nothing here is performance-sensitive; clarity wins every trade. The
//! structures intentionally mirror `tage.rs`/`sc.rs`/`tagescl.rs` in
//! `crates/predictors` line-for-line where behavior is concerned — when
//! changing predictor behavior, change both sides and let the tests prove
//! agreement.

use bp_predictors::{
    BitHistory, FoldedHistory, LoopPredictor, PathHistory, Predictor, SatCounter, ScConfig,
    ScDecision, SignedCounter, TageConfig, TageSclConfig,
};

/// Incremental 64-bit FNV-1a over little-endian `u64` words: a copy of
/// the predictors crate's private state hash, so digests compare
/// field-for-field with the optimized implementations'.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

#[derive(Clone, Copy, Debug)]
struct NaiveEntry {
    ctr: SatCounter,
    tag: u16,
    useful: SatCounter,
}

impl NaiveEntry {
    fn empty() -> Self {
        NaiveEntry {
            ctr: SatCounter::weakly_not_taken(3),
            tag: 0,
            useful: SatCounter::new(2, 0),
        }
    }
}

#[derive(Clone, Debug)]
struct NaiveCtx {
    ip: u64,
    indices: Vec<usize>,
    tags: Vec<u16>,
    provider: Option<usize>,
    alt_pred: bool,
    provider_pred: bool,
    provider_new: bool,
    pred: bool,
}

/// Reference TAGE: per-bank `Vec<NaiveEntry>` tables, per-prediction
/// heap-allocated context, [`SatCounter`] updates. Behaviorally identical
/// to [`bp_predictors::Tage`] by construction and by test.
#[derive(Clone, Debug)]
pub struct NaiveTage {
    config: TageConfig,
    lengths: Vec<usize>,
    bimodal: Vec<SatCounter>,
    tables: Vec<Vec<NaiveEntry>>,
    folded_idx: Vec<FoldedHistory>,
    folded_tag0: Vec<FoldedHistory>,
    folded_tag1: Vec<FoldedHistory>,
    ghist: BitHistory,
    path: PathHistory,
    use_alt_on_na: SignedCounter,
    lfsr: u64,
    updates: u64,
    ctx: Option<NaiveCtx>,
}

impl NaiveTage {
    /// Creates a reference TAGE predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TageConfig::history_lengths`]).
    #[must_use]
    pub fn new(config: TageConfig) -> Self {
        let lengths = config.history_lengths();
        let table_entries = 1usize << config.table_log2;
        NaiveTage {
            ghist: BitHistory::new(config.max_hist + 8),
            bimodal: vec![SatCounter::weakly_not_taken(2); 1 << config.bimodal_log2],
            tables: vec![vec![NaiveEntry::empty(); table_entries]; config.num_tables],
            folded_idx: lengths
                .iter()
                .map(|&l| FoldedHistory::new(l, config.table_log2))
                .collect(),
            folded_tag0: lengths
                .iter()
                .map(|&l| FoldedHistory::new(l, config.tag_bits))
                .collect(),
            folded_tag1: lengths
                .iter()
                .map(|&l| FoldedHistory::new(l, config.tag_bits - 1))
                .collect(),
            path: PathHistory::new(),
            use_alt_on_na: SignedCounter::new(4),
            lfsr: 0xACE1_u64,
            updates: 0,
            ctx: None,
            lengths,
            config,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64
        let mut x = self.lfsr;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.lfsr = x;
        x
    }

    fn bimodal_index(&self, ip: u64) -> usize {
        ((ip >> 2) & ((1u64 << self.config.bimodal_log2) - 1)) as usize
    }

    fn table_index(&self, ip: u64, t: usize) -> usize {
        let mask = (1u64 << self.config.table_log2) - 1;
        let path_bits = self.path.value() & ((1 << self.lengths[t].min(16)) - 1);
        let h = self.folded_idx[t].value()
            ^ (ip >> 2)
            ^ ((ip >> 2) >> (u64::from(self.config.table_log2).saturating_sub(t as u64 % 4)))
            ^ path_bits;
        (h & mask) as usize
    }

    fn tag(&self, ip: u64, t: usize) -> u16 {
        let mask = (1u64 << self.config.tag_bits) - 1;
        (((ip >> 2) ^ self.folded_tag0[t].value() ^ (self.folded_tag1[t].value() << 1)) & mask)
            as u16
    }

    fn compute(&mut self, ip: u64) -> NaiveCtx {
        let n = self.config.num_tables;
        let mut indices = Vec::with_capacity(n);
        let mut tags = Vec::with_capacity(n);
        for t in 0..n {
            indices.push(self.table_index(ip, t));
            tags.push(self.tag(ip, t));
        }
        let bimodal_pred = self.bimodal[self.bimodal_index(ip)].taken();
        let mut provider = None;
        let mut alt = None;
        for t in (0..n).rev() {
            if self.tables[t][indices[t]].tag == tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt = Some(t);
                    break;
                }
            }
        }
        let alt_pred = match alt {
            Some(t) => self.tables[t][indices[t]].ctr.taken(),
            None => bimodal_pred,
        };
        let (provider_pred, provider_new) = match provider {
            Some(t) => {
                let e = &self.tables[t][indices[t]];
                (e.ctr.taken(), e.ctr.is_weak() || e.useful.value() == 0)
            }
            None => (bimodal_pred, false),
        };
        let used_alt = provider.is_some() && provider_new && self.use_alt_on_na.value() >= 0;
        let pred = if used_alt { alt_pred } else { provider_pred };
        NaiveCtx {
            ip,
            indices,
            tags,
            provider,
            alt_pred,
            provider_pred,
            provider_new,
            pred,
        }
    }

    /// Whether the last prediction came from a high-confidence provider.
    #[must_use]
    pub fn last_confidence_high(&self) -> bool {
        self.ctx.as_ref().is_some_and(|c| match c.provider {
            Some(t) => self.tables[t][c.indices[t]].ctr.is_strong(),
            None => self.bimodal[self.bimodal_index(c.ip)].is_strong(),
        })
    }

    fn allocate(&mut self, ctx: &NaiveCtx, taken: bool) {
        let n = self.config.num_tables;
        let start = ctx.provider.map_or(0, |p| p + 1);
        if start >= n {
            return;
        }
        let mut free = Vec::new();
        for t in start..n {
            if self.tables[t][ctx.indices[t]].useful.value() == 0 {
                free.push(t);
            }
        }
        if free.is_empty() {
            for t in start..n {
                let e = &mut self.tables[t][ctx.indices[t]];
                e.useful.update(false);
            }
            return;
        }
        let mut chosen = free[0];
        for &t in &free[1..] {
            if self.next_rand().is_multiple_of(2) {
                break;
            }
            chosen = t;
        }
        let idx = ctx.indices[chosen];
        let e = &mut self.tables[chosen][idx];
        e.tag = ctx.tags[chosen];
        e.ctr = if taken {
            SatCounter::weakly_taken(3)
        } else {
            SatCounter::weakly_not_taken(3)
        };
        e.useful.set(0);
    }

    fn age_useful(&mut self) {
        for table in &mut self.tables {
            for e in table.iter_mut() {
                let halved = e.useful.value() >> 1;
                e.useful.set(halved);
            }
        }
    }

    fn push_history(&mut self, ip: u64, taken: bool) {
        for t in 0..self.config.num_tables {
            let olen = self.lengths[t];
            let outgoing = self.ghist.bit(olen - 1);
            self.folded_idx[t].update(taken, outgoing);
            self.folded_tag0[t].update(taken, outgoing);
            self.folded_tag1[t].update(taken, outgoing);
        }
        self.ghist.push(taken);
        self.path.push(ip);
    }
}

impl Predictor for NaiveTage {
    fn name(&self) -> &'static str {
        "naive-tage"
    }

    fn predict(&mut self, ip: u64) -> bool {
        let ctx = self.compute(ip);
        let pred = ctx.pred;
        self.ctx = Some(ctx);
        pred
    }

    fn update(&mut self, ip: u64, taken: bool, _pred: bool) {
        let ctx = match self.ctx.take() {
            Some(c) if c.ip == ip => c,
            _ => self.compute(ip),
        };
        self.updates += 1;

        match ctx.provider {
            Some(t) => {
                let idx = ctx.indices[t];
                if ctx.provider_pred != ctx.alt_pred {
                    let correct = ctx.provider_pred == taken;
                    self.tables[t][idx].useful.update(correct);
                }
                self.tables[t][idx].ctr.update(taken);
                if ctx.provider_new && ctx.provider_pred != ctx.alt_pred {
                    self.use_alt_on_na.update(ctx.alt_pred == taken);
                }
                if ctx.provider_new {
                    let bidx = self.bimodal_index(ip);
                    self.bimodal[bidx].update(taken);
                }
            }
            None => {
                let bidx = self.bimodal_index(ip);
                self.bimodal[bidx].update(taken);
            }
        }

        if ctx.pred != taken {
            self.allocate(&ctx, taken);
        }

        if self.updates.is_multiple_of(self.config.u_reset_period) {
            self.age_useful();
        }

        self.push_history(ip, taken);
    }

    fn storage_bits(&self) -> usize {
        let entry_bits = (3 + 2 + self.config.tag_bits) as usize;
        let tagged: usize = self.tables.iter().map(|t| t.len() * entry_bits).sum();
        self.bimodal.len() * 2 + tagged + self.config.max_hist + 64
    }

    /// FNV-1a digest of the complete architectural state, field-for-field
    /// comparable with [`bp_predictors::Tage::state_digest`].
    fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for b in &self.bimodal {
            h.push(u64::from(b.value()));
        }
        for table in &self.tables {
            for e in table {
                h.push(u64::from(e.ctr.value()));
                h.push(u64::from(e.tag));
                h.push(u64::from(e.useful.value()));
            }
        }
        for t in 0..self.config.num_tables {
            h.push(self.folded_idx[t].value());
            h.push(self.folded_tag0[t].value());
            h.push(self.folded_tag1[t].value());
        }
        h.push(self.path.value());
        h.push(self.use_alt_on_na.value() as u64);
        h.push(self.lfsr);
        h.push(self.updates);
        h.finish()
    }
}

/// Reference statistical corrector: every table index recomputed at each
/// use, as in the original formulation. Behaviorally identical to
/// [`bp_predictors::StatisticalCorrector`].
#[derive(Clone, Debug)]
pub struct NaiveStatisticalCorrector {
    config: ScConfig,
    bias: Vec<SignedCounter>,
    gehl: Vec<Vec<SignedCounter>>,
    history: u64,
    threshold: i32,
    tc: i32,
    last_sum: i32,
}

impl NaiveStatisticalCorrector {
    /// Creates a reference corrector from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no history lengths or out-of-range
    /// widths.
    #[must_use]
    pub fn new(config: ScConfig) -> Self {
        assert!(!config.history_lengths.is_empty(), "need at least one GEHL table");
        assert!((1..=16).contains(&config.table_log2));
        assert!((2..=8).contains(&config.counter_bits));
        let entries = 1usize << config.table_log2;
        NaiveStatisticalCorrector {
            bias: vec![SignedCounter::new(config.counter_bits); entries * 2],
            gehl: config
                .history_lengths
                .iter()
                .map(|_| vec![SignedCounter::new(config.counter_bits); entries])
                .collect(),
            history: 0,
            threshold: 6,
            tc: 0,
            last_sum: 0,
            config,
        }
    }

    fn bias_index(&self, ip: u64, input_pred: bool) -> usize {
        let mask = (1u64 << self.config.table_log2) - 1;
        ((((ip >> 2) & mask) << 1) | u64::from(input_pred)) as usize
    }

    fn gehl_index(&self, ip: u64, component: usize) -> usize {
        let mask = (1u64 << self.config.table_log2) - 1;
        let bits = self.config.history_lengths[component];
        let h = self.history & ((1u64 << bits.min(63)) - 1);
        let mixed =
            h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - u64::from(self.config.table_log2));
        (((ip >> 2) ^ mixed ^ (h << 1)) & mask) as usize
    }

    fn sum(&self, ip: u64, input_pred: bool) -> i32 {
        let mut s = self.bias[self.bias_index(ip, input_pred)].centered();
        for (c, table) in self.gehl.iter().enumerate() {
            s += table[self.gehl_index(ip, c)].centered();
        }
        s + if input_pred { 8 } else { -8 }
    }

    /// Arbitrates `input_pred` for branch `ip`; see
    /// [`bp_predictors::StatisticalCorrector::refine`].
    pub fn refine(&mut self, ip: u64, input_pred: bool, input_confident: bool) -> ScDecision {
        let sum = self.sum(ip, input_pred);
        self.last_sum = sum;
        let sc_pred = sum >= 0;
        let margin = if input_confident {
            self.threshold * 2
        } else {
            self.threshold
        };
        if sc_pred != input_pred && sum.abs() >= margin {
            ScDecision {
                taken: sc_pred,
                overrode: true,
            }
        } else {
            ScDecision {
                taken: input_pred,
                overrode: false,
            }
        }
    }

    /// Trains with the resolved outcome; see
    /// [`bp_predictors::StatisticalCorrector::train`].
    pub fn train(&mut self, ip: u64, input_pred: bool, final_pred: bool, taken: bool) {
        let sum = self.last_sum;
        if final_pred != taken || sum.abs() < self.threshold * 4 {
            let bidx = self.bias_index(ip, input_pred);
            self.bias[bidx].update(taken);
            for c in 0..self.gehl.len() {
                let idx = self.gehl_index(ip, c);
                self.gehl[c][idx].update(taken);
            }
        }
        let sc_pred = sum >= 0;
        if sc_pred != input_pred {
            if final_pred != taken && sc_pred != taken {
                self.tc += 1;
                if self.tc >= 4 {
                    self.threshold = (self.threshold + 1).min(64);
                    self.tc = 0;
                }
            } else if final_pred != taken && sc_pred == taken {
                self.tc -= 1;
                if self.tc <= -4 {
                    self.threshold = (self.threshold - 1).max(2);
                    self.tc = 0;
                }
            }
        }
        self.history = (self.history << 1) | u64::from(taken);
    }

    /// FNV-1a digest of the trained state, field-for-field comparable
    /// with [`bp_predictors::StatisticalCorrector::state_digest`].
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for b in &self.bias {
            h.push(b.value() as u64);
        }
        for table in &self.gehl {
            for c in table {
                h.push(c.value() as u64);
            }
        }
        h.push(self.threshold as u64);
        h.push(self.tc as u64);
        h.push(self.history);
        h.push(self.last_sum as u64);
        h.finish()
    }
}

#[derive(Clone, Copy, Debug)]
struct NaiveEnsembleCtx {
    ip: u64,
    tage_pred: bool,
    loop_vote: Option<bool>,
    pre_sc_pred: bool,
    final_pred: bool,
}

/// Reference TAGE-SC-L: [`NaiveTage`] + [`NaiveStatisticalCorrector`] +
/// the (shared) [`LoopPredictor`], arbitrated exactly as
/// [`bp_predictors::TageScL`] does.
#[derive(Clone, Debug)]
pub struct NaiveTageScL {
    tage: NaiveTage,
    sc: Option<NaiveStatisticalCorrector>,
    loop_pred: Option<LoopPredictor>,
    with_loop: SignedCounter,
    name: String,
    ctx: Option<NaiveEnsembleCtx>,
}

impl NaiveTageScL {
    /// Creates a reference TAGE-SC-L predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`TageConfig::history_lengths`]).
    #[must_use]
    pub fn new(config: TageSclConfig) -> Self {
        NaiveTageScL {
            name: format!("naive-tage-sc-l-{}kb", config.nominal_kb),
            tage: NaiveTage::new(config.tage),
            sc: config.sc.map(NaiveStatisticalCorrector::new),
            loop_pred: config.loop_entries.map(LoopPredictor::new),
            with_loop: SignedCounter::new(7),
            ctx: None,
        }
    }

    fn compute(&mut self, ip: u64) -> NaiveEnsembleCtx {
        let tage_pred = self.tage.predict(ip);
        let tage_confident = self.tage.last_confidence_high();

        let mut pred = tage_pred;
        let mut loop_vote = None;
        if let Some(lp) = &self.loop_pred {
            if let Some(l) = lp.predict(ip) {
                if l.confident {
                    loop_vote = Some(l.taken);
                    if self.with_loop.value() >= 0 {
                        pred = l.taken;
                    }
                }
            }
        }
        let pre_sc_pred = pred;

        let final_pred = match &mut self.sc {
            Some(sc) => {
                sc.refine(ip, pre_sc_pred, tage_confident || loop_vote.is_some())
                    .taken
            }
            None => pre_sc_pred,
        };
        NaiveEnsembleCtx {
            ip,
            tage_pred,
            loop_vote,
            pre_sc_pred,
            final_pred,
        }
    }
}

impl Predictor for NaiveTageScL {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&mut self, ip: u64) -> bool {
        let ctx = self.compute(ip);
        self.ctx = Some(ctx);
        ctx.final_pred
    }

    fn update(&mut self, ip: u64, taken: bool, _pred: bool) {
        let ctx = match self.ctx.take() {
            Some(c) if c.ip == ip => c,
            _ => self.compute(ip),
        };
        if let Some(lv) = ctx.loop_vote {
            if lv != ctx.tage_pred {
                self.with_loop.update(lv == taken);
            }
        }
        if let Some(lp) = &mut self.loop_pred {
            lp.update(ip, taken);
        }
        if let Some(sc) = &mut self.sc {
            sc.train(ip, ctx.pre_sc_pred, ctx.final_pred, taken);
        }
        self.tage.update(ip, taken, ctx.tage_pred);
    }

    fn storage_bits(&self) -> usize {
        self.tage.storage_bits()
            + self
                .sc
                .as_ref()
                .map_or(0, |sc| {
                    let cb = sc.config.counter_bits as usize;
                    sc.bias.len() * cb
                        + sc.gehl.iter().map(|t| t.len() * cb).sum::<usize>()
                        + 64
                })
            + self.loop_pred.as_ref().map_or(0, LoopPredictor::storage_bits)
            + 7
    }

    /// FNV-1a digest of the complete ensemble state, field-for-field
    /// comparable with [`bp_predictors::TageScL::state_digest`].
    fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.push(self.tage.state_digest());
        h.push(
            self.sc
                .as_ref()
                .map_or(0, NaiveStatisticalCorrector::state_digest),
        );
        h.push(self.loop_pred.as_ref().map_or(0, LoopPredictor::state_digest));
        h.push(self.with_loop.value() as u64);
        h.finish()
    }
}
