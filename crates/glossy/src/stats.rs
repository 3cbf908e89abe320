//! Monte-Carlo profiling of network statistics `λ(N_TX)`.
//!
//! NETDAG consumes the network through two *statistics*:
//!
//! * the **soft** statistic `λ_s : N_TX → [0, 1]`, the probability that a
//!   flood with the given retransmission parameter succeeds, assumed
//!   monotonically increasing;
//! * the **weakly hard** statistic `λ_WH : N_TX → (m̄, K)`, a bound on the
//!   misses a run of floods can accumulate per window, monotonically
//!   increasing w.r.t. `⪯`.
//!
//! The paper obtains these from testbed measurements; this module measures
//! them on the [`crate::flood`] simulator instead, then *monotonizes* the
//! raw estimates so the scheduler's assumptions hold by construction.
//!
//! Profiling is instrumented through the process-global `netdag_obs`
//! recorder: every simulated flood bumps `glossy.floods_simulated`, the
//! profilers time themselves under the `glossy.profile_*` spans, and
//! [`StatCache`] lookups are classified as `glossy.cache_hits` /
//! `glossy.cache_misses` / `glossy.cache_bypasses`.

use std::error::Error;
use std::fmt;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use netdag_runtime::{derive_seed, try_run_indexed, ExecPolicy};
use netdag_weakly_hard::{Constraint, Sequence};

use crate::flood::{simulate_flood, FloodError, FloodParams};
use crate::link::LossModel;
use crate::topology::{NodeId, Topology};

/// Runs per Monte-Carlo chunk in the profilers. Chunk
/// boundaries — and therefore every chunk's derived RNG stream — depend
/// only on this constant and the chunk index, never on the thread
/// count, which is what makes parallel runs bit-identical to each other.
pub const PROFILE_CHUNK: u32 = 256;

/// Error returned by the profilers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// `n_tx_max` must be at least `n_tx_min ≥ 1`.
    BadNtxRange {
        /// Smallest `N_TX` profiled.
        min: u32,
        /// Largest `N_TX` profiled.
        max: u32,
    },
    /// At least one run per `N_TX` value is required.
    NoRuns,
    /// Flood simulation rejected its parameters (bad initiator).
    Flood(FloodError),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::BadNtxRange { min, max } => {
                write!(f, "invalid N_TX range [{min}, {max}] (need 1 ≤ min ≤ max)")
            }
            ProfileError::NoRuns => write!(f, "at least one run per N_TX value is required"),
            ProfileError::Flood(e) => write!(f, "flood simulation failed: {e}"),
        }
    }
}

impl Error for ProfileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProfileError::Flood(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FloodError> for ProfileError {
    fn from(e: FloodError) -> Self {
        ProfileError::Flood(e)
    }
}

/// Fixed partition of `total` Monte-Carlo runs into [`PROFILE_CHUNK`]-sized
/// chunks: returns the chunk count; chunk `c` covers runs
/// `[c * PROFILE_CHUNK, ...)` and has [`chunk_len`] runs.
fn chunk_count(total: u32) -> u32 {
    total.div_ceil(PROFILE_CHUNK)
}

fn chunk_len(total: u32, chunk: u32) -> u32 {
    let start = chunk * PROFILE_CHUNK;
    PROFILE_CHUNK.min(total - start)
}

/// An empirically measured soft statistic `λ_s(N_TX)`.
///
/// # Example
///
/// ```
/// use netdag_glossy::{SoftProfile, Topology, link::Bernoulli, NodeId};
/// use netdag_runtime::ExecPolicy;
///
/// let topo = Topology::line(4)?;
/// let link = Bernoulli::new(0.8)?;
/// let profile =
///     SoftProfile::measure_par(&topo, &link, NodeId(0), 1..=5, 200, 5, ExecPolicy::Serial)?;
/// assert!(profile.lambda(5) >= profile.lambda(1)); // monotonized
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SoftProfile {
    n_tx_min: u32,
    success: Vec<f64>,
}

impl SoftProfile {
    /// Measures flood success rates over `runs` floods per `N_TX` value and
    /// monotonizes the result (running maximum), since the true `λ_s` is
    /// non-decreasing in `N_TX`.
    ///
    /// The `runs` floods of each `N_TX` value split into fixed
    /// [`PROFILE_CHUNK`]-sized chunks; chunk `c` of `N_TX = n` runs on a
    /// fresh clone of `link` with its own ChaCha stream seeded by
    /// `derive_seed(master_seed, n, c)`. A stateful channel
    /// (Gilbert–Elliott bursts, node churn) therefore restarts from
    /// `link`'s state every [`PROFILE_CHUNK`] (256) floods. Per-`N_TX`
    /// success counts are integer sums over chunks, so the result
    /// depends only on `(topo, link, master_seed)` — any [`ExecPolicy`]
    /// produces bit-identical tables.
    ///
    /// # Errors
    ///
    /// See [`ProfileError`].
    pub fn measure_par<L: LossModel + Clone + Sync>(
        topo: &Topology,
        link: &L,
        initiator: NodeId,
        n_tx_range: std::ops::RangeInclusive<u32>,
        runs: u32,
        master_seed: u64,
        policy: ExecPolicy,
    ) -> Result<Self, ProfileError> {
        let (min, max) = (*n_tx_range.start(), *n_tx_range.end());
        if min == 0 || min > max {
            return Err(ProfileError::BadNtxRange { min, max });
        }
        if runs == 0 {
            return Err(ProfileError::NoRuns);
        }
        let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_GLOSSY_PROFILE_SOFT);
        let n_values = max - min + 1;
        let chunks = chunk_count(runs);
        let jobs = (n_values * chunks) as usize;
        let ok_counts: Vec<u32> =
            try_run_indexed(policy, jobs, |job| -> Result<u32, ProfileError> {
                let n_tx = min + job as u32 / chunks;
                let chunk = job as u32 % chunks;
                let mut rng = ChaCha8Rng::from_seed(derive_seed(
                    master_seed,
                    u64::from(n_tx),
                    u64::from(chunk),
                ));
                let mut link = link.clone();
                let mut ok = 0u32;
                for _ in 0..chunk_len(runs, chunk) {
                    let out =
                        simulate_flood(topo, &mut link, &FloodParams { initiator, n_tx }, &mut rng)
                            .map_err(ProfileError::Flood)?;
                    if out.all_reached() {
                        ok += 1;
                    }
                    link.advance_between_floods(&mut rng);
                }
                Ok(ok)
            })?;
        let success: Vec<f64> = ok_counts
            .chunks_exact(chunks as usize)
            .map(|per_ntx| f64::from(per_ntx.iter().sum::<u32>()) / f64::from(runs))
            .collect();
        Self::from_table(min, success)
    }

    /// Builds a profile from an explicit table (`table[0]` is
    /// `λ_s(n_tx_min)`), monotonizing it.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::NoRuns`] for an empty table or
    /// [`ProfileError::BadNtxRange`] for `n_tx_min == 0`.
    pub fn from_table(n_tx_min: u32, mut table: Vec<f64>) -> Result<Self, ProfileError> {
        if n_tx_min == 0 {
            return Err(ProfileError::BadNtxRange {
                min: 0,
                max: n_tx_min + table.len() as u32,
            });
        }
        if table.is_empty() {
            return Err(ProfileError::NoRuns);
        }
        for i in 1..table.len() {
            if table[i] < table[i - 1] {
                table[i] = table[i - 1];
            }
        }
        Ok(SoftProfile {
            n_tx_min,
            success: table,
        })
    }

    /// Smallest profiled `N_TX`.
    pub fn n_tx_min(&self) -> u32 {
        self.n_tx_min
    }

    /// Largest profiled `N_TX`.
    pub fn n_tx_max(&self) -> u32 {
        self.n_tx_min + self.success.len() as u32 - 1
    }

    /// The statistic `λ_s(n)`, clamped to the profiled range.
    pub fn lambda(&self, n_tx: u32) -> f64 {
        let idx = n_tx
            .clamp(self.n_tx_min, self.n_tx_max())
            .saturating_sub(self.n_tx_min) as usize;
        self.success[idx]
    }

    /// The raw table, `table[i] = λ_s(n_tx_min + i)`.
    pub fn table(&self) -> &[f64] {
        &self.success
    }
}

/// An empirically measured weakly hard statistic `λ_WH(N_TX)` in miss form
/// `(m̄, K)` over a fixed window `K`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WeaklyHardProfile {
    n_tx_min: u32,
    window: u32,
    misses: Vec<u32>,
}

impl WeaklyHardProfile {
    /// Runs `kappa` consecutive floods per `N_TX` value, records the
    /// hit/miss sequence of the *flood success* event, extracts the worst
    /// observed miss count over any window of `window`, adds
    /// `safety_margin`, and monotonizes (running minimum in `N_TX`).
    ///
    /// Chunked like [`SoftProfile::measure_par`]: each chunk simulates
    /// its slice of the `kappa`-flood run on a fresh clone of `link` with
    /// its own derived ChaCha stream, so a stateful channel restarts from
    /// `link`'s state every [`PROFILE_CHUNK`] (256) floods. The per-chunk
    /// hit/miss slices concatenate *in chunk order* into the full
    /// sequence before the windowed miss count is taken, so the table is
    /// a pure function of `(topo, link, master_seed)` — identical at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// See [`ProfileError`].
    #[allow(clippy::too_many_arguments)]
    pub fn measure_par<L: LossModel + Clone + Sync>(
        topo: &Topology,
        link: &L,
        initiator: NodeId,
        n_tx_range: std::ops::RangeInclusive<u32>,
        window: u32,
        kappa: u32,
        safety_margin: u32,
        master_seed: u64,
        policy: ExecPolicy,
    ) -> Result<Self, ProfileError> {
        let (min, max) = (*n_tx_range.start(), *n_tx_range.end());
        if min == 0 || min > max || window == 0 {
            return Err(ProfileError::BadNtxRange { min, max });
        }
        if kappa == 0 {
            return Err(ProfileError::NoRuns);
        }
        let _span = netdag_obs::global().span(netdag_obs::keys::SPAN_GLOSSY_PROFILE_WEAKLY_HARD);
        let n_values = max - min + 1;
        let chunks = chunk_count(kappa);
        let jobs = (n_values * chunks) as usize;
        let slices: Vec<Vec<bool>> =
            try_run_indexed(policy, jobs, |job| -> Result<Vec<bool>, ProfileError> {
                let n_tx = min + job as u32 / chunks;
                let chunk = job as u32 % chunks;
                let mut rng = ChaCha8Rng::from_seed(derive_seed(
                    master_seed,
                    u64::from(n_tx),
                    u64::from(chunk),
                ));
                let mut link = link.clone();
                let len = chunk_len(kappa, chunk);
                let mut slice = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    let out =
                        simulate_flood(topo, &mut link, &FloodParams { initiator, n_tx }, &mut rng)
                            .map_err(ProfileError::Flood)?;
                    slice.push(out.all_reached());
                    link.advance_between_floods(&mut rng);
                }
                Ok(slice)
            })?;
        let misses: Vec<u32> = slices
            .chunks_exact(chunks as usize)
            .map(|per_ntx| {
                let seq: Sequence = per_ntx.iter().flatten().copied().collect();
                let worst = seq.max_window_misses(window as usize).unwrap_or(0) as u32;
                (worst + safety_margin).min(window)
            })
            .collect();
        Self::from_table(min, window, misses)
    }

    /// Builds a profile from an explicit miss table, monotonizing it.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::NoRuns`] for an empty table or
    /// [`ProfileError::BadNtxRange`] for a zero `n_tx_min`/`window`.
    pub fn from_table(
        n_tx_min: u32,
        window: u32,
        mut misses: Vec<u32>,
    ) -> Result<Self, ProfileError> {
        if n_tx_min == 0 || window == 0 {
            return Err(ProfileError::BadNtxRange {
                min: n_tx_min,
                max: n_tx_min + misses.len() as u32,
            });
        }
        if misses.is_empty() {
            return Err(ProfileError::NoRuns);
        }
        for m in &mut misses {
            *m = (*m).min(window);
        }
        for i in 1..misses.len() {
            if misses[i] > misses[i - 1] {
                misses[i] = misses[i - 1];
            }
        }
        Ok(WeaklyHardProfile {
            n_tx_min,
            window,
            misses,
        })
    }

    /// Smallest profiled `N_TX`.
    pub fn n_tx_min(&self) -> u32 {
        self.n_tx_min
    }

    /// Largest profiled `N_TX`.
    pub fn n_tx_max(&self) -> u32 {
        self.n_tx_min + self.misses.len() as u32 - 1
    }

    /// The profiling window `K`.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The statistic `λ_WH(n)` as a miss-form constraint, clamped to the
    /// profiled range.
    pub fn lambda(&self, n_tx: u32) -> Constraint {
        let idx = n_tx
            .clamp(self.n_tx_min, self.n_tx_max())
            .saturating_sub(self.n_tx_min) as usize;
        Constraint::AnyMiss {
            m: self.misses[idx],
            k: self.window,
        }
    }

    /// The raw miss table, `table[i] = misses(n_tx_min + i)`.
    pub fn miss_table(&self) -> &[u32] {
        &self.misses
    }
}

/// Cache key for one soft-profile measurement. The execution policy is
/// deliberately absent: [`SoftProfile::measure_par`] is thread-count
/// invariant, so the policy cannot change the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SoftKey {
    topo: u64,
    link: u64,
    initiator: u32,
    n_tx_min: u32,
    n_tx_max: u32,
    runs: u32,
    seed: u64,
}

/// Cache key for one weakly hard profile measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WeaklyHardKey {
    topo: u64,
    link: u64,
    initiator: u32,
    n_tx_min: u32,
    n_tx_max: u32,
    window: u32,
    kappa: u32,
    safety_margin: u32,
    seed: u64,
}

/// Cache hit/miss counters, for reporting and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran a measurement.
    pub misses: u64,
    /// Profiles currently cached.
    pub entries: usize,
}

/// Memoizes monotonized λ tables across profiling calls.
///
/// Exploration loops (λ sweeps, design-space exploration, validation)
/// re-profile the same `(topology, loss model, N_TX range, runs, seed)`
/// point many times; since [`SoftProfile::measure_par`] and
/// [`WeaklyHardProfile::measure_par`] are pure functions of that tuple,
/// their results are shared through [`std::sync::Arc`]s here.
///
/// Loss models whose [`LossModel::fingerprint`] returns `None` (exotic
/// models, or stateful ones that already mutated) bypass the cache: the
/// measurement still runs, it is just not stored.
#[derive(Debug, Default)]
pub struct StatCache {
    soft: netdag_runtime::Memo<SoftKey, SoftProfile>,
    weakly_hard: netdag_runtime::Memo<WeaklyHardKey, WeaklyHardProfile>,
}

impl StatCache {
    /// An empty cache.
    pub fn new() -> Self {
        StatCache::default()
    }

    /// Cached [`SoftProfile::measure_par`].
    ///
    /// # Errors
    ///
    /// See [`ProfileError`]; errors are never cached.
    #[allow(clippy::too_many_arguments)]
    pub fn soft_profile<L: LossModel + Clone + Sync>(
        &self,
        topo: &Topology,
        link: &L,
        initiator: NodeId,
        n_tx_range: std::ops::RangeInclusive<u32>,
        runs: u32,
        master_seed: u64,
        policy: ExecPolicy,
    ) -> Result<std::sync::Arc<SoftProfile>, ProfileError> {
        let computed = std::cell::Cell::new(false);
        let measure = || {
            computed.set(true);
            SoftProfile::measure_par(
                topo,
                link,
                initiator,
                n_tx_range.clone(),
                runs,
                master_seed,
                policy,
            )
        };
        match link.fingerprint() {
            Some(link_fp) => {
                let key = SoftKey {
                    topo: topo.fingerprint(),
                    link: link_fp,
                    initiator: initiator.0,
                    n_tx_min: *n_tx_range.start(),
                    n_tx_max: *n_tx_range.end(),
                    runs,
                    seed: master_seed,
                };
                let result = self.soft.get_or_try_insert_with(&key, measure);
                Self::count_lookup(computed.get());
                result
            }
            None => {
                netdag_obs::counter!(netdag_obs::keys::GLOSSY_CACHE_BYPASSES).incr();
                if link.stateful() {
                    // Distinguish "bypassed because the channel carries
                    // burst/churn state" from generic unfingerprintable
                    // models — the soak harness watches this key.
                    netdag_obs::counter!(netdag_obs::keys::GLOSSY_CACHE_BYPASSES_STATEFUL).incr();
                }
                measure().map(std::sync::Arc::new)
            }
        }
    }

    /// Cached [`WeaklyHardProfile::measure_par`].
    ///
    /// # Errors
    ///
    /// See [`ProfileError`]; errors are never cached.
    #[allow(clippy::too_many_arguments)]
    pub fn weakly_hard_profile<L: LossModel + Clone + Sync>(
        &self,
        topo: &Topology,
        link: &L,
        initiator: NodeId,
        n_tx_range: std::ops::RangeInclusive<u32>,
        window: u32,
        kappa: u32,
        safety_margin: u32,
        master_seed: u64,
        policy: ExecPolicy,
    ) -> Result<std::sync::Arc<WeaklyHardProfile>, ProfileError> {
        let computed = std::cell::Cell::new(false);
        let measure = || {
            computed.set(true);
            WeaklyHardProfile::measure_par(
                topo,
                link,
                initiator,
                n_tx_range.clone(),
                window,
                kappa,
                safety_margin,
                master_seed,
                policy,
            )
        };
        match link.fingerprint() {
            Some(link_fp) => {
                let key = WeaklyHardKey {
                    topo: topo.fingerprint(),
                    link: link_fp,
                    initiator: initiator.0,
                    n_tx_min: *n_tx_range.start(),
                    n_tx_max: *n_tx_range.end(),
                    window,
                    kappa,
                    safety_margin,
                    seed: master_seed,
                };
                let result = self.weakly_hard.get_or_try_insert_with(&key, measure);
                Self::count_lookup(computed.get());
                result
            }
            None => {
                netdag_obs::counter!(netdag_obs::keys::GLOSSY_CACHE_BYPASSES).incr();
                if link.stateful() {
                    // Distinguish "bypassed because the channel carries
                    // burst/churn state" from generic unfingerprintable
                    // models — the soak harness watches this key.
                    netdag_obs::counter!(netdag_obs::keys::GLOSSY_CACHE_BYPASSES_STATEFUL).incr();
                }
                measure().map(std::sync::Arc::new)
            }
        }
    }

    /// Mirrors one fingerprinted cache lookup into the global metrics
    /// recorder (a lookup that ran the measurement closure is a miss).
    fn count_lookup(computed: bool) {
        if computed {
            netdag_obs::counter!(netdag_obs::keys::GLOSSY_CACHE_MISSES).incr();
        } else {
            netdag_obs::counter!(netdag_obs::keys::GLOSSY_CACHE_HITS).incr();
        }
    }

    /// Aggregate hit/miss counters over both tables.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.soft.hits() + self.weakly_hard.hits(),
            misses: self.soft.misses() + self.weakly_hard.misses(),
            entries: self.soft.len() + self.weakly_hard.len(),
        }
    }

    /// Drops every cached profile (counters keep running).
    pub fn clear(&self) {
        self.soft.clear();
        self.weakly_hard.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Bernoulli, GilbertElliott, Perfect};
    use netdag_weakly_hard::order;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    #[test]
    fn soft_profile_monotone_and_sane() {
        let topo = Topology::line(4).unwrap();
        let link = Bernoulli::new(0.7).unwrap();
        let p =
            SoftProfile::measure_par(&topo, &link, NodeId(0), 1..=6, 300, 7, ExecPolicy::Serial)
                .unwrap();
        assert_eq!(p.n_tx_min(), 1);
        assert_eq!(p.n_tx_max(), 6);
        for n in 1..6 {
            assert!(p.lambda(n + 1) >= p.lambda(n));
        }
        // Out-of-range clamps.
        assert_eq!(p.lambda(0), p.lambda(1));
        assert_eq!(p.lambda(99), p.lambda(6));
        // A lossy line should not be perfect at N_TX = 1 but decent at 6.
        assert!(p.lambda(1) < 1.0);
        assert!(p.lambda(6) > p.lambda(1));
    }

    #[test]
    fn soft_profile_perfect_channel_is_one() {
        let topo = Topology::star(5).unwrap();
        let p = SoftProfile::measure_par(
            &topo,
            &Perfect::new(),
            NodeId(0),
            1..=3,
            50,
            8,
            ExecPolicy::Serial,
        )
        .unwrap();
        assert!(p.table().iter().all(|&s| s == 1.0));
    }

    #[test]
    fn soft_profile_validation() {
        let topo = Topology::line(2).unwrap();
        let measure = |range, runs, initiator| {
            SoftProfile::measure_par(
                &topo,
                &Perfect::new(),
                NodeId(initiator),
                range,
                runs,
                0,
                ExecPolicy::Serial,
            )
        };
        assert!(matches!(
            measure(0..=3, 10, 0),
            Err(ProfileError::BadNtxRange { .. })
        ));
        assert!(matches!(measure(1..=3, 0, 0), Err(ProfileError::NoRuns)));
        assert!(matches!(measure(1..=3, 5, 9), Err(ProfileError::Flood(_))));
    }

    #[test]
    fn soft_from_table_monotonizes() {
        let p = SoftProfile::from_table(1, vec![0.5, 0.4, 0.9]).unwrap();
        assert_eq!(p.table(), &[0.5, 0.5, 0.9]);
        assert!(SoftProfile::from_table(0, vec![0.5]).is_err());
        assert!(SoftProfile::from_table(1, vec![]).is_err());
    }

    #[test]
    fn weakly_hard_profile_monotone_in_preorder() {
        let topo = Topology::line(4).unwrap();
        let link = GilbertElliott::new(0.05, 0.3, 0.98, 0.3).unwrap();
        let p = WeaklyHardProfile::measure_par(
            &topo,
            &link,
            NodeId(0),
            1..=5,
            20,
            400,
            1,
            21,
            ExecPolicy::Serial,
        )
        .unwrap();
        assert_eq!(p.window(), 20);
        for n in 1..5 {
            let harder = p.lambda(n + 1);
            let easier = p.lambda(n);
            assert!(
                order::dominates(&harder, &easier).unwrap(),
                "λ({}) = {harder} must dominate λ({n}) = {easier}",
                n + 1
            );
        }
    }

    #[test]
    fn weakly_hard_from_table() {
        let p = WeaklyHardProfile::from_table(1, 10, vec![4, 6, 2]).unwrap();
        // Monotonized to non-increasing: [4, 4, 2].
        assert_eq!(p.miss_table(), &[4, 4, 2]);
        assert_eq!(p.lambda(2), Constraint::AnyMiss { m: 4, k: 10 });
        assert_eq!(p.lambda(0), p.lambda(1));
        assert_eq!(p.lambda(50), p.lambda(3));
        // Misses are capped at the window.
        let capped = WeaklyHardProfile::from_table(1, 5, vec![9]).unwrap();
        assert_eq!(capped.miss_table(), &[5]);
    }

    #[test]
    fn weakly_hard_validation() {
        assert!(WeaklyHardProfile::from_table(1, 0, vec![1]).is_err());
        assert!(WeaklyHardProfile::from_table(0, 5, vec![1]).is_err());
        assert!(WeaklyHardProfile::from_table(1, 5, vec![]).is_err());
    }

    #[test]
    fn perfect_channel_weakly_hard_allows_margin_only() {
        let topo = Topology::star(4).unwrap();
        let p = WeaklyHardProfile::measure_par(
            &topo,
            &Perfect::new(),
            NodeId(0),
            1..=2,
            10,
            100,
            1,
            4,
            ExecPolicy::Serial,
        )
        .unwrap();
        // No misses observed, so the table is exactly the safety margin.
        assert_eq!(p.miss_table(), &[1, 1]);
    }

    #[test]
    fn soft_measure_par_invariant_under_thread_count() {
        let topo = Topology::line(4).unwrap();
        let link = Bernoulli::new(0.7).unwrap();
        let serial =
            SoftProfile::measure_par(&topo, &link, NodeId(0), 1..=5, 600, 42, ExecPolicy::Serial)
                .unwrap();
        for threads in [2, 3, 8] {
            let par = SoftProfile::measure_par(
                &topo,
                &link,
                NodeId(0),
                1..=5,
                600,
                42,
                ExecPolicy::Threads(threads),
            )
            .unwrap();
            assert_eq!(serial.table(), par.table(), "threads = {threads}");
        }
    }

    #[test]
    fn weakly_hard_measure_par_invariant_under_thread_count() {
        let topo = Topology::star(5).unwrap();
        let link = GilbertElliott::new(0.05, 0.4, 0.95, 0.4).unwrap();
        let serial = WeaklyHardProfile::measure_par(
            &topo,
            &link,
            NodeId(0),
            1..=3,
            400,
            20,
            1,
            42,
            ExecPolicy::Serial,
        )
        .unwrap();
        for threads in [2, 8] {
            let par = WeaklyHardProfile::measure_par(
                &topo,
                &link,
                NodeId(0),
                1..=3,
                400,
                20,
                1,
                42,
                ExecPolicy::Threads(threads),
            )
            .unwrap();
            assert_eq!(serial.miss_table(), par.miss_table(), "threads = {threads}");
        }
    }

    #[test]
    fn profile_error_flood_is_structured() {
        use crate::flood::FloodError;
        use std::error::Error as _;
        let err = ProfileError::from(FloodError::ZeroNtx);
        assert!(matches!(err, ProfileError::Flood(FloodError::ZeroNtx)));
        // The flood error is reachable through source() for error-chain walkers.
        assert!(err.source().is_some());
    }

    #[test]
    fn stat_cache_hits_on_identical_requests() {
        let topo = Topology::line(4).unwrap();
        let link = Bernoulli::new(0.8).unwrap();
        let cache = StatCache::new();
        let a = cache
            .soft_profile(&topo, &link, NodeId(0), 1..=4, 200, 7, ExecPolicy::Serial)
            .unwrap();
        let b = cache
            .soft_profile(
                &topo,
                &link,
                NodeId(0),
                1..=4,
                200,
                7,
                ExecPolicy::Threads(4),
            )
            .unwrap();
        // Same key (ExecPolicy is excluded: thread count cannot change results).
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        // A different seed is a different key.
        let c = cache
            .soft_profile(&topo, &link, NodeId(0), 1..=4, 200, 8, ExecPolicy::Serial)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn stat_cache_bypasses_unfingerprintable_models() {
        let topo = Topology::line(4).unwrap();
        // Drive a Gilbert-Elliott model so it accumulates per-link state; its
        // fingerprint becomes None and the cache must recompute every call.
        let mut warm = GilbertElliott::new(0.1, 0.3, 0.9, 0.2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for n_tx in 1..=2 {
            simulate_flood(
                &topo,
                &mut warm,
                &FloodParams {
                    initiator: NodeId(0),
                    n_tx,
                },
                &mut rng,
            )
            .unwrap();
        }
        assert!(warm.fingerprint().is_none());
        assert!(warm.stateful());
        let cache = StatCache::new();
        let bypasses = netdag_obs::counter!(netdag_obs::keys::GLOSSY_CACHE_BYPASSES_STATEFUL).get();
        let a = cache
            .soft_profile(&topo, &warm, NodeId(0), 1..=3, 100, 7, ExecPolicy::Serial)
            .unwrap();
        let b = cache
            .soft_profile(&topo, &warm, NodeId(0), 1..=3, 100, 7, ExecPolicy::Serial)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 0);
        // Both lookups came from a stateful (burst) channel, so the
        // dedicated stateful-bypass counter moved with the generic one.
        assert!(
            netdag_obs::counter!(netdag_obs::keys::GLOSSY_CACHE_BYPASSES_STATEFUL).get()
                >= bypasses + 2
        );
    }

    #[test]
    fn stat_cache_weakly_hard_roundtrip() {
        let topo = Topology::star(4).unwrap();
        let link = Bernoulli::new(0.85).unwrap();
        let cache = StatCache::new();
        let a = cache
            .weakly_hard_profile(
                &topo,
                &link,
                NodeId(0),
                1..=3,
                200,
                10,
                1,
                9,
                ExecPolicy::Serial,
            )
            .unwrap();
        let b = cache
            .weakly_hard_profile(
                &topo,
                &link,
                NodeId(0),
                1..=3,
                200,
                10,
                1,
                9,
                ExecPolicy::Serial,
            )
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // The cached profile matches a direct serial measurement.
        let direct = WeaklyHardProfile::measure_par(
            &topo,
            &link,
            NodeId(0),
            1..=3,
            200,
            10,
            1,
            9,
            ExecPolicy::Serial,
        )
        .unwrap();
        assert_eq!(a.miss_table(), direct.miss_table());
    }
}
