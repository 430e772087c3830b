//! Metric kinds and online aggregation.
//!
//! The paper (§4.2) aggregates metrics of the same type within a calling
//! context *online* — "sum, minimum, average, and standard deviation" — so
//! that profile size depends on the number of distinct contexts, not the
//! number of events. [`MetricStat`] implements that aggregation with
//! Welford's algorithm; [`MetricStore`] maps metric kinds to stats at one
//! tree node.

use std::fmt;

use crate::interner::Sym;

/// Fine-grained GPU instruction stall reasons (paper §6.7).
///
/// Matches the taxonomy exposed by Nvidia/AMD instruction-sampling APIs and
/// consumed by the analyzer's fine-grained stall analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallReason {
    /// Waiting on a global/local memory dependency.
    MemoryDependency,
    /// Waiting on an arithmetic pipeline result (math dependency).
    MathDependency,
    /// Constant-memory (immediate constant cache) miss.
    ConstantMemory,
    /// Waiting on a prior instruction of the same warp.
    ExecutionDependency,
    /// Memory pipe throttled.
    MemoryThrottle,
    /// Warp eligible but not selected by the scheduler.
    NotSelected,
    /// Barrier / synchronization wait.
    Synchronization,
    /// Instruction fetch stall.
    InstructionFetch,
    /// No stall (issued).
    None,
    /// Anything else.
    Other,
}

impl StallReason {
    /// All reasons, for iteration and reporting.
    pub const ALL: [StallReason; 10] = [
        StallReason::MemoryDependency,
        StallReason::MathDependency,
        StallReason::ConstantMemory,
        StallReason::ExecutionDependency,
        StallReason::MemoryThrottle,
        StallReason::NotSelected,
        StallReason::Synchronization,
        StallReason::InstructionFetch,
        StallReason::None,
        StallReason::Other,
    ];

    pub(crate) fn code(self) -> u8 {
        match self {
            StallReason::MemoryDependency => 0,
            StallReason::MathDependency => 1,
            StallReason::ConstantMemory => 2,
            StallReason::ExecutionDependency => 3,
            StallReason::MemoryThrottle => 4,
            StallReason::NotSelected => 5,
            StallReason::Synchronization => 6,
            StallReason::InstructionFetch => 7,
            StallReason::None => 8,
            StallReason::Other => 9,
        }
    }

    pub(crate) fn from_code(code: u8) -> Option<Self> {
        StallReason::ALL.into_iter().find(|r| r.code() == code)
    }
}

/// How many kinds count *occurrences* — every sample is the value `1.0` —
/// and so have a [`unit column`](MetricKind::unit_column): launches,
/// instruction samples and one per stall reason.
pub(crate) const UNIT_COLUMNS: usize = 2 + StallReason::ALL.len();

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallReason::MemoryDependency => "memory_dependency",
            StallReason::MathDependency => "math_dependency",
            StallReason::ConstantMemory => "constant_memory",
            StallReason::ExecutionDependency => "execution_dependency",
            StallReason::MemoryThrottle => "memory_throttle",
            StallReason::NotSelected => "not_selected",
            StallReason::Synchronization => "synchronization",
            StallReason::InstructionFetch => "instruction_fetch",
            StallReason::None => "issued",
            StallReason::Other => "other",
        };
        f.write_str(s)
    }
}

/// The type of a performance metric attributed to a calling context.
///
/// Coarse-grained kinds (times, launches, occupancy, memory) come from the
/// GPU callback/activity APIs and CPU sampling; fine-grained kinds (stall
/// samples) come from instruction sampling.
///
/// The `Ord` order is arbitrary but stable — [`MetricStore`] keeps its
/// entries sorted by it so lookups can binary-search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricKind {
    /// GPU kernel execution time, nanoseconds.
    GpuTime,
    /// Count of GPU kernel launches.
    KernelLaunches,
    /// Bytes moved by memcpy operations.
    MemcpyBytes,
    /// GPU memcpy time, nanoseconds.
    MemcpyTime,
    /// Bytes allocated on device.
    GpuAllocBytes,
    /// Shared memory per block, bytes.
    SharedMemPerBlock,
    /// Registers per thread.
    RegistersPerThread,
    /// Achieved occupancy (0..=1 per kernel instance).
    Occupancy,
    /// Number of warps per launch.
    Warps,
    /// Number of blocks (CTAs) per launch.
    Blocks,
    /// CPU time, nanoseconds (from CPU_TIME sampling).
    CpuTime,
    /// Wall-clock time, nanoseconds (from REAL_TIME sampling).
    RealTime,
    /// Hardware-counter: retired instructions.
    HwInstructions,
    /// Hardware-counter: cache misses.
    HwCacheMisses,
    /// Hardware-counter: branch mispredictions.
    HwBranchMisses,
    /// GPU instruction samples (count).
    InstructionSamples,
    /// Profiler events an overloaded ingestion queue discarded, under a
    /// synthetic `<dropped>` context. Nothing in this tree produces it
    /// any more (the queues are gone); the kind and its container tag
    /// stay so profiles saved before that still load.
    DroppedEvents,
    /// Profiler events lost to a quarantined ingestion worker, under a
    /// synthetic `<poisoned>` context. Kept, like
    /// [`DroppedEvents`](Self::DroppedEvents), for stored profiles only.
    PoisonedEvents,
    /// GPU instruction samples stalled for a specific reason (count).
    Stall(StallReason),
    /// A user-defined metric named by an interned symbol.
    Custom(Sym),
}

impl MetricKind {
    /// Returns `true` for metric kinds measured in nanoseconds.
    pub fn is_time(self) -> bool {
        matches!(
            self,
            MetricKind::GpuTime
                | MetricKind::MemcpyTime
                | MetricKind::CpuTime
                | MetricKind::RealTime
        )
    }

    /// The column an occurrence-counting kind has in a shard's table of
    /// unsettled integer counts, ascending in `MetricKind` order; `None`
    /// for every measured kind (and for `DroppedEvents` /
    /// `PoisonedEvents`, whose one sample carries a count as its value).
    pub(crate) fn unit_column(self) -> Option<usize> {
        match self {
            MetricKind::KernelLaunches => Some(0),
            MetricKind::InstructionSamples => Some(1),
            MetricKind::Stall(reason) => Some(2 + usize::from(reason.code())),
            _ => None,
        }
    }

    /// The inverse of [`unit_column`](Self::unit_column).
    pub(crate) fn from_unit_column(column: usize) -> Option<Self> {
        match column {
            0 => Some(MetricKind::KernelLaunches),
            1 => Some(MetricKind::InstructionSamples),
            // `ALL` is in code order (the bijection test holds it to that).
            _ => StallReason::ALL
                .get(column - 2)
                .copied()
                .map(MetricKind::Stall),
        }
    }

    /// Short stable name used in reports and the profile database.
    pub fn name(self) -> String {
        match self {
            MetricKind::GpuTime => "gpu_time".into(),
            MetricKind::KernelLaunches => "kernel_launches".into(),
            MetricKind::MemcpyBytes => "memcpy_bytes".into(),
            MetricKind::MemcpyTime => "memcpy_time".into(),
            MetricKind::GpuAllocBytes => "gpu_alloc_bytes".into(),
            MetricKind::SharedMemPerBlock => "shared_mem_per_block".into(),
            MetricKind::RegistersPerThread => "registers_per_thread".into(),
            MetricKind::Occupancy => "occupancy".into(),
            MetricKind::Warps => "warps".into(),
            MetricKind::Blocks => "blocks".into(),
            MetricKind::CpuTime => "cpu_time".into(),
            MetricKind::RealTime => "real_time".into(),
            MetricKind::HwInstructions => "hw_instructions".into(),
            MetricKind::HwCacheMisses => "hw_cache_misses".into(),
            MetricKind::HwBranchMisses => "hw_branch_misses".into(),
            MetricKind::InstructionSamples => "instruction_samples".into(),
            MetricKind::DroppedEvents => "dropped_events".into(),
            MetricKind::PoisonedEvents => "poisoned_events".into(),
            MetricKind::Stall(r) => format!("stall.{r}"),
            MetricKind::Custom(sym) => format!("custom.{}", sym.index()),
        }
    }

    /// Appends the kind's record (a tag letter and a code) to `out`.
    pub(crate) fn write_record(self, out: &mut impl fmt::Write) {
        let _ = match self {
            MetricKind::Stall(r) => write!(out, "S{}", r.code()),
            MetricKind::Custom(sym) => write!(out, "C{}", sym.index()),
            other => write!(out, "B{}", other.base_code()),
        };
    }

    pub(crate) fn from_record(s: &str) -> Result<Self, crate::CoreError> {
        let (tag, rest) = s.split_at(1.min(s.len()));
        let n: u32 = rest
            .parse()
            .map_err(|e| crate::CoreError::parse(format!("bad metric kind {s:?}: {e}")))?;
        match tag {
            "S" => StallReason::from_code(n as u8)
                .map(MetricKind::Stall)
                .ok_or_else(|| crate::CoreError::parse(format!("bad stall code {n}"))),
            "C" => Ok(MetricKind::Custom(Sym(n))),
            "B" => MetricKind::from_base_code(n as u8)
                .ok_or_else(|| crate::CoreError::parse(format!("bad metric code {n}"))),
            other => Err(crate::CoreError::parse(format!("bad metric tag {other:?}"))),
        }
    }

    fn base_code(self) -> u8 {
        match self {
            MetricKind::GpuTime => 0,
            MetricKind::KernelLaunches => 1,
            MetricKind::MemcpyBytes => 2,
            MetricKind::MemcpyTime => 3,
            MetricKind::GpuAllocBytes => 4,
            MetricKind::SharedMemPerBlock => 5,
            MetricKind::RegistersPerThread => 6,
            MetricKind::Occupancy => 7,
            MetricKind::Warps => 8,
            MetricKind::Blocks => 9,
            MetricKind::CpuTime => 10,
            MetricKind::RealTime => 11,
            MetricKind::HwInstructions => 12,
            MetricKind::HwCacheMisses => 13,
            MetricKind::HwBranchMisses => 14,
            MetricKind::InstructionSamples => 15,
            MetricKind::DroppedEvents => 16,
            MetricKind::PoisonedEvents => 17,
            MetricKind::Stall(_) | MetricKind::Custom(_) => unreachable!("encoded separately"),
        }
    }

    fn from_base_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => MetricKind::GpuTime,
            1 => MetricKind::KernelLaunches,
            2 => MetricKind::MemcpyBytes,
            3 => MetricKind::MemcpyTime,
            4 => MetricKind::GpuAllocBytes,
            5 => MetricKind::SharedMemPerBlock,
            6 => MetricKind::RegistersPerThread,
            7 => MetricKind::Occupancy,
            8 => MetricKind::Warps,
            9 => MetricKind::Blocks,
            10 => MetricKind::CpuTime,
            11 => MetricKind::RealTime,
            12 => MetricKind::HwInstructions,
            13 => MetricKind::HwCacheMisses,
            14 => MetricKind::HwBranchMisses,
            15 => MetricKind::InstructionSamples,
            16 => MetricKind::DroppedEvents,
            17 => MetricKind::PoisonedEvents,
            _ => return None,
        })
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Online aggregate of one metric kind at one calling context.
///
/// Maintains count, sum, min, max, and mean/variance via Welford's
/// algorithm, so adding a sample is O(1) and no per-event storage is
/// retained — the core of the paper's memory-overhead advantage over
/// trace-based profilers.
///
/// # Examples
///
/// ```
/// use deepcontext_core::MetricStat;
///
/// let mut stat = MetricStat::new();
/// for v in [2.0, 4.0, 6.0] {
///     stat.add(v);
/// }
/// assert_eq!(stat.count, 3);
/// assert_eq!(stat.sum, 12.0);
/// assert_eq!(stat.min, 2.0);
/// assert_eq!(stat.max, 6.0);
/// assert!((stat.mean() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricStat {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest sample (`f64::NEG_INFINITY` when empty).
    pub max: f64,
    mean: f64,
    m2: f64,
}

impl MetricStat {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        MetricStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
        }
    }

    /// The aggregate of `n` samples of the value `1.0`, field for field
    /// what `n` [`add`](Self::add)s leave (every delta is zero, so mean
    /// stays `1.0` and `m2` stays `0`).
    pub(crate) fn units(n: u64) -> Self {
        if n == 0 {
            return MetricStat::new();
        }
        MetricStat {
            count: n,
            sum: n as f64,
            min: 1.0,
            max: 1.0,
            mean: 1.0,
            m2: 0.0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Merges another aggregate into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &MetricStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The aggregate of the samples added to `new` since it looked like
    /// `old` — the inverse of [`merge`](Self::merge), valid only for
    /// *append-only* histories (`new` is `old` plus further `add`s, which
    /// is how CCT nodes evolve during profiling). Merging the returned
    /// stat into any aggregate that already contains `old`'s samples
    /// yields the aggregate of `new`'s samples: count and sum are exact;
    /// min/max carry `new`'s bounds (correct because `new`'s extrema
    /// subsume `old`'s); mean and variance are recovered by inverting the
    /// parallel Welford merge, exact up to f64 rounding.
    pub fn delta_since(new: &MetricStat, old: &MetricStat) -> MetricStat {
        if old.count == 0 {
            return *new;
        }
        debug_assert!(
            old.count <= new.count,
            "delta_since needs append-only stats"
        );
        let count = new.count.saturating_sub(old.count);
        if count == 0 {
            return MetricStat::new();
        }
        let sum = new.sum - old.sum;
        let mean = sum / count as f64;
        let delta = mean - old.mean;
        let m2 = (new.m2
            - old.m2
            - delta * delta * (old.count as f64) * (count as f64) / (new.count as f64))
            .max(0.0);
        MetricStat {
            count,
            sum,
            min: new.min,
            max: new.max,
            mean,
            m2,
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 for fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Whether no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends the six tab-separated fields of the aggregate to `out`.
    pub(crate) fn write_record(self, out: &mut impl fmt::Write) {
        let _ = write!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            self.count, self.sum, self.min, self.max, self.mean, self.m2
        );
    }

    pub(crate) fn from_record_fields<'a>(
        mut fields: impl Iterator<Item = &'a str>,
    ) -> Result<Self, crate::CoreError> {
        let mut next_f64 = |what: &str| -> Result<f64, crate::CoreError> {
            fields
                .next()
                .ok_or_else(|| crate::CoreError::parse(format!("missing {what}")))?
                .parse::<f64>()
                .map_err(|e| crate::CoreError::parse(format!("bad {what}: {e}")))
        };
        let count = next_f64("count")? as u64;
        let sum = next_f64("sum")?;
        let min = next_f64("min")?;
        let max = next_f64("max")?;
        let mean = next_f64("mean")?;
        let m2 = next_f64("m2")?;
        Ok(MetricStat {
            count,
            sum,
            min,
            max,
            mean,
            m2,
        })
    }
}

/// Per-node map from metric kind to aggregate.
///
/// Stored as a small vector kept **sorted by kind**: nodes typically carry
/// only a handful of metric kinds, so a `HashMap` per node would waste
/// memory, and the sorted layout lets every lookup binary-search instead
/// of scanning — attribution touches this map once per event, so at the
/// ~10-kind scale the store stays allocation-free on lookups and pays at
/// most one small `memmove` when a node sees a brand-new kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricStore {
    entries: Vec<(MetricKind, MetricStat)>,
}

impl MetricStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of `kind` (`Ok`) or its sorted insertion point (`Err`).
    #[inline]
    fn position(&self, kind: MetricKind) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(&kind))
    }

    /// Adds a sample of `kind`.
    pub fn add(&mut self, kind: MetricKind, value: f64) {
        match self.position(kind) {
            Ok(i) => self.entries[i].1.add(value),
            Err(i) => {
                let mut stat = MetricStat::new();
                stat.add(value);
                self.entries.insert(i, (kind, stat));
            }
        }
    }

    /// [`add`](Self::add)s every sample of `run`, kinds ascending, with one
    /// search when the store holds exactly those kinds side by side.
    pub fn add_run(&mut self, run: &[(MetricKind, f64)]) {
        let at = run
            .first()
            .and_then(|(first, _)| self.position(*first).ok());
        match at.and_then(|at| self.entries.get_mut(at..at + run.len())) {
            Some(held) if held.iter().zip(run).all(|(h, r)| h.0 == r.0) => {
                held.iter_mut().zip(run).for_each(|(h, r)| h.1.add(r.1));
            }
            _ => run.iter().for_each(|(kind, value)| self.add(*kind, *value)),
        }
    }

    /// Merges a whole aggregate of `kind` (used by CCT merging).
    pub fn merge_stat(&mut self, kind: MetricKind, other: &MetricStat) {
        match self.position(kind) {
            Ok(i) => self.entries[i].1.merge(other),
            Err(i) => self.entries.insert(i, (kind, *other)),
        }
    }

    /// Merges all aggregates from `other`.
    pub fn merge(&mut self, other: &MetricStore) {
        for (kind, stat) in &other.entries {
            self.merge_stat(*kind, stat);
        }
    }

    /// Merges only what `new` accumulated since it looked like `old`
    /// (see [`MetricStat::delta_since`]). `old` must be an earlier state
    /// of the *same* store: kinds never disappear and per-kind histories
    /// are append-only. Kinds whose sample count did not advance are
    /// skipped entirely, making repeated incremental folds of a mostly
    /// quiet store O(changed kinds).
    pub fn merge_delta(&mut self, new: &MetricStore, old: &MetricStore) {
        for (kind, stat) in &new.entries {
            match old.get(*kind) {
                None => self.merge_stat(*kind, stat),
                Some(o) if o.count == stat.count => {}
                Some(o) => self.merge_stat(*kind, &MetricStat::delta_since(stat, o)),
            }
        }
    }

    /// The aggregate for `kind`, if any samples were recorded.
    pub fn get(&self, kind: MetricKind) -> Option<&MetricStat> {
        self.position(kind).ok().map(|i| &self.entries[i].1)
    }

    /// Sum for `kind`, or 0 if absent (the most common query).
    pub fn sum(&self, kind: MetricKind) -> f64 {
        self.get(kind).map(|s| s.sum).unwrap_or(0.0)
    }

    /// Sample count for `kind`, or 0 if absent.
    pub fn count(&self, kind: MetricKind) -> u64 {
        self.get(kind).map(|s| s.count).unwrap_or(0)
    }

    /// Iterates (kind, stat) pairs in kind-sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricKind, &MetricStat)> {
        self.entries.iter().map(|(k, s)| (*k, s))
    }

    /// Number of distinct metric kinds recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metrics are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate heap bytes (for memory-overhead accounting).
    pub fn approx_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(MetricKind, MetricStat)>()
    }
}

impl FromIterator<(MetricKind, MetricStat)> for MetricStore {
    fn from_iter<I: IntoIterator<Item = (MetricKind, MetricStat)>>(iter: I) -> Self {
        let mut store = MetricStore::new();
        for (kind, stat) in iter {
            store.merge_stat(kind, &stat);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_stddev(values: &[f64]) -> f64 {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt()
    }

    #[test]
    fn stat_tracks_count_sum_min_max() {
        let mut s = MetricStat::new();
        assert!(s.is_empty());
        for v in [5.0, 1.0, 3.0] {
            s.add(v);
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 9.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_naive_stddev() {
        let values = [3.0, 7.0, 7.0, 19.0, 24.0, 1.5];
        let mut s = MetricStat::new();
        for v in values {
            s.add(v);
        }
        assert!((s.stddev() - naive_stddev(&values)).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_single_stream() {
        let values = [1.0, 2.0, 3.0, 10.0, 20.0, 30.0, -5.0];
        let mut whole = MetricStat::new();
        for v in values {
            whole.add(v);
        }
        let mut a = MetricStat::new();
        let mut b = MetricStat::new();
        for (i, v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.add(*v);
            } else {
                b.add(*v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        assert!((a.sum - whole.sum).abs() < 1e-9);
        assert_eq!(a.min, whole.min);
        assert_eq!(a.max, whole.max);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MetricStat::new();
        a.add(4.0);
        let before = a;
        a.merge(&MetricStat::new());
        assert_eq!(a, before);

        let mut empty = MetricStat::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn delta_since_recovers_the_appended_samples() {
        let mut old = MetricStat::new();
        for v in [4.0, 9.0, 1.0] {
            old.add(v);
        }
        let mut new = old;
        for v in [7.0, 0.5, 12.0] {
            new.add(v);
        }
        let delta = MetricStat::delta_since(&new, &old);
        assert_eq!(delta.count, 3);
        assert_eq!(delta.sum, 19.5);

        // Folding old + delta into a third aggregate matches folding new.
        let mut base = MetricStat::new();
        base.add(100.0);
        let mut via_delta = base;
        via_delta.merge(&old);
        via_delta.merge(&delta);
        let mut direct = base;
        direct.merge(&new);
        assert_eq!(via_delta.count, direct.count);
        assert_eq!(via_delta.sum, direct.sum);
        assert_eq!(via_delta.min, direct.min);
        assert_eq!(via_delta.max, direct.max);
        assert!((via_delta.mean() - direct.mean()).abs() < 1e-9);
        assert!((via_delta.stddev() - direct.stddev()).abs() < 1e-9);
    }

    #[test]
    fn delta_since_empty_old_is_new_and_unchanged_is_empty() {
        let mut new = MetricStat::new();
        new.add(3.0);
        assert_eq!(MetricStat::delta_since(&new, &MetricStat::new()), new);
        assert!(MetricStat::delta_since(&new, &new).is_empty());
    }

    #[test]
    fn store_merge_delta_folds_only_advanced_kinds() {
        let mut old = MetricStore::new();
        old.add(MetricKind::GpuTime, 10.0);
        old.add(MetricKind::Warps, 32.0);
        let mut new = old.clone();
        new.add(MetricKind::GpuTime, 5.0);
        new.add(MetricKind::CpuTime, 2.0); // kind born after `old`

        let mut dest = MetricStore::new();
        dest.merge(&old);
        dest.merge_delta(&new, &old);

        let mut direct = MetricStore::new();
        direct.merge(&new);
        assert_eq!(
            dest.sum(MetricKind::GpuTime),
            direct.sum(MetricKind::GpuTime)
        );
        assert_eq!(
            dest.count(MetricKind::GpuTime),
            direct.count(MetricKind::GpuTime)
        );
        assert_eq!(dest.sum(MetricKind::Warps), 32.0);
        assert_eq!(dest.sum(MetricKind::CpuTime), 2.0);
        assert_eq!(dest.len(), direct.len());
    }

    #[test]
    fn stddev_of_single_sample_is_zero() {
        let mut s = MetricStat::new();
        s.add(42.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn store_separates_kinds() {
        let mut store = MetricStore::new();
        store.add(MetricKind::GpuTime, 10.0);
        store.add(MetricKind::GpuTime, 20.0);
        store.add(MetricKind::CpuTime, 5.0);
        store.add(MetricKind::Stall(StallReason::ConstantMemory), 1.0);
        assert_eq!(store.sum(MetricKind::GpuTime), 30.0);
        assert_eq!(store.count(MetricKind::GpuTime), 2);
        assert_eq!(store.sum(MetricKind::CpuTime), 5.0);
        assert_eq!(
            store.sum(MetricKind::Stall(StallReason::ConstantMemory)),
            1.0
        );
        assert_eq!(
            store.sum(MetricKind::Stall(StallReason::MathDependency)),
            0.0
        );
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn store_merge_combines() {
        let mut a = MetricStore::new();
        a.add(MetricKind::GpuTime, 1.0);
        let mut b = MetricStore::new();
        b.add(MetricKind::GpuTime, 2.0);
        b.add(MetricKind::Warps, 32.0);
        a.merge(&b);
        assert_eq!(a.sum(MetricKind::GpuTime), 3.0);
        assert_eq!(a.sum(MetricKind::Warps), 32.0);
    }

    #[test]
    fn metric_kind_record_round_trip() {
        let i = crate::Interner::new();
        let custom = MetricKind::Custom(i.intern("my_metric"));
        let kinds = [
            MetricKind::GpuTime,
            MetricKind::KernelLaunches,
            MetricKind::MemcpyBytes,
            MetricKind::MemcpyTime,
            MetricKind::GpuAllocBytes,
            MetricKind::SharedMemPerBlock,
            MetricKind::RegistersPerThread,
            MetricKind::Occupancy,
            MetricKind::Warps,
            MetricKind::Blocks,
            MetricKind::CpuTime,
            MetricKind::RealTime,
            MetricKind::HwInstructions,
            MetricKind::HwCacheMisses,
            MetricKind::HwBranchMisses,
            MetricKind::InstructionSamples,
            MetricKind::DroppedEvents,
            MetricKind::PoisonedEvents,
            MetricKind::Stall(StallReason::MathDependency),
            custom,
        ];
        for k in kinds {
            let mut rec = String::new();
            k.write_record(&mut rec);
            assert_eq!(MetricKind::from_record(&rec).unwrap(), k, "record {rec:?}");
        }
    }

    #[test]
    fn store_entries_stay_sorted_regardless_of_insertion_order() {
        let i = crate::Interner::new();
        let kinds = [
            MetricKind::Stall(StallReason::Other),
            MetricKind::GpuTime,
            MetricKind::Custom(i.intern("late")),
            MetricKind::CpuTime,
            MetricKind::DroppedEvents,
            MetricKind::Stall(StallReason::MemoryDependency),
        ];
        let mut forward = MetricStore::new();
        for k in kinds {
            forward.add(k, 1.0);
        }
        let mut backward = MetricStore::new();
        for k in kinds.iter().rev() {
            backward.add(*k, 1.0);
        }
        let fwd: Vec<MetricKind> = forward.iter().map(|(k, _)| k).collect();
        let bwd: Vec<MetricKind> = backward.iter().map(|(k, _)| k).collect();
        assert_eq!(fwd, bwd, "iteration order is insertion-independent");
        assert!(fwd.windows(2).all(|w| w[0] < w[1]), "sorted by kind");
        for k in kinds {
            assert_eq!(forward.get(k).map(|s| s.count), Some(1));
        }
        assert_eq!(forward.get(MetricKind::RealTime), None);
    }

    #[test]
    fn unit_columns_are_a_bijection_onto_the_counting_kinds() {
        let i = crate::Interner::new();
        let counting: Vec<MetricKind> =
            [MetricKind::KernelLaunches, MetricKind::InstructionSamples]
                .into_iter()
                .chain(StallReason::ALL.map(MetricKind::Stall))
                .collect();
        assert_eq!(counting.len(), UNIT_COLUMNS, "a new reason needs a column");
        for (column, kind) in counting.iter().enumerate() {
            assert_eq!(kind.unit_column(), Some(column), "ascending, no alias");
            assert_eq!(MetricKind::from_unit_column(column), Some(*kind));
        }
        assert!(counting.windows(2).all(|w| w[0] < w[1]), "in store order");
        assert_eq!(MetricKind::from_unit_column(UNIT_COLUMNS), None);
        let measured = (0..18)
            .filter_map(MetricKind::from_base_code)
            .chain([MetricKind::Custom(i.intern("mine"))])
            .filter(|kind| !counting.contains(kind));
        assert_eq!(measured.clone().count(), 18 - 2 + 1, "base kinds + custom");
        for kind in measured {
            assert_eq!(kind.unit_column(), None, "{kind} carries values");
        }
    }

    #[test]
    fn units_is_what_that_many_adds_of_one_leave() {
        assert_eq!(MetricStat::units(0), MetricStat::new());
        for n in [1u64, 2, 3, 1000] {
            let mut added = MetricStat::new();
            (0..n).for_each(|_| added.add(1.0));
            assert_eq!(MetricStat::units(n), added);
            // ... and merging it is adding them: bit-equal, not close.
            let mut merged = MetricStat::units(7);
            merged.merge(&MetricStat::units(n));
            (0..7).for_each(|_| added.add(1.0));
            assert_eq!(merged, added);
        }
    }

    #[test]
    fn stall_reason_codes_round_trip() {
        for r in StallReason::ALL {
            assert_eq!(StallReason::from_code(r.code()), Some(r));
        }
    }
}
