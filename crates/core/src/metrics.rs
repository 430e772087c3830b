//! Metric kinds and online aggregation.
//!
//! The paper (§4.2) aggregates metrics of the same type within a calling
//! context *online* — "sum, minimum, average, and standard deviation" — so
//! that profile size depends on the number of distinct contexts, not the
//! number of events. [`MetricStat`] implements that aggregation as count,
//! sum, min and max (the average is their quotient; the standard deviation
//! is not kept); [`MetricStore`] maps metric kinds to stats at one tree
//! node.
//!
//! Most entries of a store count *occurrences* — launches, instruction
//! samples, stalls — whose stat is `n` samples of `1.0`. Such an entry is
//! one 8-byte word; any other stat is five, as large as a `(MetricKind,
//! MetricStat)` pair. The form follows the value on every write, not the
//! kind, so a store returns bit for bit what was merged into it.

use std::cmp::Ordering;
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

    pub(crate) const fn code(self) -> u8 {
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
/// Coarse-grained kinds (times, launches, memory) come from the
/// GPU callback/activity APIs and CPU sampling; fine-grained kinds (stall
/// samples) come from instruction sampling.
///
/// The `Ord` order is arbitrary but stable — [`MetricStore`] keeps its
/// entries sorted by it, and iterates and saves them in it.
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
    /// GPU instruction samples stalled for a specific reason (count).
    Stall(StallReason),
    /// A user-defined metric named by an interned symbol.
    Custom(Sym),
}

impl MetricKind {
    /// The column an occurrence-counting kind has in a shard row's
    /// unsettled integer counters, and in a store's one-word unit entry,
    /// ascending in `MetricKind` order; `None` for every measured kind.
    #[inline]
    pub(crate) fn unit_column(self) -> Option<usize> {
        match self {
            MetricKind::KernelLaunches => Some(0),
            MetricKind::InstructionSamples => Some(1),
            MetricKind::Stall(reason) => Some(2 + usize::from(reason.code())),
            _ => None,
        }
    }

    /// The inverse of [`unit_column`](Self::unit_column).
    #[inline]
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

    /// A number ordered as the kinds are: the base code (ascending in
    /// that order too), or a tag above every base code with the stall
    /// code or symbol below it. A full store entry's header holds it.
    #[inline(always)]
    const fn key(self) -> u64 {
        match self {
            MetricKind::Stall(reason) => (STALL_KEY << 32) | reason.code() as u64,
            MetricKind::Custom(sym) => (CUSTOM_KEY << 32) | sym.0 as u64,
            plain => (plain.base_code() as u64) << 32,
        }
    }

    /// The inverse of [`key`](Self::key).
    #[inline]
    fn from_key(key: u64) -> Self {
        let payload = key as u32;
        match key >> 32 {
            STALL_KEY => MetricKind::Stall(StallReason::ALL[payload as usize]),
            CUSTOM_KEY => MetricKind::Custom(Sym(payload)),
            code => MetricKind::from_base_code(code as u8).expect("a kind's key"),
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
            MetricKind::CpuTime => "cpu_time".into(),
            MetricKind::RealTime => "real_time".into(),
            MetricKind::HwInstructions => "hw_instructions".into(),
            MetricKind::HwCacheMisses => "hw_cache_misses".into(),
            MetricKind::HwBranchMisses => "hw_branch_misses".into(),
            MetricKind::InstructionSamples => "instruction_samples".into(),
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

    /// The code of a `B` record; ascending in `Ord` order, which
    /// [`key`](Self::key) relies on.
    const fn base_code(self) -> u8 {
        match self {
            MetricKind::GpuTime => 0,
            MetricKind::KernelLaunches => 1,
            MetricKind::MemcpyBytes => 2,
            MetricKind::MemcpyTime => 3,
            MetricKind::GpuAllocBytes => 4,
            MetricKind::CpuTime => 10,
            MetricKind::RealTime => 11,
            MetricKind::HwInstructions => 12,
            MetricKind::HwCacheMisses => 13,
            MetricKind::HwBranchMisses => 14,
            MetricKind::InstructionSamples => 15,
            MetricKind::Stall(_) | MetricKind::Custom(_) => panic!("encoded separately"),
        }
    }

    fn from_base_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => MetricKind::GpuTime,
            1 => MetricKind::KernelLaunches,
            2 => MetricKind::MemcpyBytes,
            3 => MetricKind::MemcpyTime,
            4 => MetricKind::GpuAllocBytes,
            10 => MetricKind::CpuTime,
            11 => MetricKind::RealTime,
            12 => MetricKind::HwInstructions,
            13 => MetricKind::HwCacheMisses,
            14 => MetricKind::HwBranchMisses,
            15 => MetricKind::InstructionSamples,
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
/// Holds count, sum, min and max, so adding a sample is O(1) and no
/// per-event storage is retained — the core of the paper's
/// memory-overhead advantage over trace-based profilers. The mean is
/// `sum / count`. Merging is plain addition and comparison: for samples
/// that are integers or multiples of a power of two (every kind the
/// runtime produces) it is exact in any order while a sum stays under
/// 2^53 units.
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
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricStat {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest sample (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl Default for MetricStat {
    fn default() -> Self {
        MetricStat::new()
    }
}

impl MetricStat {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        MetricStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The aggregate of `n` samples of the value `1.0`, field for field
    /// what `n` [`add`](Self::add)s leave.
    #[inline]
    pub(crate) fn units(n: u64) -> Self {
        if n == 0 {
            return MetricStat::new();
        }
        MetricStat {
            count: n,
            sum: n as f64,
            min: 1.0,
            max: 1.0,
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
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &MetricStat) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Whether no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends the four tab-separated fields of the aggregate to `out`.
    pub(crate) fn write_record(self, out: &mut impl fmt::Write) {
        let _ = write!(
            out,
            "{}\t{}\t{}\t{}",
            self.count, self.sum, self.min, self.max
        );
    }

    /// Reads the three floating-point fields that follow `count` in a
    /// [`write_record`](Self::write_record) record.
    pub(crate) fn from_record_fields<'a>(
        count: u64,
        mut fields: impl Iterator<Item = &'a str>,
    ) -> Result<Self, crate::CoreError> {
        let mut next_f64 = |what: &str| -> Result<f64, crate::CoreError> {
            fields
                .next()
                .ok_or_else(|| crate::CoreError::parse(format!("missing {what}")))?
                .parse::<f64>()
                .map_err(|e| crate::CoreError::parse(format!("bad {what}: {e}")))
        };
        Ok(MetricStat {
            count,
            sum: next_f64("sum")?,
            min: next_f64("min")?,
            max: next_f64("max")?,
        })
    }
}

/// The [`key`](MetricKind::key) tags of the kinds with a payload.
const STALL_KEY: u64 = 16;
const CUSTOM_KEY: u64 = 17;

/// The form bit of an entry's first word: set in a unit entry.
const UNIT: u64 = 1;
/// A unit entry's count sits above its form bit and unit column.
const COUNT_SHIFT: u32 = 8;
/// A unit entry holds counts below 2^56.
const UNIT_LIMIT: u64 = 1 << (u64::BITS - COUNT_SHIFT);
/// Unit sums up to 2^53 are exact, so adding counts adds the sums.
const EXACT_UNITS: u64 = 1 << f64::MANTISSA_DIGITS;
/// Words in a full entry: the header, then count, sum, min and max.
const FULL: usize = 5;

/// Each unit column's kind [`key`](MetricKind::key), padded to the four
/// bits a column is read from.
const UNIT_KEYS: [u64; 16] = {
    assert!(UNIT_COLUMNS <= 16);
    let mut keys = [0; 16];
    keys[0] = MetricKind::KernelLaunches.key();
    keys[1] = MetricKind::InstructionSamples.key();
    let mut reason = 0;
    while reason < StallReason::ALL.len() {
        keys[2 + reason] = MetricKind::Stall(StallReason::ALL[reason]).key();
        reason += 1;
    }
    keys
};

/// The kind key and the width in words of the entry `head` starts.
#[inline(always)]
fn head_key(head: u64) -> (u64, usize) {
    if head & UNIT != 0 {
        (UNIT_KEYS[(head >> 1) as usize & 0xf], 1)
    } else {
        (head >> 1, FULL)
    }
}

/// The stat of the entry at the start of `words`.
#[inline(always)]
fn decode_stat(words: &[u64]) -> MetricStat {
    match *words {
        [head, ..] if head & UNIT != 0 => MetricStat::units(head >> COUNT_SHIFT),
        [_, count, sum, min, max, ..] => MetricStat {
            count,
            sum: f64::from_bits(sum),
            min: f64::from_bits(min),
            max: f64::from_bits(max),
        },
        _ => unreachable!("a full entry is {FULL} words"),
    }
}

/// `kind`'s entry holding `stat`, and its width: one word when the stat
/// is bit for bit [`MetricStat::units`] of a count the word holds, five
/// otherwise.
#[inline]
fn encode(kind: MetricKind, stat: &MetricStat) -> ([u64; FULL], usize) {
    let bits = [stat.sum, stat.min, stat.max].map(f64::to_bits);
    if let Some(column) = kind.unit_column() {
        let units = MetricStat::units(stat.count);
        if stat.count < UNIT_LIMIT && bits == [units.sum, units.min, units.max].map(f64::to_bits) {
            let word = (stat.count << COUNT_SHIFT) | ((column as u64) << 1) | UNIT;
            return ([word, 0, 0, 0, 0], 1);
        }
    }
    let [sum, min, max] = bits;
    ([kind.key() << 1, stat.count, sum, min, max], FULL)
}

/// Per-node map from metric kind to aggregate.
///
/// A vector of 8-byte words holding the entries **sorted by kind**, each
/// in one of two forms:
///
/// * a *unit* entry, one word: an occurrence kind's (one with a unit
///   column: launches, instruction samples, a stall reason) whose stat
///   is bit for bit `n` samples of `1.0` with `n < 2^56` — the count,
///   above the kind's unit column and a form bit;
/// * a *full* entry, five words, 40 bytes like a `(MetricKind,
///   MetricStat)` pair: a header holding the kind, then count, sum, min
///   and max as bits.
///
/// Every write picks the form from the value it leaves, so an occurrence
/// kind given another value, or counted past 2^56, turns full and
/// nothing is lost. Nodes carry a handful of kinds, so a lookup scans the
/// entries' first words; a `HashMap` per node would waste memory. A write
/// re-encodes the entry it changes and pays one small `memmove` when the
/// entry's width changes (a new kind, a unit entry turning full); adding
/// occurrences to a unit entry is one add to its word. Two stores are
/// equal when they hold the same kinds with bit-identical stats.
#[derive(Clone, Default, PartialEq)]
pub struct MetricStore {
    /// The entries, in kind order.
    words: Vec<u64>,
}

impl MetricStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store of `entries`, encoded through `scratch` and allocated
    /// once, at its exact size, when they are in kind order and each
    /// kind once, as a saved node's are; merged one by one otherwise.
    pub(crate) fn from_entries(
        entries: &[(MetricKind, MetricStat)],
        scratch: &mut Vec<u64>,
    ) -> Self {
        if !entries.is_sorted_by(|a, b| a.0 < b.0) {
            return entries.iter().copied().collect();
        }
        scratch.clear();
        for (kind, stat) in entries {
            let (entry, width) = encode(*kind, stat);
            scratch.extend_from_slice(&entry[..width]);
        }
        MetricStore {
            words: scratch.to_vec(),
        }
    }

    /// Each entry's first word's index, kind key and width, in order.
    #[inline]
    fn entries(&self) -> impl Iterator<Item = (usize, u64, usize)> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let (key, width) = head_key(*self.words.get(at)?);
            at += width;
            Some((at - width, key, width))
        })
    }

    /// The entry with kind key `key`, its index and width (`Ok`), or
    /// where it would go (`Err`); the search starts at the entry at
    /// `from`, which is not past it.
    #[inline(always)]
    fn position(&self, from: usize, key: u64) -> Result<(usize, usize), usize> {
        let mut at = from;
        while let Some(&head) = self.words.get(at) {
            let (k, width) = head_key(head);
            match k.cmp(&key) {
                Ordering::Less => at += width,
                Ordering::Equal => return Ok((at, width)),
                Ordering::Greater => break,
            }
        }
        Err(at)
    }

    /// Merges `stat` into the entry `position` found (or places it where
    /// `position` said) and returns the index past it.
    #[inline(always)]
    fn merge_found(
        &mut self,
        found: Result<(usize, usize), usize>,
        kind: MetricKind,
        stat: &MetricStat,
    ) -> usize {
        let (at, old) = match found {
            Ok(entry) => entry,
            Err(at) => {
                let (entry, width) = encode(kind, stat);
                return self.replace(at, 0, &entry[..width]);
            }
        };
        let mut merged = decode_stat(&self.words[at..]);
        merged.merge(stat);
        if old == FULL && kind.unit_column().is_none() {
            // A measured kind's entry is full whatever it holds: its
            // header stays.
            let fields = [merged.sum, merged.min, merged.max].map(f64::to_bits);
            self.words[at + 1..at + FULL].copy_from_slice(&[
                merged.count,
                fields[0],
                fields[1],
                fields[2],
            ]);
            return at + FULL;
        }
        let (entry, width) = encode(kind, &merged);
        if width != old {
            return self.replace(at, old, &entry[..width]);
        }
        self.words[at..at + width].copy_from_slice(&entry[..width]);
        at + width
    }

    /// Replaces the `old` words at `at` with `entry` and returns the index
    /// past it. A store grows by exactly what the entry adds: a node
    /// meets a new kind a few times a session, never once a launch, and
    /// room rounded up would hold more unused capacity than data.
    #[cold]
    fn replace(&mut self, at: usize, old: usize, entry: &[u64]) -> usize {
        self.words.reserve_exact(entry.len().saturating_sub(old));
        self.words.splice(at..at + old, entry.iter().copied());
        at + entry.len()
    }

    /// [`add_units`](Self::add_units) from the entry at `from`; returns
    /// the index past the entry.
    #[inline]
    fn add_units_from(&mut self, from: usize, kind: MetricKind, n: u64) -> usize {
        let found = self.position(from, kind.key());
        if let Ok((at, 1)) = found {
            let head = &mut self.words[at];
            let count = (*head >> COUNT_SHIFT).checked_add(n);
            if count.is_some_and(|count| count <= EXACT_UNITS) {
                *head += n << COUNT_SHIFT;
                return at + 1;
            }
        }
        self.merge_found(found, kind, &MetricStat::units(n))
    }

    /// Merges a whole aggregate of `kind`.
    #[inline]
    pub fn merge_stat(&mut self, kind: MetricKind, other: &MetricStat) {
        let found = self.position(0, kind.key());
        self.merge_found(found, kind, other);
    }

    /// Merges `n` samples of the value `1.0` of `kind`, as
    /// `merge_stat(kind, &MetricStat::units(n))` does: one add to the
    /// word while the entry is in unit form and its count stays where
    /// unit sums are exact.
    pub(crate) fn add_units(&mut self, kind: MetricKind, n: u64) {
        self.add_units_from(0, kind, n);
    }

    /// Merges all aggregates from `other`: one walk, as both are sorted.
    pub fn merge(&mut self, other: &MetricStore) {
        let mut from = 0;
        for (at, key, width) in other.entries() {
            let kind = MetricKind::from_key(key);
            from = if width == 1 {
                self.add_units_from(from, kind, other.words[at] >> COUNT_SHIFT)
            } else {
                let found = self.position(from, key);
                self.merge_found(found, kind, &decode_stat(&other.words[at..]))
            };
        }
    }

    /// Empties the store and keeps its room.
    pub(crate) fn clear(&mut self) {
        self.words.clear();
    }

    /// The aggregate for `kind`, if any samples were recorded.
    #[inline]
    pub fn get(&self, kind: MetricKind) -> Option<MetricStat> {
        let (at, _) = self.position(0, kind.key()).ok()?;
        Some(decode_stat(&self.words[at..]))
    }

    /// Sum for `kind`, or 0 if absent (the most common query).
    #[inline]
    pub fn sum(&self, kind: MetricKind) -> f64 {
        self.get(kind).map(|s| s.sum).unwrap_or(0.0)
    }

    /// Sample count for `kind`, or 0 if absent.
    #[inline]
    pub fn count(&self, kind: MetricKind) -> u64 {
        self.get(kind).map(|s| s.count).unwrap_or(0)
    }

    /// Iterates (kind, stat) pairs in kind-sorted order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (MetricKind, MetricStat)> + '_ {
        self.entries()
            .map(|(at, key, _)| (MetricKind::from_key(key), decode_stat(&self.words[at..])))
    }

    /// Number of distinct metric kinds recorded.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Whether no metrics are recorded.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Approximate heap bytes (for memory-overhead accounting): 8 a
    /// unit entry, 40 a full one, and any room left.
    pub fn approx_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

impl fmt::Debug for MetricStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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

    impl MetricStore {
        /// Adds one sample of `kind`, as `CallingContextTree::attribute`
        /// merges it at each node.
        fn add(&mut self, kind: MetricKind, value: f64) {
            let mut sample = MetricStat::new();
            sample.add(value);
            self.merge_stat(kind, &sample);
        }
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
    }

    #[test]
    fn default_is_the_empty_aggregate() {
        assert_eq!(MetricStat::default(), MetricStat::new());
        let mut s = MetricStat::default();
        s.add(5.0);
        assert_eq!((s.min, s.max), (5.0, 5.0));
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
        assert_eq!(a, whole);
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
    fn a_store_holds_exactly_its_kinds() {
        // A unit entry is 8 bytes, a full one 40, and nothing is rounded
        // up.
        let mut store = MetricStore::new();
        assert_eq!(store.approx_bytes(), 0);
        let kinds = [
            (MetricKind::GpuTime, 2.0, 40),
            (MetricKind::KernelLaunches, 1.0, 8),
            (MetricKind::CpuTime, 2.0, 40),
            (MetricKind::Stall(StallReason::ConstantMemory), 1.0, 8),
            (MetricKind::MemcpyBytes, 2.0, 40),
        ];
        let mut bytes = 0;
        for (kind, second, size) in kinds {
            store.add(kind, 1.0);
            store.add(kind, second);
            bytes += size;
            assert_eq!(store.approx_bytes(), bytes, "{kind}");
        }
        assert_eq!(store.len(), kinds.len());
        // An occurrence kind given another value turns full, and holds it.
        store.add(MetricKind::KernelLaunches, 2.5);
        assert_eq!(store.approx_bytes(), bytes + 32);
        let launches = store.get(MetricKind::KernelLaunches).unwrap();
        assert_eq!((launches.count, launches.sum), (3, 4.5));
        assert_eq!((launches.min, launches.max), (1.0, 2.5));
    }

    #[test]
    fn add_units_is_merging_units_past_the_exact_range_and_the_word() {
        let kind = MetricKind::Stall(StallReason::Other);
        for (first, then) in [
            (3, 4),
            (0, 0),
            (EXACT_UNITS - 1, 1),
            (EXACT_UNITS - 1, 2),
            (EXACT_UNITS + 1, 2),
            (UNIT_LIMIT - 2, 1),
            (UNIT_LIMIT - 2, 2),
            (UNIT_LIMIT / 2, UNIT_LIMIT / 2),
        ] {
            let mut store = MetricStore::new();
            store.add_units(kind, first);
            store.add_units(kind, then);
            let mut merged = MetricStat::units(first);
            merged.merge(&MetricStat::units(then));
            let got = store.get(kind).unwrap();
            assert_eq!(
                [got.sum, got.min, got.max].map(f64::to_bits),
                [merged.sum, merged.min, merged.max].map(f64::to_bits),
                "{first} + {then}"
            );
            assert_eq!(got.count, merged.count);
            let unit = merged.count < UNIT_LIMIT && merged == MetricStat::units(merged.count);
            assert_eq!(store.approx_bytes(), if unit { 8 } else { 40 });
        }
    }

    #[test]
    fn kind_keys_are_ordered_as_the_kinds_and_invert() {
        let i = crate::Interner::new();
        let mut kinds: Vec<MetricKind> = (0..=u8::MAX)
            .filter_map(MetricKind::from_base_code)
            .chain(StallReason::ALL.map(MetricKind::Stall))
            .chain(["a", "b"].map(|s| MetricKind::Custom(i.intern(s))))
            .collect();
        kinds.push(MetricKind::Custom(Sym(u32::MAX)));
        assert!(kinds.windows(2).all(|w| w[0] < w[1]), "listed in order");
        assert!(kinds.windows(2).all(|w| w[0].key() < w[1].key()));
        for kind in kinds {
            assert_eq!(MetricKind::from_key(kind.key()), kind);
        }
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
        b.add(MetricKind::MemcpyBytes, 32.0);
        a.merge(&b);
        assert_eq!(a.sum(MetricKind::GpuTime), 3.0);
        assert_eq!(a.sum(MetricKind::MemcpyBytes), 32.0);
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
            MetricKind::CpuTime,
            MetricKind::RealTime,
            MetricKind::HwInstructions,
            MetricKind::HwCacheMisses,
            MetricKind::HwBranchMisses,
            MetricKind::InstructionSamples,
            MetricKind::Stall(StallReason::MathDependency),
            custom,
        ];
        for k in kinds {
            let mut rec = String::new();
            k.write_record(&mut rec);
            assert_eq!(MetricKind::from_record(&rec).unwrap(), k, "record {rec:?}");
        }
        // The retired launch-shape kinds and the asynchronous pipeline's
        // retired loss kinds.
        for rec in ["B5", "B6", "B7", "B8", "B9", "B16", "B17"] {
            assert!(MetricKind::from_record(rec).is_err(), "{rec}");
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
            MetricKind::HwCacheMisses,
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
        let measured = (0..=u8::MAX)
            .filter_map(MetricKind::from_base_code)
            .chain([MetricKind::Custom(i.intern("mine"))])
            .filter(|kind| !counting.contains(kind));
        assert_eq!(measured.clone().count(), 11 - 2 + 1, "base kinds + custom");
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
