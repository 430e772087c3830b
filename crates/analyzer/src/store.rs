//! Persistent profile store: a directory of runs with cross-run queries.
//!
//! A [`ProfileStore`] is a plain directory of `.dcprof` files, one per
//! run, written atomically (tmp + rename) so a crashed writer never
//! leaves a half-visible run. Listings read only each file's metadata
//! header ([`ProfileDb::load_meta`]), so browsing a store of large
//! profiles stays cheap; [`load`](ProfileStore::load) materializes the
//! full tree + timeline on demand.
//!
//! On top of the store sit the cross-run queries the fleet workflow
//! needs: [`list_filtered`](ProfileStore::list_filtered) by metadata
//! axes ([`RunFilter`]), [`trend`](ProfileStore::trend) of one metric
//! across runs in wall-clock order,
//! [`meta_trend`](ProfileStore::meta_trend) of a numeric metadata key
//! (e.g. the `telemetry.*` self-telemetry embeds) across runs.
//! [`RegressionRule::from_store`](crate::RegressionRule::from_store)
//! takes its baseline from the runs a filter selects.
//!
//! A store can itself be instrumented: pass a self-telemetry handle to
//! [`with_telemetry`](ProfileStore::with_telemetry) and every
//! [`save`](ProfileStore::save) / [`load`](ProfileStore::load) records
//! its latency into the shared registry's store histograms.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepcontext_core::failpoint::{sites as fp_sites, Failpoints};
use deepcontext_core::{CoreError, MetricKind, ProfileDb, ProfileMeta, TimeNs};
use deepcontext_telemetry::{journal_sites, names, Histogram, Journal, JournalSeverity, Telemetry};

/// File extension of stored runs.
const EXT: &str = "dcprof";

/// Total attempts a store I/O operation makes before a transient error
/// is treated as persistent.
const IO_ATTEMPTS: u32 = 3;

/// Backoff before retry `attempt` (1-based): 1ms, then 2ms — long
/// enough to outlive a signal storm or a momentarily contended file,
/// short enough that a save barely notices.
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis(1u64 << attempt.saturating_sub(1).min(4))
}

/// Whether this error is worth retrying: the kinds the OS hands back
/// for interruptions that resolve by themselves. Anything else (missing
/// directory, permissions, full disk, corrupt record) is persistent.
fn is_transient(err: &CoreError) -> bool {
    use std::io::ErrorKind;
    matches!(
        err,
        CoreError::Io(e) if matches!(
            e.kind(),
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
        )
    )
}

/// One run as seen in a store listing: its id plus the metadata header.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Store-unique run id (the file stem).
    pub id: String,
    /// The run's metadata header.
    pub meta: ProfileMeta,
}

/// Metadata predicate for store queries. Empty (`default()`) matches
/// every run; each set field must match exactly.
#[derive(Debug, Clone, Default)]
pub struct RunFilter {
    /// Match this workload name.
    pub workload: Option<String>,
    /// Match this framework.
    pub framework: Option<String>,
    /// Match this platform.
    pub platform: Option<String>,
    /// Match this host.
    pub host: Option<String>,
    /// Match this model identity.
    pub model: Option<String>,
    /// Match runs whose journal recorded an event at this site (the
    /// `journal.sites` metadata stamp, e.g. `store.retry`).
    pub incident: Option<String>,
}

impl RunFilter {
    /// A filter matching every run.
    pub fn any() -> Self {
        Self::default()
    }

    /// Requires `workload` to match.
    pub fn workload(mut self, workload: impl Into<String>) -> Self {
        self.workload = Some(workload.into());
        self
    }

    /// Requires `framework` to match.
    pub fn framework(mut self, framework: impl Into<String>) -> Self {
        self.framework = Some(framework.into());
        self
    }

    /// Requires `platform` to match.
    pub fn platform(mut self, platform: impl Into<String>) -> Self {
        self.platform = Some(platform.into());
        self
    }

    /// Requires `host` to match.
    pub fn host(mut self, host: impl Into<String>) -> Self {
        self.host = Some(host.into());
        self
    }

    /// Requires `model` to match.
    pub fn model(mut self, model: impl Into<String>) -> Self {
        self.model = Some(model.into());
        self
    }

    /// Requires the run's journal to have recorded an event at `site`
    /// (e.g. [`journal_sites::STORE_RETRY`]). Matching reads only
    /// the `journal.sites` metadata stamp the profiler embeds at
    /// `finish`, so incident filtering stays header-only; runs without a
    /// journal never match.
    pub fn incident(mut self, site: impl Into<String>) -> Self {
        self.incident = Some(site.into());
        self
    }

    /// Whether `meta` satisfies every set field.
    pub fn matches(&self, meta: &ProfileMeta) -> bool {
        let field = |want: &Option<String>, have: &str| want.as_deref().is_none_or(|w| w == have);
        field(&self.workload, &meta.workload)
            && field(&self.framework, &meta.framework)
            && field(&self.platform, &meta.platform)
            && field(&self.host, &meta.host)
            && field(&self.model, &meta.model)
            && self.incident.as_deref().is_none_or(|want| {
                meta.extra
                    .iter()
                    .find(|(k, _)| k == "journal.sites")
                    .is_some_and(|(_, v)| v.split(',').any(|site| site == want))
            })
    }
}

/// One sample of a metric trend across stored runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// The run's store id.
    pub id: String,
    /// The run's wall-clock start (trend x-axis).
    pub started: TimeNs,
    /// The queried value: a metric's whole-run inclusive total
    /// ([`trend`](ProfileStore::trend)) or a metadata key parsed as a
    /// number ([`meta_trend`](ProfileStore::meta_trend)).
    pub total: f64,
}

/// The store's slice of the self-telemetry registry: save/load latency
/// histograms, registered once when the handle is attached.
#[derive(Debug, Clone)]
struct StoreTelemetry {
    save_latency: Arc<Histogram>,
    load_latency: Arc<Histogram>,
}

/// A directory of stored profile runs.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    dir: PathBuf,
    telemetry: Option<StoreTelemetry>,
    failpoints: Failpoints,
    journal: Option<Arc<Journal>>,
}

impl ProfileStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<ProfileStore, CoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ProfileStore {
            dir,
            telemetry: None,
            failpoints: Failpoints::from_env(),
            journal: None,
        })
    }

    /// Replaces the store's fault-injection registry (tests; production
    /// stores inherit the `DEEPCONTEXT_FAILPOINTS` environment spec).
    /// The `store_io_err` point fires on the save path, `store_read_err`
    /// on the load path.
    pub fn with_failpoints(mut self, failpoints: Failpoints) -> Self {
        self.failpoints = failpoints;
        self
    }

    /// Attaches a self-telemetry handle: subsequent [`save`](Self::save)
    /// and [`load`](Self::load) calls record their wall-clock latency
    /// into the registry's `deepcontext_store_*_latency_ns` histograms.
    /// Header-only reads ([`load_meta`](Self::load_meta) and listings)
    /// stay unrecorded — they run per stored file and would drown the
    /// full-materialization signal.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = Some(StoreTelemetry {
            save_latency: telemetry.histogram(names::STORE_SAVE_LATENCY_NS, &[]),
            load_latency: telemetry.histogram(names::STORE_LOAD_LATENCY_NS, &[]),
        });
        self
    }

    /// Attaches the incident journal: every transient I/O error a
    /// [`save`](Self::save) or [`load`](Self::load) retries past is then
    /// recorded as a `store.retry` event (fields: `op`, `attempt`,
    /// `error`), so a flaky disk shows up in the run's causal record and
    /// not just as latency.
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Journals one retried transient error (no-op without a journal).
    fn journal_retry(&self, op: &str, attempt: u32, err: &CoreError) {
        if let Some(journal) = &self.journal {
            journal.record(
                JournalSeverity::Warn,
                journal_sites::STORE_RETRY,
                &[
                    ("op", op),
                    ("attempt", &attempt.to_string()),
                    ("error", &err.to_string()),
                ],
            );
        }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.{EXT}"))
    }

    /// Saves `db` as a new run, returning its store id.
    ///
    /// Ids are derived from the run's start stamp and workload
    /// (`run-<started>-<workload>`), uniquified with a numeric suffix on
    /// collision. The file appears atomically: it is written to a
    /// `.tmp` sibling and renamed into place.
    ///
    /// Transient I/O errors (`Interrupted` / `WouldBlock` / `TimedOut`)
    /// are retried up to two times with a short backoff. A persistent
    /// error is returned as-is — with whatever bytes were written left
    /// in the `.tmp` sibling, so a run that cost hours to collect is
    /// never silently deleted on a flaky disk (listings skip `.tmp`
    /// files; re-saving the id overwrites it).
    pub fn save(&self, db: &ProfileDb) -> Result<String, CoreError> {
        let start = self.telemetry.as_ref().map(|_| Instant::now());
        let base = format!(
            "run-{:020}-{}",
            db.meta().started.0,
            sanitize(&db.meta().workload)
        );
        let mut id = base.clone();
        let mut n = 1u32;
        while self.path_of(&id).exists() {
            n += 1;
            id = format!("{base}-{n}");
        }
        let tmp = self.dir.join(format!("{id}.{EXT}.tmp"));
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.try_save(db, &tmp, &id) {
                Ok(()) => break,
                Err(e) if is_transient(&e) && attempt < IO_ATTEMPTS => {
                    self.journal_retry("save", attempt, &e);
                    std::thread::sleep(backoff(attempt));
                }
                Err(e) => return Err(e),
            }
        }
        if let (Some(t), Some(start)) = (&self.telemetry, start) {
            t.save_latency.record(elapsed_ns(start));
        }
        Ok(id)
    }

    /// One write-and-rename attempt. A fresh attempt re-creates the tmp
    /// sibling from scratch (truncating any partial previous attempt).
    fn try_save(&self, db: &ProfileDb, tmp: &Path, id: &str) -> Result<(), CoreError> {
        // `save` renders the container and hands it over in one write.
        db.save(File::create(tmp)?)?;
        // Injected between write and publish: the failure mode where the
        // bytes are on disk but the run never became visible — exactly
        // what the preserved tmp sibling exists for.
        if let Some(e) = self.failpoints.io_error(fp_sites::STORE_IO_ERR) {
            return Err(CoreError::Io(e));
        }
        fs::rename(tmp, self.path_of(id))?;
        Ok(())
    }

    /// Whether a run with this id exists.
    pub fn contains(&self, id: &str) -> bool {
        self.path_of(id).exists()
    }

    /// Loads the full profile (tree + timeline) of a stored run.
    /// Transient I/O errors are retried like [`save`](Self::save)'s.
    pub fn load(&self, id: &str) -> Result<ProfileDb, CoreError> {
        let start = self.telemetry.as_ref().map(|_| Instant::now());
        let mut attempt = 0u32;
        let db = loop {
            attempt += 1;
            match self.try_load(id) {
                Ok(db) => break db,
                Err(e) if is_transient(&e) && attempt < IO_ATTEMPTS => {
                    self.journal_retry("load", attempt, &e);
                    std::thread::sleep(backoff(attempt));
                }
                Err(e) => return Err(e),
            }
        };
        if let (Some(t), Some(start)) = (&self.telemetry, start) {
            t.load_latency.record(elapsed_ns(start));
        }
        Ok(db)
    }

    /// One full-materialization read attempt.
    fn try_load(&self, id: &str) -> Result<ProfileDb, CoreError> {
        if let Some(e) = self.failpoints.io_error(fp_sites::STORE_READ_ERR) {
            return Err(CoreError::Io(e));
        }
        ProfileDb::load(File::open(self.path_of(id))?)
    }

    /// Loads only the metadata header of a stored run.
    pub fn load_meta(&self, id: &str) -> Result<ProfileMeta, CoreError> {
        ProfileDb::load_meta(File::open(self.path_of(id))?)
    }

    /// Lists every run, sorted by (start stamp, id).
    ///
    /// Only each file's metadata header is read. Files that are not
    /// valid stored profiles (foreign files, interrupted writes) are
    /// skipped — [`load`](Self::load) on a known id is the place where
    /// corruption surfaces as a [`CoreError`].
    pub fn list(&self) -> Result<Vec<RunRecord>, CoreError> {
        let mut runs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXT) {
                continue;
            }
            let Some(id) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(meta) = ProfileDb::load_meta(File::open(&path)?) else {
                continue;
            };
            runs.push(RunRecord {
                id: id.to_string(),
                meta,
            });
        }
        runs.sort_by(|a, b| (a.meta.started, &a.id).cmp(&(b.meta.started, &b.id)));
        Ok(runs)
    }

    /// Lists the runs matching `filter`, sorted by (start stamp, id).
    pub fn list_filtered(&self, filter: &RunFilter) -> Result<Vec<RunRecord>, CoreError> {
        Ok(self
            .list()?
            .into_iter()
            .filter(|r| filter.matches(&r.meta))
            .collect())
    }

    /// The trend of `metric`'s whole-run total across the runs matching
    /// `filter`, in wall-clock start order.
    pub fn trend(
        &self,
        filter: &RunFilter,
        metric: MetricKind,
    ) -> Result<Vec<TrendPoint>, CoreError> {
        let mut points = Vec::new();
        for run in self.list_filtered(filter)? {
            let db = self.load(&run.id)?;
            points.push(TrendPoint {
                id: run.id,
                started: run.meta.started,
                total: db.cct().total(metric),
            });
        }
        Ok(points)
    }

    /// The trend of a numeric metadata key across the runs matching
    /// `filter`, in wall-clock start order.
    ///
    /// This is how the self-telemetry embeds become trendable: the
    /// profiler's `finish` stamps `telemetry.*` keys (drop rate, max
    /// queue depth, flush p99, …) into each run's metadata, and
    /// `meta_trend(&filter, "telemetry.flush_p99_ns")` charts that
    /// overhead figure across stored runs. Only each file's metadata
    /// header is read; runs without the key (or with a non-numeric
    /// value) are skipped, so pre-telemetry runs simply don't plot.
    pub fn meta_trend(&self, filter: &RunFilter, key: &str) -> Result<Vec<TrendPoint>, CoreError> {
        let mut points = Vec::new();
        for run in self.list_filtered(filter)? {
            let Some(value) = run
                .meta
                .extra
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.parse::<f64>().ok())
            else {
                continue;
            };
            points.push(TrendPoint {
                id: run.id,
                started: run.meta.started,
                total: value,
            });
        }
        Ok(points)
    }
}

/// Nanoseconds since `start`, saturating at `u64::MAX`.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Lowercases `name` to `[a-z0-9-]`, for use inside a run id / filename.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            let c = c.to_ascii_lowercase();
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    out.truncate(48);
    if out.is_empty() {
        out.push_str("run");
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::RegressionRule;
    use deepcontext_core::{CallingContextTree, Frame};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_store() -> (PathBuf, ProfileStore) {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "deepcontext-store-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let store = ProfileStore::open(&dir).unwrap();
        (dir, store)
    }

    pub(crate) fn profile(workload: &str, host: &str, started: u64, gpu_time: f64) -> ProfileDb {
        let mut cct = CallingContextTree::new();
        let i = cct.interner();
        let leaf = cct.insert_path(&[
            Frame::operator("aten::conv2d", &i),
            Frame::gpu_kernel("implicit_gemm", "m.so", 0x10, &i),
        ]);
        cct.attribute(leaf, MetricKind::GpuTime, gpu_time);
        ProfileDb::new(
            ProfileMeta {
                workload: workload.to_string(),
                framework: "eager".to_string(),
                platform: "sim".to_string(),
                host: host.to_string(),
                started: TimeNs(started),
                ended: TimeNs(started + 1_000),
                ..Default::default()
            },
            cct,
        )
    }

    #[test]
    fn save_load_list_round_trip() {
        let (dir, store) = temp_store();
        let a = profile("unet", "host-a", 200, 10.0);
        let b = profile("bert", "host-b", 100, 20.0);
        let id_a = store.save(&a).unwrap();
        let id_b = store.save(&b).unwrap();
        assert!(store.contains(&id_a));
        let back = store.load(&id_a).unwrap();
        assert_eq!(back.meta(), a.meta());
        assert_eq!(back.cct().node_count(), a.cct().node_count());
        assert_eq!(
            back.cct().total(MetricKind::GpuTime),
            a.cct().total(MetricKind::GpuTime)
        );
        assert_eq!(back.timeline(), a.timeline());
        assert_eq!(store.load_meta(&id_b).unwrap(), *b.meta());

        let runs = store.list().unwrap();
        assert_eq!(runs.len(), 2);
        // Sorted by start stamp: b (100) before a (200).
        assert_eq!(runs[0].id, id_b);
        assert_eq!(runs[1].id, id_a);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn colliding_ids_are_uniquified() {
        let (dir, store) = temp_store();
        let p = profile("unet", "h", 7, 1.0);
        let id1 = store.save(&p).unwrap();
        let id2 = store.save(&p).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(store.list().unwrap().len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn filters_and_trend_select_by_metadata() {
        let (dir, store) = temp_store();
        store.save(&profile("unet", "host-a", 1, 10.0)).unwrap();
        store.save(&profile("unet", "host-a", 2, 12.0)).unwrap();
        store.save(&profile("bert", "host-b", 3, 99.0)).unwrap();

        let unet = RunFilter::any().workload("unet");
        assert_eq!(store.list_filtered(&unet).unwrap().len(), 2);
        assert_eq!(
            store
                .list_filtered(&RunFilter::any().host("host-b"))
                .unwrap()
                .len(),
            1
        );
        assert!(store
            .list_filtered(&RunFilter::any().workload("unet").host("host-b"))
            .unwrap()
            .is_empty());

        let trend = store.trend(&unet, MetricKind::GpuTime).unwrap();
        assert_eq!(trend.len(), 2);
        assert_eq!(trend[0].total, 10.0);
        assert_eq!(trend[1].total, 12.0);
        assert!(trend[0].started < trend[1].started);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn meta_trend_reads_embedded_telemetry_keys() {
        let (dir, store) = temp_store();
        let mut early = profile("unet", "h", 1, 10.0);
        early
            .meta_mut()
            .extra
            .push(("telemetry.flush_p99_ns".to_string(), "2048".to_string()));
        let mut late = profile("unet", "h", 2, 10.0);
        late.meta_mut()
            .extra
            .push(("telemetry.flush_p99_ns".to_string(), "4096".to_string()));
        // No key at all: a pre-telemetry run that must not plot.
        let plain = profile("unet", "h", 3, 10.0);
        store.save(&early).unwrap();
        store.save(&late).unwrap();
        store.save(&plain).unwrap();

        let trend = store
            .meta_trend(&RunFilter::any().workload("unet"), "telemetry.flush_p99_ns")
            .unwrap();
        assert_eq!(trend.len(), 2);
        assert_eq!(trend[0].total, 2048.0);
        assert_eq!(trend[1].total, 4096.0);
        assert!(trend[0].started < trend[1].started);
        assert!(store
            .meta_trend(&RunFilter::any(), "telemetry.absent")
            .unwrap()
            .is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn telemetry_records_save_and_load_latency() {
        use deepcontext_telemetry::TelemetryConfig;
        let telemetry = Telemetry::from_config(&TelemetryConfig::enabled()).unwrap();
        let (dir, store) = temp_store();
        let store = store.with_telemetry(&telemetry);
        let id = store.save(&profile("unet", "h", 1, 1.0)).unwrap();
        store.load(&id).unwrap();
        store.load_meta(&id).unwrap();

        let snapshot = telemetry.snapshot();
        assert_eq!(
            snapshot
                .histogram_merged(names::STORE_SAVE_LATENCY_NS)
                .count,
            1
        );
        // load_meta is header-only and intentionally unrecorded.
        assert_eq!(
            snapshot
                .histogram_merged(names::STORE_LOAD_LATENCY_NS)
                .count,
            1
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn listing_skips_foreign_and_truncated_files() {
        let (dir, store) = temp_store();
        store.save(&profile("unet", "h", 1, 1.0)).unwrap();
        fs::write(dir.join("notes.txt"), "not a profile").unwrap();
        fs::write(dir.join("bad.dcprof"), "garbage header").unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
        assert!(store.load("bad").is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn regression_rule_from_store_and_empty_store() {
        let (dir, store) = temp_store();
        assert!(
            RegressionRule::from_store(&store, &RunFilter::any(), MetricKind::GpuTime)
                .unwrap()
                .is_none()
        );

        store.save(&profile("unet", "h", 1, 50.0)).unwrap();
        store.save(&profile("unet", "h", 2, 50.0)).unwrap();
        let rule = RegressionRule::from_store(
            &store,
            &RunFilter::any().workload("unet"),
            MetricKind::GpuTime,
        )
        .unwrap()
        .unwrap();
        assert_eq!(rule.baseline_total(), 50.0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_retries_transient_io_errors_and_succeeds() {
        let (dir, store) = temp_store();
        let store = store.with_failpoints(Failpoints::parse("store_io_err@first").unwrap());
        let id = store.save(&profile("unet", "h", 1, 1.0)).unwrap();
        assert!(store.contains(&id));
        assert_eq!(store.failpoints.fired(fp_sites::STORE_IO_ERR), 1);
        assert!(
            store.failpoints.hits(fp_sites::STORE_IO_ERR) >= 2,
            "a retry must have re-checked the site"
        );
        // The successful retry renamed the tmp sibling away.
        assert!(!dir.join(format!("{id}.{EXT}.tmp")).exists());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn exhausted_retries_fail_with_the_run_preserved_in_tmp() {
        let (dir, store) = temp_store();
        let store = store.with_failpoints(Failpoints::parse("store_io_err@always").unwrap());
        let err = store.save(&profile("unet", "h", 1, 1.0)).unwrap_err();
        assert!(matches!(err, CoreError::Io(_)), "got {err:?}");
        assert_eq!(store.failpoints.fired(fp_sites::STORE_IO_ERR), 3);
        // Nothing became visible, but the written bytes were kept: the
        // tmp sibling holds a complete, loadable profile.
        assert!(store.list().unwrap().is_empty());
        let tmp: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("tmp"))
            .collect();
        assert_eq!(tmp.len(), 1, "the tmp sibling must survive the failure");
        let back = ProfileDb::load(File::open(&tmp[0]).unwrap()).unwrap();
        assert_eq!(back.meta().workload, "unet");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn load_retries_transient_read_errors() {
        let (dir, store) = temp_store();
        let id = store.save(&profile("unet", "h", 1, 1.0)).unwrap();
        let store = store.with_failpoints(Failpoints::parse("store_read_err@first").unwrap());
        let back = store.load(&id).unwrap();
        assert_eq!(back.meta().workload, "unet");
        assert_eq!(store.failpoints.fired(fp_sites::STORE_READ_ERR), 1);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn run_filter_incident_reads_the_journal_sites_stamp() {
        let mut incident = profile("unet", "h", 1, 1.0);
        incident.meta_mut().extra.push((
            "journal.sites".to_string(),
            "pipeline.epoch,shard.quarantine".to_string(),
        ));
        let plain = profile("unet", "h", 2, 1.0);
        // A site only journals stored before the async pipeline was
        // deleted carry: stamps are strings, so they still filter.
        let want = RunFilter::any().incident("shard.quarantine");
        assert!(want.matches(incident.meta()));
        assert!(!want.matches(plain.meta()));
        assert!(!RunFilter::any()
            .incident(journal_sites::STORE_RETRY)
            .matches(incident.meta()));
        // Composes with the other axes.
        assert!(!RunFilter::any()
            .workload("bert")
            .incident("shard.quarantine")
            .matches(incident.meta()));

        // Header-only store listings filter the same way.
        let (dir, store) = temp_store();
        store.save(&incident).unwrap();
        store.save(&plain).unwrap();
        let hits = store.list_filtered(&want).unwrap();
        assert_eq!(hits.len(), 1);
        assert!(store
            .list_filtered(&RunFilter::any().incident(journal_sites::STORE_RETRY))
            .unwrap()
            .is_empty());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn store_journal_records_retry_attempts() {
        use deepcontext_core::Interner;
        use deepcontext_telemetry::JournalConfig;
        let journal = Journal::from_config(&JournalConfig::enabled(), &Interner::new(), None)
            .expect("enabled config builds");
        let (dir, store) = temp_store();
        let store = store
            .with_failpoints(Failpoints::parse("store_io_err@first;store_read_err@first").unwrap())
            .with_journal(Arc::clone(&journal));
        let id = store.save(&profile("unet", "h", 1, 1.0)).unwrap();
        store.load(&id).unwrap();
        let snap = journal.snapshot();
        let retries: Vec<_> = snap.events_at(journal_sites::STORE_RETRY).collect();
        assert_eq!(retries.len(), 2, "one retried save, one retried load");
        assert_eq!(retries[0].fields[0], ("op".to_string(), "save".to_string()));
        assert_eq!(retries[1].fields[0], ("op".to_string(), "load".to_string()));
        assert!(retries
            .iter()
            .all(|e| e.fields.iter().any(|(k, v)| k == "attempt" && v == "1")));
        assert!(retries.iter().all(|e| e.severity == 1), "retries warn");
        fs::remove_dir_all(dir).unwrap();
    }
}
