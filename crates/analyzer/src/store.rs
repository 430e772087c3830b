//! Persistent profile store: a directory of runs with cross-run queries.
//!
//! A [`ProfileStore`] is a plain directory of `.dcprof` files, one per
//! run, written atomically (a tmp file, hard-linked into place) so a
//! crashed writer never leaves a half-visible run. Listings read only
//! each file's metadata header ([`ProfileDb::load_meta`]), so browsing a
//! store of large profiles stays cheap; [`load`](ProfileStore::load)
//! materializes the full tree + timeline on demand.
//!
//! On top of the store sit the cross-run queries the fleet workflow
//! needs: [`list_filtered`](ProfileStore::list_filtered) by metadata
//! axes ([`RunFilter`]) and [`trend`](ProfileStore::trend) of one metric
//! across runs in wall-clock order.
//! [`RegressionRule::from_store`](crate::RegressionRule::from_store)
//! takes its baseline from the runs a filter selects.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use deepcontext_core::{CoreError, MetricKind, ProfileDb, ProfileMeta, TimeNs};

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

/// Runs `attempt` until it succeeds, fails with an error that is not
/// [transient](is_transient), or has been tried [`IO_ATTEMPTS`] times,
/// backing off between tries. `save` and `load` both go through here.
fn with_retry<T>(mut attempt: impl FnMut() -> Result<T, CoreError>) -> Result<T, CoreError> {
    let mut tries = 1;
    loop {
        match attempt() {
            Err(e) if is_transient(&e) && tries < IO_ATTEMPTS => {
                std::thread::sleep(backoff(tries));
                tries += 1;
            }
            result => return result,
        }
    }
}

/// The retry's test seam: a thread queues I/O error kinds at one point
/// of a store operation, and each check there counts and hands out the
/// next one. Test builds only; nothing else can reach it.
#[cfg(test)]
mod inject {
    use std::cell::RefCell;
    use std::io::{Error, ErrorKind};

    /// Where a store operation checks for a queued fault.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Point {
        /// Between writing the tmp sibling and renaming it into place.
        Publish,
        /// Before a full load opens the run's file.
        Open,
    }

    struct Queue {
        point: Point,
        /// Pending faults, the next one last.
        faults: Vec<ErrorKind>,
        checks: u32,
    }

    thread_local! {
        static QUEUE: RefCell<Option<Queue>> = const { RefCell::new(None) };
    }

    /// Queues `faults` at `point` for this thread, first to last,
    /// replacing whatever was queued, and restarts the check count.
    pub(super) fn queue(point: Point, faults: &[ErrorKind]) {
        let faults = faults.iter().rev().copied().collect();
        QUEUE.set(Some(Queue {
            point,
            faults,
            checks: 0,
        }));
    }

    /// Checks made at the queued point since [`queue`].
    pub(super) fn checks() -> u32 {
        QUEUE.with_borrow(|q| q.as_ref().map_or(0, |q| q.checks))
    }

    /// One check at `point`: the next fault queued there, if any.
    pub(super) fn check(point: Point) -> std::io::Result<()> {
        QUEUE.with_borrow_mut(|q| match q {
            Some(q) if q.point == point => {
                q.checks += 1;
                q.faults
                    .pop()
                    .map_or(Ok(()), |kind| Err(Error::new(kind, "injected")))
            }
            _ => Ok(()),
        })
    }
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

    /// Whether `meta` satisfies every set field.
    pub fn matches(&self, meta: &ProfileMeta) -> bool {
        let field = |want: &Option<String>, have: &str| want.as_deref().is_none_or(|w| w == have);
        field(&self.workload, &meta.workload)
            && field(&self.framework, &meta.framework)
            && field(&self.platform, &meta.platform)
            && field(&self.host, &meta.host)
            && field(&self.model, &meta.model)
    }
}

/// One sample of a metric trend across stored runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// The run's store id.
    pub id: String,
    /// The run's wall-clock start (trend x-axis).
    pub started: TimeNs,
    /// The metric's whole-run inclusive total.
    pub total: f64,
}

/// A directory of stored profile runs.
#[derive(Debug, Clone)]
pub struct ProfileStore {
    dir: PathBuf,
}

impl ProfileStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<ProfileStore, CoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ProfileStore { dir })
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
    /// collision. The file appears atomically and never replaces another
    /// run, even when several writers save the same run at once: each
    /// save writes a `.tmp` sibling of its own, then hard-links it under
    /// the first free id and removes the sibling.
    ///
    /// Transient I/O errors (`Interrupted` / `WouldBlock` / `TimedOut`)
    /// are retried up to two times with a short backoff. A persistent
    /// error is returned as-is — with whatever bytes were written left
    /// in the `.tmp` sibling, so a run that cost hours to collect is
    /// never silently deleted on a flaky disk (listings skip `.tmp`
    /// files).
    pub fn save(&self, db: &ProfileDb) -> Result<String, CoreError> {
        static SAVES: AtomicU64 = AtomicU64::new(0);
        let base = format!(
            "run-{:020}-{}",
            db.meta().started.0,
            sanitize(&db.meta().workload)
        );
        let tmp = self.dir.join(format!(
            "{base}.{}-{}.{EXT}.tmp",
            std::process::id(),
            SAVES.fetch_add(1, Ordering::Relaxed)
        ));
        let id = with_retry(|| {
            // Each attempt re-creates the tmp sibling from scratch
            // (truncating any partial previous attempt); `save` renders
            // the container and hands it over in one write.
            db.save(File::create(&tmp)?)?;
            // Tests fail here the way that leaves the bytes on disk but
            // the run invisible — what the preserved tmp sibling is for.
            #[cfg(test)]
            inject::check(inject::Point::Publish)?;
            self.publish(&tmp, &base)
        })
        .inspect_err(|e| {
            // A profile `ProfileDb::save` refuses wrote no byte: its empty
            // tmp sibling holds nothing worth keeping.
            if matches!(e, CoreError::Parse(_)) {
                let _ = fs::remove_file(&tmp);
            }
        })?;
        // The run is published; a sibling a failed remove leaves behind
        // is skipped by listings.
        let _ = fs::remove_file(&tmp);
        Ok(id)
    }

    /// Links `tmp` under `base`, or `base-2`, `base-3`, ... — the first
    /// id no file holds. A link never overwrites: a writer that loses the
    /// race for an id gets `AlreadyExists` and tries the next.
    fn publish(&self, tmp: &Path, base: &str) -> Result<String, CoreError> {
        let mut id = base.to_string();
        let mut n = 1u32;
        loop {
            match fs::hard_link(tmp, self.path_of(&id)) {
                Ok(()) => return Ok(id),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    n += 1;
                    id = format!("{base}-{n}");
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Whether a run with this id exists.
    pub fn contains(&self, id: &str) -> bool {
        self.path_of(id).exists()
    }

    /// Loads the full profile (tree + timeline) of a stored run.
    /// Transient I/O errors are retried like [`save`](Self::save)'s.
    pub fn load(&self, id: &str) -> Result<ProfileDb, CoreError> {
        with_retry(|| {
            #[cfg(test)]
            inject::check(inject::Point::Open)?;
            ProfileDb::load(File::open(self.path_of(id))?)
        })
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
    use std::io::ErrorKind;
    use std::sync::atomic::{AtomicU32, Ordering};

    pub(crate) fn temp_store() -> (PathBuf, ProfileStore) {
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
    fn a_timeline_load_would_refuse_publishes_no_run() {
        use deepcontext_core::{Interner, IntervalKind, StoredTimeline, TrackKey, TrackSlot};
        let name = Interner::new().intern("sgemm");
        assert_eq!(name.index(), 0, "inside the one-name table below");
        let slot = |start| {
            let kind = IntervalKind::Kernel;
            TrackSlot::new(TimeNs(start), TimeNs(start + 10), start, name, None, kind)
        };
        let track = |stream, slots: &[TrackSlot]| (TrackKey { device: 0, stream }, slots.into());
        let (dir, store) = temp_store();
        for tracks in [
            // Tracks out of key order; an empty track; an interval below
            // its predecessor.
            vec![track(1, &[slot(5)]), track(0, &[slot(5)])],
            vec![track(0, &[slot(5)]), track(1, &[])],
            vec![track(0, &[slot(5), slot(4)])],
        ] {
            let mut db = profile("unet", "h", 1, 1.0);
            db.set_timeline(Some(StoredTimeline {
                tracks,
                names: vec!["sgemm".into()],
                ..StoredTimeline::default()
            }));
            assert!(matches!(store.save(&db), Err(CoreError::Parse(_))));
        }
        assert!(store.list().unwrap().is_empty());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "no file left");
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
        inject::queue(inject::Point::Publish, &[ErrorKind::Interrupted]);
        let id = store.save(&profile("unet", "h", 1, 1.0)).unwrap();
        assert!(store.contains(&id));
        assert_eq!(
            inject::checks(),
            2,
            "a retry must have re-checked the point"
        );
        // The successful retry published the run and removed its tmp
        // sibling.
        let tmp = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("tmp"));
        assert_eq!(tmp.count(), 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn exhausted_retries_fail_with_the_run_preserved_in_tmp() {
        let (dir, store) = temp_store();
        // More faults than attempts: the error persists.
        inject::queue(
            inject::Point::Publish,
            &[ErrorKind::Interrupted; IO_ATTEMPTS as usize + 1],
        );
        let err = store.save(&profile("unet", "h", 1, 1.0)).unwrap_err();
        assert!(matches!(err, CoreError::Io(_)), "got {err:?}");
        assert_eq!(inject::checks(), 3);
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
        inject::queue(inject::Point::Open, &[ErrorKind::Interrupted]);
        let back = store.load(&id).unwrap();
        assert_eq!(back.meta().workload, "unet");
        assert_eq!(inject::checks(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn would_block_and_timed_out_are_retried_like_interrupted() {
        let (dir, store) = temp_store();
        let transient = [ErrorKind::WouldBlock, ErrorKind::TimedOut];
        inject::queue(inject::Point::Publish, &transient);
        let id = store.save(&profile("unet", "h", 1, 1.0)).unwrap();
        assert_eq!(inject::checks(), 3);
        inject::queue(inject::Point::Open, &transient);
        assert_eq!(store.load(&id).unwrap().meta().workload, "unet");
        assert_eq!(inject::checks(), 3);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn persistent_errors_are_attempted_once() {
        let (dir, store) = temp_store();
        // A real one: the id names no file.
        inject::queue(inject::Point::Open, &[]);
        let err = store.load("run-missing").unwrap_err();
        assert!(
            matches!(&err, CoreError::Io(e) if e.kind() == ErrorKind::NotFound),
            "got {err:?}"
        );
        assert_eq!(inject::checks(), 1);
        // An injected one on the save path fails the save as it is.
        inject::queue(inject::Point::Publish, &[ErrorKind::PermissionDenied]);
        let err = store.save(&profile("unet", "h", 1, 1.0)).unwrap_err();
        assert!(
            matches!(&err, CoreError::Io(e) if e.kind() == ErrorKind::PermissionDenied),
            "got {err:?}"
        );
        assert_eq!(inject::checks(), 1);
        fs::remove_dir_all(dir).unwrap();
    }
}
