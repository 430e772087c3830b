//! Persistent profile store: a directory of runs.
//!
//! A [`ProfileStore`] is a plain directory of `.dcprof` files, one per
//! run, written atomically (a tmp file, hard-linked into place) so a
//! crashed writer never leaves a half-visible run.
//! [`load`](ProfileStore::load) materializes a run's tree + timeline;
//! [`ProfileDiff`](crate::ProfileDiff) compares two runs.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use deepcontext_core::{CoreError, ProfileDb};

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
    /// never silently deleted on a flaky disk.
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
        // The run is published; a failed remove only leaves a `.tmp`
        // sibling behind.
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

    /// Loads the full profile (tree + timeline) of a stored run.
    /// Transient I/O errors are retried like [`save`](Self::save)'s.
    pub fn load(&self, id: &str) -> Result<ProfileDb, CoreError> {
        with_retry(|| {
            #[cfg(test)]
            inject::check(inject::Point::Open)?;
            ProfileDb::load(File::open(self.path_of(id))?)
        })
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
    use deepcontext_core::{CallingContextTree, Frame, MetricKind, ProfileMeta, TimeNs};
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

    /// Published runs in `dir`: its `.dcprof` files.
    fn runs(dir: &Path) -> usize {
        fs::read_dir(dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension() == Some(EXT.as_ref()))
            .count()
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
        let back = store.load(&id_a).unwrap();
        assert_eq!(back.meta(), a.meta());
        assert_eq!(back.cct().node_count(), a.cct().node_count());
        assert_eq!(
            back.cct().total(MetricKind::GpuTime),
            a.cct().total(MetricKind::GpuTime)
        );
        assert_eq!(back.timeline(), a.timeline());
        assert_eq!(store.load(&id_b).unwrap().meta(), b.meta());
        assert_eq!(runs(&dir), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn colliding_ids_are_uniquified() {
        let (dir, store) = temp_store();
        let p = profile("unet", "h", 7, 1.0);
        let id1 = store.save(&p).unwrap();
        let id2 = store.save(&p).unwrap();
        assert_ne!(id1, id2);
        assert_eq!(runs(&dir), 2);
        assert_eq!(
            store.load(&id1).unwrap().meta(),
            store.load(&id2).unwrap().meta()
        );
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
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "no file left");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn foreign_and_truncated_files_fail_only_their_own_load() {
        let (dir, store) = temp_store();
        fs::write(dir.join("notes.txt"), "not a profile").unwrap();
        fs::write(dir.join("bad.dcprof"), "garbage header").unwrap();
        let id = store.save(&profile("unet", "h", 1, 1.0)).unwrap();
        assert_eq!(store.load(&id).unwrap().meta().workload, "unet");
        assert!(store.load("bad").is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_retries_transient_io_errors_and_succeeds() {
        let (dir, store) = temp_store();
        inject::queue(inject::Point::Publish, &[ErrorKind::Interrupted]);
        let id = store.save(&profile("unet", "h", 1, 1.0)).unwrap();
        assert_eq!(store.load(&id).unwrap().meta().workload, "unet");
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
        assert_eq!(runs(&dir), 0);
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
