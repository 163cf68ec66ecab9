//! The span-path sampling profiler: a zero-dependency answer to "where
//! does CPU/wall time go" for NLS builds and for serve under load.
//!
//! ## How it works
//!
//! Every instrumented thread *mirrors* its current span path — the
//! stack of open [`super::span`]s plus any lightweight [`frame`]s —
//! into a shared, fixed-size **seqlock slot**. A sampler thread walks
//! all slots at a configurable rate and aggregates span-path →
//! sample-count, which renders as folded-stacks text
//! (`frame;frame;frame count`, directly consumable by `flamegraph.pl`)
//! and a top-N self-time table.
//!
//! ## The seqlock protocol
//!
//! Each slot holds a sequence counter, a depth, and a fixed array of
//! interned frame ids. The *owning thread* is the only writer:
//!
//! 1. writer: load `seq` (relaxed; it is the sole writer), store
//!    `seq + 1` (relaxed), then a **`Release` fence** — the fence keeps
//!    the data stores from sinking above the odd "write in progress"
//!    marker;
//! 2. writer: store depth and frame ids (relaxed stores);
//! 3. writer: store `seq + 2` with `Release` — even again, ordered
//!    after the data.
//!
//! The sampler loads `seq` with `Acquire` (ordering the data loads
//! after it); an odd value means a write is in flight, so it retries.
//! After reading depth and frames it issues an **`Acquire` fence** and
//! loads `seq` again (relaxed) — the fence keeps the data loads from
//! sinking below the second `seq` load, so an unchanged even value
//! proves the window was quiet and the sample is consistent; anything
//! else discards the read. (Without the fences, weakly-ordered CPUs may
//! reorder the data accesses across the seq checks and a torn path can
//! pass validation.) No lock is ever held, so a suspended sampler can
//! never stall a worker, and a worker's mirror cost is a handful of
//! relaxed stores.
//!
//! Frame *names* never cross the seqlock: they are interned once into
//! small integer ids (a mutex-guarded table, hit only on the first
//! occurrence of each name per call site in the common case), and the
//! sampler resolves ids back to names at aggregation time.
//!
//! Mirroring has its own toggle ([`set_mirroring`] / `PATCHDB_SAMPLER`)
//! so the per-span cost can be priced independently of the span
//! registry; the sampler itself runs either inline ([`profile_for`],
//! behind `GET /debug/profile`) or continuously
//! ([`BackgroundSampler`]). Sampling observes and never steers:
//! toggling it cannot change output bytes.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use super::Switch;
use crate::json::Json;

/// Deepest span path a slot can mirror; deeper paths are truncated to
/// their outermost [`MAX_DEPTH`] frames.
pub const MAX_DEPTH: usize = 32;

/// The stack name reported for a sampled thread with no open frames.
pub const IDLE_FRAME: &str = "(idle)";

static SWITCH: Switch = Switch::new("PATCHDB_SAMPLER");

/// Whether span-path mirroring is on (the `PATCHDB_SAMPLER` [`Switch`]).
#[inline]
pub fn mirroring() -> bool {
    SWITCH.on()
}

/// Programmatic override of the `PATCHDB_SAMPLER` toggle.
pub fn set_mirroring(on: bool) {
    SWITCH.set(on);
}

/// The name-interning table: names in, dense `u32` ids out.
struct Intern {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

fn intern_table() -> &'static Mutex<Intern> {
    static TABLE: OnceLock<Mutex<Intern>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Intern { ids: HashMap::new(), names: Vec::new() }))
}

fn intern(name: &str) -> u32 {
    let mut table = intern_table().lock().unwrap();
    if let Some(&id) = table.ids.get(name) {
        return id;
    }
    let id = table.names.len() as u32;
    table.names.push(name.to_owned());
    table.ids.insert(name.to_owned(), id);
    id
}

fn resolve(ids: &[u32]) -> String {
    let table = intern_table().lock().unwrap();
    ids.iter()
        .map(|&id| table.names.get(id as usize).map_or("?", String::as_str))
        .collect::<Vec<_>>()
        .join(";")
}

/// One thread's shared mirror of its current span path. See the module
/// docs for the seqlock protocol.
struct PathSlot {
    seq: AtomicU64,
    depth: AtomicUsize,
    frames: [AtomicU32; MAX_DEPTH],
}

impl PathSlot {
    fn new() -> PathSlot {
        PathSlot {
            seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }

    /// Writer side (owning thread only): odd-publish, store, even-publish.
    fn write(&self, path: &[u32]) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        // Keep the data stores from sinking above the odd marker; a
        // `Release` on the odd store itself orders nothing that follows.
        fence(Ordering::Release);
        let depth = path.len().min(MAX_DEPTH);
        for (slot, &frame) in self.frames.iter().zip(path.iter().take(MAX_DEPTH)) {
            slot.store(frame, Ordering::Relaxed);
        }
        self.depth.store(depth, Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Reader side (the sampler): returns `None` when a write raced the
    /// read — the sampler just moves on to the next slot.
    fn read(&self) -> Option<Vec<u32>> {
        for _ in 0..4 {
            let before = self.seq.load(Ordering::Acquire);
            if before % 2 == 1 {
                continue; // write in progress
            }
            let depth = self.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
            let mut path = Vec::with_capacity(depth);
            for frame in &self.frames[..depth] {
                path.push(frame.load(Ordering::Relaxed));
            }
            // Keep the data loads from sinking below the validating seq
            // load; an `Acquire` on that load orders nothing before it.
            fence(Ordering::Acquire);
            let after = self.seq.load(Ordering::Relaxed);
            if before == after {
                return Some(path);
            }
        }
        None
    }
}

fn slots() -> &'static Mutex<Vec<Arc<PathSlot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<PathSlot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    /// This thread's open frame ids, outermost first.
    static PATH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static SLOT: Arc<PathSlot> = {
        let slot = Arc::new(PathSlot::new());
        slots().lock().unwrap().push(Arc::clone(&slot));
        slot
    };
}

/// Pushes `name` onto this thread's mirrored span path. Returns whether
/// the push happened (mirroring was on) — the caller must balance a
/// `true` with one [`pop_frame`]. Prefer the RAII [`frame`] wrapper.
pub fn push_frame(name: &str) -> bool {
    if !mirroring() {
        return false;
    }
    let id = intern(name);
    PATH.with(|p| {
        let mut path = p.borrow_mut();
        path.push(id);
        SLOT.with(|s| s.write(&path));
    });
    true
}

/// Pops the innermost mirrored frame (the balance of a successful
/// [`push_frame`]).
pub fn pop_frame() {
    PATH.with(|p| {
        let mut path = p.borrow_mut();
        path.pop();
        SLOT.with(|s| s.write(&path));
    });
}

/// An RAII mirrored frame for hot paths that cannot afford a full
/// [`super::span`] (which grows the span registry per call): one intern
/// lookup and a seqlock publish on entry, a publish on drop, nothing in
/// the global registry. This is how the serve event loop and workers
/// appear in profiles.
#[must_use = "a frame mirrors nothing unless the guard lives to the end of the scope"]
pub struct FrameGuard {
    pushed: bool,
}

/// Opens a mirrored frame named `name`. A no-op guard when mirroring is
/// off.
pub fn frame(name: &str) -> FrameGuard {
    FrameGuard { pushed: push_frame(name) }
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if self.pushed {
            pop_frame();
        }
    }
}

/// Aggregated samples from one profiling run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Sampling rate the run asked for.
    pub hz: u64,
    /// Wall-clock seconds the run covered.
    pub seconds: f64,
    /// Thread-samples taken (threads observed × sweeps).
    pub samples: u64,
    /// `;`-joined span path → samples observed in that path. Threads
    /// with no open frames aggregate under [`IDLE_FRAME`].
    pub stacks: BTreeMap<String, u64>,
}

impl Profile {
    /// Folded-stacks text: one `path count` line per distinct path,
    /// sorted by path — feed straight into `flamegraph.pl`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.stacks {
            out.push_str(&format!("{stack} {count}\n"));
        }
        out
    }

    /// The top `n` frames by *self* samples — samples whose path ends
    /// at that frame — as `(frame, self_samples)` descending (frame
    /// name ascending on ties, so the table is deterministic for a
    /// given sample set).
    pub fn self_time_top(&self, n: usize) -> Vec<(String, u64)> {
        let mut by_leaf: BTreeMap<&str, u64> = BTreeMap::new();
        for (stack, count) in &self.stacks {
            let leaf = stack.rsplit(';').next().unwrap_or(stack);
            *by_leaf.entry(leaf).or_insert(0) += count;
        }
        let mut top: Vec<(String, u64)> =
            by_leaf.into_iter().map(|(f, c)| (f.to_owned(), c)).collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(n);
        top
    }

    /// Serializes as `schema patchdb-profile/v1`: run parameters, the
    /// folded-stacks text, and the top-10 self-time table.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("patchdb-profile/v1".into())),
            ("hz".into(), Json::Num(self.hz as f64)),
            ("seconds".into(), Json::Num(self.seconds)),
            ("samples".into(), Json::Num(self.samples as f64)),
            ("folded".into(), Json::Str(self.folded())),
            (
                "self_top".into(),
                Json::Arr(
                    self.self_time_top(10)
                        .into_iter()
                        .map(|(frame, samples)| {
                            Json::Obj(vec![
                                ("frame".into(), Json::Str(frame)),
                                ("samples".into(), Json::Num(samples as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One sweep over every registered slot, folded into `agg` (by interned
/// path; the empty path counts as idle). Returns threads sampled.
fn sample_once(agg: &mut BTreeMap<Vec<u32>, u64>) -> u64 {
    let slots = slots().lock().unwrap();
    let mut sampled = 0;
    for slot in slots.iter() {
        if let Some(path) = slot.read() {
            sampled += 1;
            *agg.entry(path).or_insert(0) += 1;
        }
    }
    sampled
}

fn finish_profile(
    agg: BTreeMap<Vec<u32>, u64>,
    hz: u64,
    seconds: f64,
    samples: u64,
) -> Profile {
    let mut stacks = BTreeMap::new();
    for (path, count) in agg {
        let name =
            if path.is_empty() { IDLE_FRAME.to_owned() } else { resolve(&path) };
        *stacks.entry(name).or_insert(0) += count;
    }
    Profile { hz, seconds, samples, stacks }
}

/// Clamps a requested rate into something the sleep loop can honor.
fn clamp_hz(hz: u64) -> u64 {
    hz.clamp(1, 1000)
}

/// Samples every registered thread inline for `duration` at `hz`
/// (clamped to `1..=1000`), blocking the calling thread. This is the
/// `GET /debug/profile?seconds=&hz=` path.
pub fn profile_for(duration: Duration, hz: u64) -> Profile {
    let hz = clamp_hz(hz);
    let period = Duration::from_nanos(1_000_000_000 / hz);
    let started = Instant::now();
    let mut agg = BTreeMap::new();
    let mut samples = 0;
    loop {
        samples += sample_once(&mut agg);
        if started.elapsed() >= duration {
            break;
        }
        std::thread::sleep(period);
    }
    finish_profile(agg, hz, started.elapsed().as_secs_f64(), samples)
}

/// A continuously running sampler thread; [`BackgroundSampler::stop`]
/// joins it and returns the accumulated [`Profile`]. This is what
/// `patchdb profile` runs around a build, and what the serve bench's
/// sampler pricing row runs during its drive.
pub struct BackgroundSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<(BTreeMap<Vec<u32>, u64>, u64)>>,
    hz: u64,
    started: Instant,
}

impl BackgroundSampler {
    /// Spawns the sampler thread at `hz` (clamped to `1..=1000`).
    pub fn start(hz: u64) -> BackgroundSampler {
        let hz = clamp_hz(hz);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let period = Duration::from_nanos(1_000_000_000 / hz);
        let handle = std::thread::Builder::new()
            .name("patchdb-sampler".to_owned())
            .spawn(move || {
                let mut agg = BTreeMap::new();
                let mut samples = 0;
                while !stop_flag.load(Ordering::Relaxed) {
                    samples += sample_once(&mut agg);
                    std::thread::sleep(period);
                }
                (agg, samples)
            })
            .expect("spawn sampler thread");
        BackgroundSampler { stop, handle: Some(handle), hz, started: Instant::now() }
    }

    /// Stops the sampler thread and returns what it aggregated.
    pub fn stop(mut self) -> Profile {
        self.stop.store(true, Ordering::Relaxed);
        let (agg, samples) = self
            .handle
            .take()
            .expect("sampler joined once")
            .join()
            .expect("sampler thread panicked");
        finish_profile(agg, self.hz, self.started.elapsed().as_secs_f64(), samples)
    }
}

impl Drop for BackgroundSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the process-global mirroring state.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn frames_mirror_and_resolve_in_stack_order() {
        let _g = guard();
        set_mirroring(true);
        let observed = {
            let _outer = frame("outer");
            let _inner = frame("inner");
            // Read back this thread's own slot the way the sampler would.
            SLOT.with(|s| s.read()).expect("uncontended slot read")
        };
        set_mirroring(false);
        assert_eq!(resolve(&observed), "outer;inner");
        // Guards popped their frames on drop.
        PATH.with(|p| assert!(p.borrow().is_empty()));
    }

    #[test]
    fn mirroring_off_pushes_nothing() {
        let _g = guard();
        set_mirroring(false);
        let guard = frame("ghost");
        assert!(!guard.pushed);
        PATH.with(|p| assert!(p.borrow().is_empty()));
    }

    #[test]
    fn deep_paths_truncate_to_max_depth() {
        let ids: Vec<u32> = (0..MAX_DEPTH as u32 + 8).collect();
        let slot = PathSlot::new();
        slot.write(&ids);
        let read = slot.read().expect("uncontended read");
        assert_eq!(read.len(), MAX_DEPTH);
        assert_eq!(read[..], ids[..MAX_DEPTH]);
    }

    #[test]
    fn profile_folds_stacks_and_ranks_self_time() {
        let mut profile = Profile {
            hz: 97,
            seconds: 1.0,
            samples: 10,
            stacks: BTreeMap::new(),
        };
        profile.stacks.insert("build;augment".into(), 6);
        profile.stacks.insert("build".into(), 3);
        profile.stacks.insert(IDLE_FRAME.into(), 1);
        let folded = profile.folded();
        assert!(folded.contains("build;augment 6\n"), "{folded}");
        assert!(folded.contains("build 3\n"), "{folded}");
        let top = profile.self_time_top(2);
        assert_eq!(top[0], ("augment".to_owned(), 6));
        assert_eq!(top[1], ("build".to_owned(), 3));
        let json = profile.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("patchdb-profile/v1")
        );
        assert!(json.get("folded").and_then(Json::as_str).unwrap().contains(';'));
    }

    #[test]
    fn background_sampler_catches_a_busy_thread() {
        let _g = guard();
        set_mirroring(true);
        let sampler = BackgroundSampler::start(500);
        {
            let _f = frame("sampler.target");
            std::thread::sleep(Duration::from_millis(60));
        }
        let profile = sampler.stop();
        set_mirroring(false);
        assert!(profile.samples > 0, "sampler took no samples");
        assert!(
            profile.stacks.keys().any(|s| s.contains("sampler.target")),
            "busy frame never sampled: {:?}",
            profile.stacks
        );
    }

    #[test]
    fn seqlock_read_rejects_a_torn_window() {
        // Simulate the torn case directly: an odd seq means a write is
        // in flight and the reader must refuse the slot.
        let slot = PathSlot::new();
        slot.write(&[1, 2]);
        slot.seq.store(slot.seq.load(Ordering::Relaxed) + 1, Ordering::Release);
        assert!(slot.read().is_none(), "reader accepted an in-progress write");
    }
}
