//! Shared engine state: the dataset registry, the memoization caches and the metrics.
//!
//! One `EngineState` is shared (via `Arc`) between the public [`Engine`](crate::Engine)
//! handle and every worker thread. Locks are held only for lookups and insertions —
//! never across a context build or a solve — so workers serialize on the caches for
//! microseconds at a time. Workers racing on the same missing context are deduplicated
//! through an in-flight build registry: the first miss claims the build, and concurrent
//! misses join it (counted as `context_builds_deduped` in the metrics). A pool job that
//! joins is parked on the build and its worker goes back to the queue; when the build
//! publishes, the parked jobs are requeued at the head of the queue carrying the result.
//! Only [`Engine::context`](crate::Engine::context), which runs on the caller's thread,
//! blocks on the result. A failed or panicked build answers every joined job and waiter
//! with the error instead of leaving them hanging.

use std::collections::HashMap;
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Instant;

use tagdm_core::context::{MiningContext, SummarizerChoice};
use tagdm_core::problem::TagDmProblem;
use tagdm_core::solvers::SolverOutcome;
use tagdm_data::dataset::Dataset;
use tagdm_data::group::GroupingScheme;

use crate::admission::JobQueue;
use crate::cache::LruCache;
use crate::error::EngineError;
use crate::executor::Job;
use crate::failpoint;
use crate::job::SolverChoice;
use crate::metrics::EngineMetrics;
use crate::spec::{ContextKey, ContextSpec};

/// Acquire a mutex, recovering the guard if a previous holder panicked.
///
/// The three `*_recover` helpers below are the designated lock-acquisition path for
/// the whole workspace (they are re-exported at the crate root so `tagdm-net` and
/// friends share them) — `tagdm-lint` rule LK01 rejects `.lock().unwrap()` (and the
/// `.expect(..)` spelling) everywhere else. Poison recovery is sound here because
/// every structure these locks guard is a plain container (maps, LRU lists, a job
/// deque) with no cross-field invariant a panicking holder could leave half-written,
/// and because the alternative — propagating the poison panic — would turn one caught
/// worker panic into a permanent denial of service for every later caller on the same
/// lock.
pub fn lock_recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire an `RwLock` for reading, recovering from poisoning; see [`lock_recover`].
pub fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire an `RwLock` for writing, recovering from poisoning; see [`lock_recover`].
pub fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Key of a cached solver outcome: the context identity plus a canonical rendering of
/// the problem and the solver choice.
pub(crate) type OutcomeKey = (ContextKey, String);

pub(crate) type BuildResult = Result<Arc<MiningContext>, EngineError>;

/// One in-flight context build: the builder fills `result`, wakes the callers blocked
/// on the condvar and takes back the jobs parked on it.
pub(crate) struct InFlightBuild {
    result: Mutex<BuildSlot>,
    done: Condvar,
}

#[derive(Default)]
struct BuildSlot {
    built: Option<BuildResult>,
    parked: Vec<Job>,
}

impl InFlightBuild {
    fn new() -> Self {
        InFlightBuild {
            result: Mutex::new(BuildSlot::default()),
            done: Condvar::new(),
        }
    }

    fn wait(&self) -> BuildResult {
        let mut slot = lock_recover(&self.result);
        loop {
            match slot.built.as_ref() {
                Some(result) => return result.clone(),
                None => slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }

    /// Park `job` until the build publishes; `queue` counts it in its depth meanwhile.
    /// If the build has already published, the job comes straight back carrying the
    /// result in `Job::built`.
    pub(crate) fn park(&self, mut job: Job, queue: &JobQueue) -> Option<Job> {
        let mut slot = lock_recover(&self.result);
        match &slot.built {
            Some(result) => {
                job.built = Some(result.clone());
                Some(job)
            }
            None => {
                queue.note_parked();
                slot.parked.push(job);
                None
            }
        }
    }

    /// Publish the result: wake blocked callers and return the parked jobs, each
    /// carrying the result, for the caller to requeue once it holds no lock.
    fn fill(&self, result: BuildResult) -> Vec<Job> {
        let mut slot = lock_recover(&self.result);
        let mut parked = std::mem::take(&mut slot.parked);
        for job in &mut parked {
            job.built = Some(result.clone());
        }
        slot.built = Some(result);
        drop(slot);
        self.done.notify_all();
        parked
    }
}

/// Where a context lookup found the context.
pub(crate) enum Lookup<'a> {
    /// A cached or installed context.
    Hit(Arc<MiningContext>),
    /// Nobody is building it: the caller holds the claim and must run the build.
    Claimed(BuildClaim<'a>),
    /// Another caller is building it; join that build instead of duplicating it.
    InFlight(Arc<InFlightBuild>),
}

pub(crate) struct EngineState {
    datasets: RwLock<HashMap<String, Arc<Dataset>>>,
    /// Pre-built contexts pinned under explicit names (never LRU-evicted).
    installed: RwLock<HashMap<String, Arc<MiningContext>>>,
    contexts: Mutex<LruCache<ContextKey, Arc<MiningContext>>>,
    /// Context builds currently running, for racing misses to join instead of
    /// duplicating the work.
    building: Mutex<HashMap<ContextKey, Arc<InFlightBuild>>>,
    outcomes: Mutex<LruCache<OutcomeKey, SolverOutcome>>,
    pub(crate) metrics: EngineMetrics,
}

impl EngineState {
    pub(crate) fn new(context_capacity: usize, outcome_capacity: usize) -> Self {
        EngineState {
            datasets: RwLock::new(HashMap::new()),
            installed: RwLock::new(HashMap::new()),
            contexts: Mutex::new(LruCache::new(context_capacity)),
            building: Mutex::new(HashMap::new()),
            outcomes: Mutex::new(LruCache::new(outcome_capacity)),
            metrics: EngineMetrics::default(),
        }
    }

    pub(crate) fn register_dataset(&self, name: String, dataset: Dataset) -> Arc<Dataset> {
        let dataset = Arc::new(dataset);
        write_recover(&self.datasets).insert(name, Arc::clone(&dataset));
        dataset
    }

    pub(crate) fn dataset(&self, name: &str) -> Option<Arc<Dataset>> {
        read_recover(&self.datasets).get(name).cloned()
    }

    pub(crate) fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recover(&self.datasets).keys().cloned().collect();
        names.sort();
        names
    }

    pub(crate) fn install_context(
        &self,
        name: String,
        context: MiningContext,
    ) -> Arc<MiningContext> {
        let context = Arc::new(context);
        write_recover(&self.installed).insert(name, Arc::clone(&context));
        context
    }

    /// Resolve a context spec on the caller's thread, building it (and requeueing any
    /// pool jobs parked on that build to `queue`) or blocking on a build in flight.
    pub(crate) fn resolve_context(&self, spec: &ContextSpec, queue: &JobQueue) -> BuildResult {
        match self.lookup_context(spec, queue)? {
            Lookup::Hit(context) => Ok(context),
            Lookup::Claimed(claim) => claim.build(spec),
            Lookup::InFlight(slot) => slot.wait(),
        }
    }

    /// Look a context spec up without building it; records hit/miss and dedup metrics.
    /// A claimed build requeues the jobs parked on it to `queue` when it publishes.
    pub(crate) fn lookup_context<'a>(
        &'a self,
        spec: &ContextSpec,
        queue: &'a JobQueue,
    ) -> Result<Lookup<'a>, EngineError> {
        if let ContextSpec::Installed { name } = spec {
            let context = read_recover(&self.installed)
                .get(name)
                .cloned()
                .ok_or_else(|| EngineError::UnknownContext(name.clone()))?;
            self.metrics.context_lookup(true);
            return Ok(Lookup::Hit(context));
        }
        let key = spec.key();
        // The cache is checked under the registry lock, and a builder publishes into
        // the cache before it deregisters, so a build that finished is always found
        // in one or the other: a miss never starts a second build.
        let mut building = lock_recover(&self.building);
        if let Some(context) = lock_recover(&self.contexts).get(&key) {
            self.metrics.context_lookup(true);
            return Ok(Lookup::Hit(context));
        }
        // Miss: join the build in flight, or claim a new one.
        if let Some(slot) = building.get(&key) {
            self.metrics.context_build_deduped();
            self.metrics.context_lookup(false);
            return Ok(Lookup::InFlight(Arc::clone(slot)));
        }
        let slot = Arc::new(InFlightBuild::new());
        building.insert(key.clone(), Arc::clone(&slot));
        Ok(Lookup::Claimed(BuildClaim {
            state: self,
            queue,
            key: Some(key),
            slot,
        }))
    }

    /// Run one grouped-context build (the caller holds the in-flight claim).
    fn build_context(&self, spec: &ContextSpec) -> BuildResult {
        let ContextSpec::Grouped {
            dataset,
            grouping,
            min_group_size,
            summarizer,
        } = spec
        else {
            unreachable!("only grouped specs are built");
        };
        // Unusable LDA settings would otherwise trip an assertion mid-build and be
        // answered as a (transient) worker panic.
        if let SummarizerChoice::Lda(config) = summarizer {
            config.validate().map_err(EngineError::InvalidGrouping)?;
        }
        failpoint::check(failpoint::site::CONTEXT_BUILD)?;
        let dataset = self
            .dataset(dataset)
            .ok_or_else(|| EngineError::UnknownDataset(dataset.clone()))?;
        let started = Instant::now();
        let attrs: Vec<(&str, &str)> = grouping
            .iter()
            .map(|(dim, attr)| (dim.as_str(), attr.as_str()))
            .collect();
        let groups = GroupingScheme::over(&dataset, &attrs)
            .map_err(|e| EngineError::InvalidGrouping(e.to_string()))?
            .min_group_size(*min_group_size)
            .enumerate(&dataset);
        let context = Arc::new(MiningContext::build(&dataset, groups, *summarizer));
        self.metrics.record_context_build(started.elapsed());
        Ok(context)
    }

    /// The outcome-cache key for a request triple.
    pub(crate) fn outcome_key(
        context_key: &ContextKey,
        solver: &SolverChoice,
        problem: &TagDmProblem,
    ) -> OutcomeKey {
        let fingerprint = format!(
            "{}|{}",
            solver.tag(),
            serde_json::to_string(problem).expect("problems serialize infallibly")
        );
        (context_key.clone(), fingerprint)
    }

    /// Look up a cached outcome, recording the hit/miss.
    pub(crate) fn lookup_outcome(&self, key: &OutcomeKey) -> Option<SolverOutcome> {
        let cached = lock_recover(&self.outcomes).get(key);
        self.metrics.outcome_lookup(cached.is_some());
        cached
    }

    pub(crate) fn store_outcome(&self, key: OutcomeKey, outcome: SolverOutcome) {
        lock_recover(&self.outcomes).insert(key, outcome);
    }
}

/// The builder's claim on an in-flight context build. [`build`](Self::build) publishes
/// the result explicitly; if the build unwinds instead (a panicking summarizer, an
/// injected `state.context_build` panic), `Drop` publishes a `WorkerPanicked` error so
/// joined jobs and waiters get a failure instead of hanging.
pub(crate) struct BuildClaim<'a> {
    state: &'a EngineState,
    queue: &'a JobQueue,
    key: Option<ContextKey>,
    slot: Arc<InFlightBuild>,
}

impl BuildClaim<'_> {
    /// Run the claimed build and publish it: into the context cache first, then to
    /// everyone who joined it.
    pub(crate) fn build(mut self, spec: &ContextSpec) -> BuildResult {
        let built = self.state.build_context(spec);
        if let (Ok(context), Some(key)) = (&built, &self.key) {
            self.state.metrics.context_lookup(false);
            lock_recover(&self.state.contexts).insert(key.clone(), Arc::clone(context));
        }
        self.release(built.clone());
        built
    }

    /// Fill the slot, deregister the claim, then requeue the parked jobs with no lock
    /// held.
    fn release(&mut self, result: BuildResult) {
        if let Some(key) = self.key.take() {
            let parked = self.slot.fill(result);
            lock_recover(&self.state.building).remove(&key);
            self.queue.requeue(parked);
        }
    }
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        self.release(Err(EngineError::WorkerPanicked {
            payload: "context build panicked".to_string(),
        }));
    }
}
