//! Named fault-injection sites for deterministic failure testing.
//!
//! With the `failpoints` cargo feature enabled, tests arm named sites inside the
//! engine's hot paths — the job executor, the worker loop, the context-build path and
//! the outcome-cache lookup — to force panics, artificial delays and injected errors
//! exactly where and as often as they choose. Without the feature the whole module
//! compiles down to an always-`Ok` inline stub, so production builds pay nothing.
//!
//! The registry is process-global (it models faults in the process, not in one
//! engine), so tests that arm failpoints must serialize themselves and disarm on exit;
//! see `tests/fault_tolerance.rs` for the pattern.

#[cfg(not(feature = "failpoints"))]
use crate::error::EngineError;

/// The named injection sites the engine evaluates. Arming any other name is legal but
/// will never fire.
pub mod site {
    /// Start of each worker-loop iteration, *outside* the panic-isolation boundary and
    /// before a job is dequeued: a panic here kills the worker thread (exercising
    /// supervision) without losing any job.
    pub const WORKER_LOOP: &str = "worker.loop";
    /// Start of a dequeued job's execution, *inside* the panic-isolation boundary: a
    /// panic here is caught and answered as [`EngineError::WorkerPanicked`].
    ///
    /// [`EngineError::WorkerPanicked`]: crate::EngineError::WorkerPanicked
    pub const RUN_JOB: &str = "executor.run_job";
    /// Inside a context build, after the in-flight registry claimed the build: errors
    /// and panics here propagate to every deduplicated waiter.
    pub const CONTEXT_BUILD: &str = "state.context_build";
    /// Just before the solver-outcome cache lookup (delays exercise queue pressure).
    pub const OUTCOME_LOOKUP: &str = "state.outcome_lookup";
    /// Start of each `tagdm-net` acceptor-loop iteration, *outside* any connection
    /// boundary: a panic here kills the acceptor thread, exercising its respawn
    /// guard.
    pub const NET_ACCEPT: &str = "net.accept";
    /// Start of each `tagdm-net` connection handler (evaluated once per accepted
    /// connection), *inside* the connection's panic-isolation boundary: a panic
    /// here closes that connection only.
    pub const NET_CONN: &str = "net.conn";
    /// Just before `tagdm-net` writes a response frame: a delay models a client that
    /// stopped reading mid-response (socket buffers full), so the per-connection
    /// write deadline can be exercised deterministically.
    pub const NET_WRITE_FRAME: &str = "net.write_frame";
}

#[cfg(feature = "failpoints")]
pub use enabled::*;

#[cfg(feature = "failpoints")]
mod enabled {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    use crate::error::EngineError;
    use crate::state::lock_recover;

    /// What an armed failpoint does when it fires.
    #[derive(Debug, Clone)]
    pub enum FailAction {
        /// Panic with the given message.
        Panic(String),
        /// Sleep for the given duration, then continue normally.
        Delay(Duration),
        /// Surface the given error from the site.
        Error(EngineError),
        /// Sleep, then surface the error — lets a "slow build that fails" be modelled
        /// so concurrent misses have time to join the in-flight build.
        DelayedError(Duration, EngineError),
    }

    struct Armed {
        action: FailAction,
        /// Fire on every `one_in`-th hit (1 = every hit).
        one_in: u64,
        /// Stop firing after this many firings; 0 = unlimited.
        times: u64,
        hits: u64,
        fired: u64,
    }

    static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        REGISTRY.get_or_init(Mutex::default)
    }

    fn lock() -> std::sync::MutexGuard<'static, HashMap<String, Armed>> {
        // The registry holds no invariants a panicking holder could corrupt.
        lock_recover(registry())
    }

    /// Arm `site` to fire `action` on every hit until disarmed.
    pub fn arm(site: &str, action: FailAction) {
        arm_one_in(site, 1, action);
    }

    /// Arm `site` to fire `action` on every `one_in`-th hit (deterministic, counter
    /// based — the first firing is the `one_in`-th hit).
    pub fn arm_one_in(site: &str, one_in: u64, action: FailAction) {
        lock().insert(
            site.to_string(),
            Armed {
                action,
                one_in: one_in.max(1),
                times: 0,
                hits: 0,
                fired: 0,
            },
        );
    }

    /// Arm `site` to fire `action` on its first `times` hits, then fall silent.
    pub fn arm_times(site: &str, times: u64, action: FailAction) {
        lock().insert(
            site.to_string(),
            Armed {
                action,
                one_in: 1,
                times,
                hits: 0,
                fired: 0,
            },
        );
    }

    /// Disarm one site.
    pub fn disarm(site: &str) {
        lock().remove(site);
    }

    /// Disarm every site.
    pub fn disarm_all() {
        lock().clear();
    }

    /// How many times `site` has been evaluated (armed sites only).
    pub fn hits(site: &str) -> u64 {
        lock().get(site).map_or(0, |armed| armed.hits)
    }

    /// Evaluate a site: no-op unless armed and due to fire. Public so out-of-crate
    /// subsystems (the `tagdm-net` transport) can place sites of their own; their
    /// names still live in [`site`](super::site) so the registry stays single.
    pub fn check(site: &str) -> Result<(), EngineError> {
        let action = {
            let mut registry = lock();
            match registry.get_mut(site) {
                None => return Ok(()),
                Some(armed) => {
                    armed.hits += 1;
                    let due = armed.hits % armed.one_in == 0
                        && (armed.times == 0 || armed.fired < armed.times);
                    if due {
                        armed.fired += 1;
                        Some(armed.action.clone())
                    } else {
                        None
                    }
                }
            }
        };
        match action {
            None => Ok(()),
            Some(FailAction::Panic(message)) => panic!("failpoint `{site}`: {message}"),
            Some(FailAction::Delay(delay)) => {
                std::thread::sleep(delay);
                Ok(())
            }
            Some(FailAction::Error(error)) => Err(error),
            Some(FailAction::DelayedError(delay, error)) => {
                std::thread::sleep(delay);
                Err(error)
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn counter_based_firing_is_deterministic() {
            let site = "unit.counter";
            arm_one_in(site, 3, FailAction::Error(EngineError::Shutdown));
            assert!(check(site).is_ok());
            assert!(check(site).is_ok());
            assert_eq!(check(site), Err(EngineError::Shutdown));
            assert!(check(site).is_ok());
            assert!(check(site).is_ok());
            assert_eq!(check(site), Err(EngineError::Shutdown));
            assert_eq!(hits(site), 6);
            disarm(site);
            assert!(check(site).is_ok());
        }

        #[test]
        fn times_budget_exhausts() {
            let site = "unit.times";
            arm_times(site, 2, FailAction::Error(EngineError::Shutdown));
            assert!(check(site).is_err());
            assert!(check(site).is_err());
            assert!(check(site).is_ok());
            assert!(check(site).is_ok());
            disarm(site);
        }

        #[test]
        fn unarmed_sites_are_noops() {
            assert!(check("unit.never-armed").is_ok());
        }
    }
}

/// Evaluate a site. Without the `failpoints` feature this is an inlined no-op.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn check(_site: &str) -> Result<(), EngineError> {
    Ok(())
}
