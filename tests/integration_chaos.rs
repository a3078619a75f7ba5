//! Chaos soak test: the service survives a deterministic storm of
//! injected worker panics, stalls, and transient failures, then fully
//! recovers.
//!
//! This is the in-process twin of the `si_chaos` load generator, scoped
//! to CI speed. A seeded [`FaultPlan`] sabotages a concurrent
//! duplicate-heavy workload; afterwards the test asserts the service's
//! fault-tolerance conservation laws:
//!
//! - **zero wedged requests** — every submission returned (success or
//!   typed error) and the pool drained to zero in-flight;
//! - **zero leaked state** — the cancellation-flag map is empty;
//! - **exactly-once semantics survive retries** — each distinct key's
//!   cached output is served to every later caller;
//! - **bit-identical cache after recovery** — each cached value equals a
//!   fresh solve on a brand-new workspace, bit for bit.

use std::sync::Arc;
use std::time::Duration;

use si_analog::engine::EngineWorkspace;
use si_bench::harness::{bit_identical, fan_out, quiet_injected_panics};
use si_service::fault::{FaultInjector, FaultPlan};
use si_service::jobspec::JobSpec;
use si_service::retry::RetryPolicy;
use si_service::service::{ServiceConfig, SiService};

fn spec(k: usize) -> JobSpec {
    JobSpec::DelayLineTran {
        stages: 8,
        bias_ua: 20.0,
        input_ua: 0.5 + 0.01 * k as f64,
        steps: 24,
        dt_ns: 50.0,
        clock_hz: 1e6,
    }
}

fn metric(service: &SiService, section: &str, name: &str) -> f64 {
    service
        .metrics()
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(si_service::json::Json::as_f64)
        .unwrap_or_else(|| panic!("missing metric {section}.{name}"))
}

#[test]
fn chaos_storm_recovers_with_bit_identical_cache() {
    const CLIENTS: usize = 6;
    const DISTINCT: usize = 60;
    const SUBMISSIONS_PER_CLIENT: usize = 60;

    quiet_injected_panics();
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: 3,
        queue_capacity: 32,
        default_deadline: None,
        retry: RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            multiplier: 2,
            jitter_seed: None,
        },
        ..ServiceConfig::default()
    }));
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        seed: 1234,
        panic_pm: 120,
        stall_pm: 80,
        transient_pm: 120,
        drop_pm: 0,
        panic_mid_chunk_pm: 0,
        stall: Duration::from_millis(10),
        max_faults: u64::MAX,
    }));
    service.install_fault_injector(Arc::clone(&injector));

    // Chaos phase: duplicate-heavy concurrent workload under injection.
    // Every submission returned — the fan-out joining proves none wedged.
    fan_out(CLIENTS * SUBMISSIONS_PER_CLIENT, CLIENTS, None, |_, j| {
        service.submit_blocking(&spec(j % DISTINCT), None)
    });

    let faults = injector.stats();
    assert!(
        faults.injected >= 20,
        "plan injected only {} faults; the storm was a breeze",
        faults.injected
    );

    // Recovery phase: disarm, then every key must resolve and match a
    // fresh solve bit for bit.
    injector.disarm();
    let mut fresh_ws = EngineWorkspace::new();
    for k in 0..DISTINCT {
        let spec = spec(k);
        let (out, _) = service
            .submit_blocking(&spec, None)
            .unwrap_or_else(|e| panic!("key {k} failed to resolve after recovery: {e}"));
        let fresh = spec.run(&mut fresh_ws).expect("fresh solve");
        assert!(
            bit_identical(&out.values, &fresh.values),
            "key {k} differs from a fresh solve: {:?} vs {:?}",
            out.values,
            fresh.values
        );
    }

    // No stuck work, no leaked cancellation flags, and the panic storm
    // actually went through the containment machinery.
    for _ in 0..500 {
        if metric(&service, "pool", "in_flight") == 0.0 && service.cancel_flags_len() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(metric(&service, "pool", "in_flight"), 0.0, "stuck requests");
    assert_eq!(service.cancel_flags_len(), 0, "cancel flags leaked");
    if faults.panics > 0 {
        assert!(
            metric(&service, "pool", "panics_caught") >= faults.panics as f64,
            "injected panics were not all caught by the pool"
        );
        assert!(
            metric(&service, "cache", "abandoned_flights") >= 1.0,
            "panicking leaders never exercised the abandoned-flight backstop"
        );
    }
    if faults.transients > 0 {
        assert!(
            metric(&service, "service", "retries") >= 1.0,
            "transient faults never triggered a service-side retry"
        );
    }

    service.shutdown();
}

/// A panicking leader with live followers: the followers must be
/// released with a typed error or ride a retry to success — never hang —
/// and the key must stay usable afterwards.
#[test]
fn followers_of_a_panicking_leader_are_released() {
    quiet_injected_panics();
    let service = Arc::new(SiService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        default_deadline: None,
        retry: RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(5),
            multiplier: 2,
            jitter_seed: None,
        },
        ..ServiceConfig::default()
    }));
    // Panic on the first execution only; retries run clean.
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        seed: 0,
        panic_pm: 1000,
        stall_pm: 0,
        transient_pm: 0,
        drop_pm: 0,
        panic_mid_chunk_pm: 0,
        stall: Duration::ZERO,
        max_faults: 1,
    }));
    service.install_fault_injector(injector);

    // Many concurrent callers of the SAME key: one leads (and panics on
    // its first attempt), the rest coalesce.
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..8 {
            let service = Arc::clone(&service);
            handles.push(scope.spawn(move || service.submit_blocking(&spec(0), None)));
        }
        for h in handles {
            // Success (leader retried, or follower re-coalesced onto the
            // retry) is the expected end state with retries enabled.
            let result = h.join().expect("caller thread must not panic");
            assert!(
                result.is_ok(),
                "caller did not recover from the injected panic: {result:?}"
            );
        }
    });
    assert_eq!(metric(&service, "pool", "panics_caught"), 1.0);
    assert_eq!(service.cancel_flags_len(), 0, "cancel flags leaked");
    service.shutdown();
}
