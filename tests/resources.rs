//! Resource bounds of the serving layer under sustained traffic.
//!
//! The tests read process-wide counters from `/proc/self/status`, so they
//! live in a test binary of their own: no other test's threads or
//! allocations share the process.

use bitonic_core::tagged::sorted_independently;
use bitonic_network::Direction;
use obs::TraceConfig;
use sort_service::{
    BulkConfig, ClassConfig, ServiceConfig, ShardedConfig, ShardedService, SortRequest,
};

/// A `/proc/self/status` field's leading number (`Threads:` counts,
/// `Vm*:` sizes in kB).
fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in /proc/self/status"))
}

/// Two 2-rank bands up to 64 and 256 keys; anything larger is split.
fn bulk_bands() -> ShardedConfig {
    let base = ServiceConfig::new(2);
    let cfg = ShardedConfig {
        classes: vec![
            ClassConfig::new("small", 64, base),
            ClassConfig::new("large", 256, base),
        ],
        steal_after: None,
        autoscale: None,
        trace: TraceConfig::off(),
        bulk: BulkConfig::on(),
    };
    cfg.validate();
    cfg
}

/// Every bulk request runs on a coordinator thread of its own. A finished
/// coordinator that is never joined leaves the kernel's thread list but
/// keeps its stack mapped (about 2 MiB of address space each), so held
/// handles show in `VmSize`, not in `Threads`. Both must stay flat over a
/// few hundred sequential bulk requests.
#[test]
fn sequential_bulk_requests_hold_no_finished_coordinators() {
    let sharded = ShardedService::start(bulk_bands());
    let mut x = 0x9E37_79B9u32;
    let mut run = |count: usize| {
        for _ in 0..count {
            let keys: Vec<u32> = (0..300)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    x
                })
                .collect();
            let expect = sorted_independently(&keys, Direction::Ascending);
            let reply = sharded
                .submit(SortRequest::new(keys, Direction::Ascending))
                .expect("bulk submit")
                .wait()
                .expect("bulk request completes");
            assert_eq!(reply, expect);
        }
    };
    run(20);
    let (threads0, vm0) = (status_field("Threads:"), status_field("VmSize:"));
    run(300);
    let (threads1, vm1) = (status_field("Threads:"), status_field("VmSize:"));
    let stats = sharded.shutdown().stats;
    assert_eq!(stats.bulk_completed, 320);
    assert!(
        threads1 <= threads0 + 2,
        "threads grew from {threads0} to {threads1}"
    );
    // 300 held coordinators would map about 600 MiB of stacks.
    assert!(
        vm1 < vm0 + 128 * 1024,
        "VmSize grew from {vm0} kB to {vm1} kB over 300 bulk requests"
    );
}
