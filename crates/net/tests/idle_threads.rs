//! The event-loop property, in a test binary of its own: the assertion
//! counts *process-wide* threads (`/proc/self/task`), so no sibling test
//! may boot servers or client threads in the same process — alone here,
//! the process-wide count IS the server's own, and the equality over 256
//! connections can stay exact. Keep this file at one test.

use fv_net::{Client, Server, ServerConfig};
use std::io::Write;
use std::time::Duration;

/// Threads in this process, via /proc (Linux). `None` elsewhere.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn idle_connections_cost_no_threads() {
    // The event-loop property the transport rewrite exists for: the
    // server's thread count is 1 loop + N shards, independent of how
    // many connections are open. 256 live connections must not add a
    // single thread.
    const N_CONNS: usize = 256;
    let before_bind = thread_count();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    // Prove the server is up (and fully spawned) before the baseline.
    let mut probe = Client::connect(&addr).unwrap();
    probe.ping().unwrap();
    let baseline = thread_count();

    let mut conns = Vec::with_capacity(N_CONNS);
    for i in 0..N_CONNS {
        let mut c =
            Client::connect(&addr).unwrap_or_else(|e| panic!("connection {i} refused: {e}"));
        c.ping()
            .unwrap_or_else(|e| panic!("connection {i} not served: {e}"));
        conns.push(c);
    }
    // every connection is live and answered; none of them cost a thread
    if let (Some(before), Some(after)) = (baseline, thread_count()) {
        assert_eq!(
            after, before,
            "connection count leaked into thread count ({before} -> {after})"
        );
    }
    // they all still work (round-robin a second ping through a sample)
    for c in conns.iter_mut().step_by(17) {
        c.ping().unwrap();
    }
    drop(conns);

    // Churn: real work, a migration, and a burst written then dropped
    // unread. None of it may leave a thread behind once the server is
    // shut down and joined.
    probe.use_session("churn").unwrap();
    probe.roundtrip("scenario 60 1").unwrap().unwrap();
    probe.migrate("churn", 1).unwrap();
    let mut vanishing = std::net::TcpStream::connect(&addr).unwrap();
    let burst = b"use churn\ncluster_all\nscroll 1\nsession_info\n";
    vanishing.write_all(burst).unwrap();
    drop(vanishing);
    server.shutdown();
    server.join();
    // Joined threads can linger in /proc for a moment while the OS reaps
    // them; give it a bounded while.
    if let Some(before) = before_bind {
        let mut after = thread_count();
        for _ in 0..50 {
            if after <= Some(before) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            after = thread_count();
        }
        assert_eq!(after, Some(before), "threads outlived the server");
    }
}
