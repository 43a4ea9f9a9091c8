//! Connection/server lifecycle regressions. The headline one: shutting a
//! server down must complete promptly even while idle clients sit on
//! open connections — the threaded design could hang `join()` until
//! every idle peer disconnected on its own; the event loop is woken
//! explicitly and closes them. Also here: the one socket check that the
//! shell's own clock drives the protocol core's `tick()` (what a tick
//! decides is the core's, tested on parked shards).

#![allow(
    clippy::disallowed_methods,
    reason = "a watchdog thread bounds each test"
)]

use fv_net::{BalanceMode, Client, Server, ServerConfig};
use std::time::{Duration, Instant};

fn server() -> Server {
    Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind")
}

/// Run `f` on a watchdog thread; panic if it does not finish in time.
fn within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what} did not complete within {limit:?}"));
    let _ = h.join();
}

#[test]
fn shutdown_join_completes_under_idle_open_connections() {
    // Regression: `shutdown(); join()` used to block until idle clients
    // hung up, because nothing woke their blocked reader threads.
    let server = server();
    let addr = server.local_addr().to_string();
    let mut idle1 = Client::connect(&addr).unwrap();
    idle1.ping().unwrap();
    let mut idle2 = Client::connect(&addr).unwrap();
    idle2.use_session("parked").unwrap();
    // both connections stay open and silent across the shutdown
    within(Duration::from_secs(10), "shutdown+join", move || {
        server.shutdown();
        server.join();
    });
    // the parked clients observe the close instead of hanging forever
    assert!(idle1.ping().is_err(), "server is gone");
    drop(idle2);
}

#[test]
fn wire_shutdown_stops_the_server_despite_other_idle_connections() {
    let server = server();
    let addr = server.local_addr().to_string();
    let mut idle = Client::connect(&addr).unwrap();
    idle.ping().unwrap();
    let mut closer = Client::connect(&addr).unwrap();
    within(Duration::from_secs(10), "wire shutdown", move || {
        closer.shutdown_server().unwrap();
        server.join();
    });
    assert!(idle.ping().is_err(), "server is gone");
}

#[test]
fn clients_connected_mid_shutdown_are_refused_not_stranded() {
    let server = server();
    let addr = server.local_addr().to_string();
    server.shutdown();
    server.join();
    // after join, the listener is gone: connects fail fast
    assert!(Client::connect(&addr).is_err());
}

#[test]
fn the_shells_clock_ticks_the_balancer() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            balance_interval: Duration::from_millis(20),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    client.set_balance(BalanceMode::Auto).unwrap();
    // Nobody hands this server its ticks: only the event loop's timer can
    // move the counter, and a tick's gather has to complete for it to.
    let deadline = Instant::now() + Duration::from_secs(10);
    let before = client.balance_status().unwrap().ticks;
    while client.balance_status().unwrap().ticks == before {
        assert!(Instant::now() < deadline, "no tick after 10 s of 20 ms");
        std::thread::sleep(Duration::from_millis(10));
    }
    let status = client.balance_status().unwrap();
    assert_eq!(status.mode, BalanceMode::Auto);
    assert!(client.stats().unwrap().balancer_ticks >= status.ticks);
    server.shutdown();
    server.join();
}
