//! The ATE daemon: serves THP/2 over TCP until a client sends Shutdown.
//!
//! ```text
//! cargo run --release -p gigatest-atd --bin atd -- --addr 127.0.0.1:4815
//! ```
//!
//! Configuration comes from the environment: `EXEC_THREADS` sizes the
//! worker pool, `ATD_QUEUE_DEPTH` bounds admission, and
//! `ATD_CACHE_ENTRIES` bounds the result cache. The bound address is
//! printed on stdout as `atd listening on <addr>` so wrappers can bind
//! port 0 and discover the ephemeral port.

use std::net::TcpListener;

use atd::Service;

const DEFAULT_ADDR: &str = "127.0.0.1:4815";

fn parse_addr() -> Result<String, String> {
    let mut args = std::env::args().skip(1);
    let mut addr = DEFAULT_ADDR.to_string();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => return Err("--addr requires a value".to_string()),
            },
            "--help" | "-h" => {
                return Err(format!("usage: atd [--addr HOST:PORT]   (default {DEFAULT_ADDR})"))
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(addr)
}

fn run() -> Result<(), String> {
    let addr = parse_addr()?;
    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    println!("atd listening on {local}");

    let service = serve_until_shutdown(&listener)?;
    let stats = service.stats();
    eprintln!(
        "atd: served {} jobs ({} cache hits, {} batched, {} shed, {} failed)",
        stats.submitted, stats.cache_hits, stats.batched, stats.shed, stats.failed
    );
    Ok(())
}

fn serve_until_shutdown(listener: &TcpListener) -> Result<Service, String> {
    atd::serve(listener, Service::from_env()).map_err(|e| format!("serve failed: {e}"))
}

fn main() {
    if let Err(message) = run() {
        eprintln!("atd: {message}");
        std::process::exit(2);
    }
}
