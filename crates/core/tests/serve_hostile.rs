//! Hostile-client battery for `repro serve` (DESIGN.md "Durability
//! model"): clients that misbehave at the transport layer — oversized
//! frames, half-written requests, slow-loris senders, stalled readers —
//! must get deterministic typed error frames (or a quiet reap), never
//! hang a handler thread or take the server down; and shutdown must
//! drain established connections with a typed frame instead of cutting
//! them off mid-protocol.

use mlperf_suite::serve::{self, protocol, ServeOptions, ServeStats, Server};
use mlperf_suite::Config;
use std::io::{Cursor, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn test_config(jobs: usize) -> Config {
    Config { jobs, cache_enabled: false, ..Config::default() }
}

fn sock(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mlperf_hostile_{name}.sock"));
    let _ = std::fs::remove_file(&p);
    p
}

fn shut_down(socket: &Path) {
    let mut input = Cursor::new(br#"{"v":1,"kind":"shutdown"}"#.to_vec());
    let mut out = Vec::new();
    serve::replay_client(socket, &mut input, &mut out).expect("shutdown");
}

/// Connect a raw (non-protocol) client. The generous client-side read
/// timeout turns a server that never closes into a test failure instead
/// of a hang.
fn connect(socket: &Path) -> UnixStream {
    let stream = UnixStream::connect(socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    stream
}

/// Read until the server closes the connection; panics if it never does.
fn read_to_eof(stream: &mut UnixStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) => panic!("server never closed the hostile connection: {e}"),
        }
    }
}

/// Read until the connection goes away, by clean EOF *or* reset — a
/// forcibly reaped client has no claim to a graceful close.
fn read_until_closed(stream: &mut UnixStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return out,
            Err(e) => panic!("server neither closed nor reset the connection: {e}"),
        }
    }
}

/// Read one `\n`-terminated frame.
fn read_frame(stream: &mut UnixStream) -> String {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => panic!("connection closed mid-frame: {out:?}"),
            Ok(_) if byte[0] == b'\n' => {
                out.push(b'\n');
                return String::from_utf8(out).expect("utf8 frame");
            }
            Ok(_) => out.push(byte[0]),
            Err(e) => panic!("read stalled mid-frame: {e}"),
        }
    }
}

/// Bind a server, run the hostile scenario against it, then shut it
/// down cleanly and hand back the stats — proving the server survived
/// the abuse well enough to exit on request.
fn with_server<T>(
    opts: &ServeOptions,
    cfg: &Config,
    scenario: impl FnOnce(&Path) -> T,
) -> (T, ServeStats) {
    let server = Server::bind(opts, cfg).expect("bind");
    let out = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run().expect("serve"));
        // Shut the server down even when the scenario fails an
        // assertion; otherwise the scope hangs joining the daemon and
        // the panic never surfaces.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scenario(server.socket())
        }));
        shut_down(server.socket());
        daemon.join().expect("daemon panicked");
        out.unwrap_or_else(|p| std::panic::resume_unwind(p))
    });
    (out, server.stats())
}

/// A healthy protocol exchange proving the server still answers.
fn assert_alive(socket: &Path) {
    let mut input = Cursor::new(br#"{"v":1,"id":"alive","kind":"ping"}"#.to_vec());
    let mut out = Vec::new();
    serve::replay_client(socket, &mut input, &mut out).expect("liveness ping");
    assert_eq!(
        String::from_utf8(out).unwrap(),
        protocol::pong_frame("alive"),
        "server stopped answering after hostile traffic"
    );
}

#[test]
fn oversized_frames_get_a_typed_error_then_the_connection_closes() {
    for jobs in [1usize, 4] {
        let opts = ServeOptions {
            socket: sock(&format!("oversize_j{jobs}")),
            max_frame: 128,
            ..ServeOptions::default()
        };
        let expected =
            protocol::error_frame("-", protocol::FRAME_TOO_LARGE, "request frame exceeds 128 bytes");
        let (frames, stats) = with_server(&opts, &test_config(jobs), |socket| {
            // A terminated oversized line, and an unterminated flood (the
            // limit must trip on buffered bytes without waiting for a
            // newline that may never come).
            let mut frames = Vec::new();
            for terminated in [true, false] {
                let mut s = connect(socket);
                let mut payload = vec![b'x'; 4096];
                if terminated {
                    payload.push(b'\n');
                }
                s.write_all(&payload).expect("hostile write");
                frames.push(String::from_utf8(read_to_eof(&mut s)).unwrap());
            }
            assert_alive(socket);
            frames
        });
        for frame in &frames {
            assert_eq!(frame, &expected, "oversized-frame answer must be typed and exact");
        }
        assert_eq!(stats.frames_too_large, 2);
        // A frame of exactly the limit is legal: the limit is a max, not
        // a fence below it (the bad-request answer proves it was parsed).
        let opts = ServeOptions {
            socket: sock(&format!("exact_j{jobs}")),
            max_frame: 128,
            ..ServeOptions::default()
        };
        let ((), stats) = with_server(&opts, &test_config(jobs), |socket| {
            let mut s = connect(socket);
            let mut line = vec![b'y'; 127];
            line.push(b'\n');
            s.write_all(&line).expect("write");
            let frame = read_frame(&mut s);
            assert!(
                frame.contains(protocol::BAD_REQUEST),
                "an exactly-max frame must reach the parser: {frame}"
            );
        });
        assert_eq!(stats.frames_too_large, 0);
    }
}

#[test]
fn half_written_requests_are_dropped_without_a_response() {
    let opts = ServeOptions { socket: sock("partial"), ..ServeOptions::default() };
    let ((), stats) = with_server(&opts, &test_config(2), |socket| {
        let mut s = connect(socket);
        s.write_all(br#"{"v":1,"kind":"pi"#).expect("partial write");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let answer = read_to_eof(&mut s);
        assert!(
            answer.is_empty(),
            "a fragment must never be parsed or answered: {answer:?}"
        );
        assert_alive(socket);
    });
    assert_eq!(stats.dropped_partial, 1);
    assert_eq!(stats.error_responses, 0, "the fragment must not count as a bad request");
}

#[test]
fn slow_loris_senders_are_reaped_at_the_frame_deadline() {
    let opts = ServeOptions {
        socket: sock("loris"),
        read_timeout_ms: 300,
        ..ServeOptions::default()
    };
    let ((), stats) = with_server(&opts, &test_config(2), |socket| {
        // A mute connection: never sends a byte.
        let mut mute = connect(socket);
        assert!(read_to_eof(&mut mute).is_empty(), "mute client got a response");

        // A trickler: keeps the socket technically active, one byte at a
        // time, but never finishes a frame inside the deadline. Per-read
        // timeouts alone would never fire; the per-frame budget must.
        let mut trickle = connect(socket);
        let query = br#"{"v":1,"kind":"ping"}"#;
        let mut cut_off = false;
        for byte in query.iter().cycle().take(40) {
            if trickle.write_all(std::slice::from_ref(byte)).is_err() {
                cut_off = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(150));
        }
        if !cut_off {
            // The write side may outlive the reap by one buffered byte;
            // the read side must still see the hang-up.
            let _ = read_until_closed(&mut trickle);
        }
        assert_alive(socket);
    });
    assert!(
        stats.reaped >= 2,
        "both the mute and the trickling client must be reaped, got {}",
        stats.reaped
    );
    assert_eq!(stats.queries, 2, "only the liveness ping and shutdown were parsed");
}

#[test]
fn stalled_readers_are_reaped_at_the_write_deadline() {
    let opts = ServeOptions {
        socket: sock("stalled_reader"),
        write_timeout_ms: 300,
        ..ServeOptions::default()
    };
    let ((), stats) = with_server(&opts, &test_config(2), |socket| {
        let mut s = connect(socket);
        // Demand far more response bytes than a socket buffer holds and
        // never read them: the server's writes must hit the deadline
        // instead of blocking this handler thread forever. Pings keep
        // the response volume exact (one pong per query) and the server
        // CPU-idle, so only the stalled read side can be what trips it.
        let query = b"{\"v\":1,\"id\":\"flood\",\"kind\":\"ping\"}\n";
        for _ in 0..40_000 {
            if s.write_all(query).is_err() {
                break; // the reap can close the socket mid-flood
            }
        }
        // Drain whatever was buffered; the reap shows up as EOF or a
        // reset (the server closed with our unread flood still queued).
        let _ = read_until_closed(&mut s);
        assert_alive(socket);
    });
    assert!(stats.reaped >= 1, "the stalled reader was never reaped");
}

#[test]
fn shutdown_drains_established_connections_with_a_typed_frame() {
    for jobs in [1usize, 4] {
        let opts = ServeOptions {
            socket: sock(&format!("drain_j{jobs}")),
            ..ServeOptions::default()
        };
        let server = Server::bind(&opts, &test_config(jobs)).expect("bind");
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| server.run().expect("serve"));

            // Client A establishes a healthy session...
            let mut a = connect(server.socket());
            a.write_all(b"{\"v\":1,\"id\":\"a1\",\"kind\":\"ping\"}\n").unwrap();
            assert_eq!(read_frame(&mut a), protocol::pong_frame("a1"));

            // ...then client B orders shutdown and holds the ack. The
            // flag is stored before the ack is written, so A's next
            // query is guaranteed to see the drain.
            shut_down(server.socket());
            a.write_all(
                b"{\"v\":1,\"id\":\"a2\",\"kind\":\"cell\",\"workload\":\"MLPf_Res50_MX\",\"system\":\"DSS_8440\",\"gpus\":4}\n",
            )
            .unwrap();
            assert_eq!(
                read_frame(&mut a),
                protocol::error_frame("a2", protocol::SHUTTING_DOWN, "server is draining"),
                "drained query must get the typed shutting-down frame"
            );
            // The drain frame is the connection's last: the server closes
            // A, joins every handler, and exits cleanly.
            assert!(read_to_eof(&mut a).is_empty());
            daemon.join().expect("daemon panicked");
        });
        let stats = server.stats();
        assert_eq!(stats.drained, 1, "exactly one query was drained");
        assert!(!server.socket().exists(), "socket must be unlinked on exit");
    }
}
