//! Calibration harness: prints simulated-vs-paper Table IV anchors.

fn main() {
    match mlperf_suite::experiments::table4::run_ctx(&mlperf_suite::Ctx::new()) {
        Ok(t) => print!("{}", mlperf_suite::experiments::table4::render(&t)),
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    }
}
