// Library code writing to stdout: output belongs to binaries; libraries
// report through telemetry events or return values.
fn log(n: u64) {
    println!("{n}");
}
