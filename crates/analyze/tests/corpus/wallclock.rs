// Library code reading the host clock: breaks deterministic replay and
// the byte-identical recovery guarantees.
fn stamp() -> u64 {
    std::time::Instant::now().elapsed().as_secs()
}
