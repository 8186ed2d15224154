// A public function that no other file names: nothing outside this file
// calls it, so its visibility serves no one. The private helper it calls
// is not flagged, and neither is the public struct.
pub struct Counter {
    hits: u64,
}

pub fn orphaned_total(c: &Counter) -> u64 {
    doubled(c.hits)
}

fn doubled(v: u64) -> u64 {
    v * 2
}
