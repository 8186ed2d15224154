// Re-acquiring a lock whose guard is still live in the same function:
// a guaranteed self-deadlock, caught by the file-local discipline rule.
use parking_lot::Mutex;

pub struct S {
    a: Mutex<u32>,
}

impl S {
    fn twice(&self) -> u32 {
        let ga = self.a.lock();
        let gb = self.a.lock();
        *ga + *gb
    }
}
