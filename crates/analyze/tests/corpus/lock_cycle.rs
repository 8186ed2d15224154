// Two methods nest the same pair of locks in opposite orders: the
// derived acquisition graph gains edges a→b and b→a, a cycle. A
// concurrent interleaving of ab() and ba() deadlocks.
use parking_lot::Mutex;

pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl S {
    fn ab(&self) -> u32 {
        let ga = self.a.lock();
        let gb = self.b.lock();
        *ga + *gb
    }

    fn ba(&self) -> u32 {
        let gb = self.b.lock();
        let ga = self.a.lock();
        *ga + *gb
    }
}
