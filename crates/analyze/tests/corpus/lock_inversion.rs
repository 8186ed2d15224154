// The declared order lists a before b; this acquisition nests b→a.
// No cycle (there is only one edge), but the edge contradicts the
// declared total order.
use parking_lot::Mutex;

pub struct S {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl S {
    fn inverted(&self) -> u32 {
        let gb = self.b.lock();
        let ga = self.a.lock();
        *ga + *gb
    }
}
