// guarded() holds a lock across a call to notify(), which dispatches on
// the event bus. The bus call is one hop away, so only the call-graph
// pass can see it — the file-local lock-discipline rule checks direct
// bus calls in the same guard window only.
use parking_lot::Mutex;

pub struct Bus;

impl Bus {
    fn dispatch(&self, _n: u32) {}
}

pub struct S {
    a: Mutex<u32>,
    bus: Bus,
}

impl S {
    fn guarded(&self) -> u32 {
        let ga = self.a.lock();
        self.notify(*ga);
        *ga
    }

    fn notify(&self, n: u32) {
        self.bus.dispatch(n);
    }
}
