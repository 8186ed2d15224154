// Iterating a HashMap on a hot path lets hash-order nondeterminism leak
// into whatever the loop produces — here an accumulator whose overflow
// behaviour (and any downstream float math) is order-sensitive.
use std::collections::HashMap;

pub struct Flows {
    map: HashMap<u64, u8>,
}

impl Flows {
    pub fn hot_entry(&self) -> u64 {
        let mut out = 0u64;
        for (k, v) in &self.map {
            out = out.wrapping_mul(31).wrapping_add(k + u64::from(*v));
        }
        out
    }
}
