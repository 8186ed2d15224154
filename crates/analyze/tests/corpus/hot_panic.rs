// hot_entry is a declared hot seed; helper() is reachable from it, so
// the unwrap one hop down inherits the no-panic obligation even though
// nothing hot appears in helper's own body.
pub fn hot_entry(v: u8) -> u8 {
    helper(v)
}

fn helper(v: u8) -> u8 {
    Some(v).unwrap()
}
