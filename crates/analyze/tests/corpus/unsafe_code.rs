// The workspace forbids unsafe everywhere: a from-scratch simulation has
// no FFI and no reason for it.
fn read(p: *const u8) -> u8 {
    unsafe { *p }
}
