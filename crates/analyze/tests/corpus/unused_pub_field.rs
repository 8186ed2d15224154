// A public field that no other file names: only its own constructor sets
// it and only its own method reads it, so its visibility serves no one —
// it is a constant in disguise. The private field beside it is not
// flagged, and neither is the public struct.
pub struct Retrainer {
    pub window_secs: u64,
    seen: u64,
}

fn with_default_window() -> Retrainer {
    Retrainer {
        window_secs: 30,
        seen: 0,
    }
}

impl Retrainer {
    fn due(&self) -> bool {
        self.seen >= self.window_secs
    }
}
