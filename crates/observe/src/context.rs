//! Trace contexts and their thread-local propagation stack.
//!
//! The simulation pipeline is synchronous on the driver thread: a
//! packet-in punted by the dataplane runs the controller, Athena's
//! southbound elements, the store quorum write, and the detection
//! verdict before the punt returns. A thread-local stack of
//! [`TraceContext`]s is therefore enough to stitch the full request
//! path: each span guard pushes its context on creation and pops it when
//! finished, and any span opened in between becomes its child.
//!
//! Pool worker closures never open causal spans (see DESIGN.md §8), so
//! the stack never needs to cross threads and trace-id allocation stays
//! on the driver thread — the property that makes the id stream
//! byte-identical at any `ATHENA_THREADS`.

use std::cell::RefCell;

/// The causal identity carried through a cross-subsystem hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The request's trace id (seed-derived, shared by every span on the
    /// path).
    pub trace_id: u64,
    /// The span this context belongs to — the parent of anything opened
    /// under it.
    pub span_id: u64,
}

thread_local! {
    static STACK: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// The innermost active context on this thread, if any.
pub fn current() -> Option<TraceContext> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Pushes `ctx` as the innermost context.
pub(crate) fn push(ctx: TraceContext) {
    STACK.with(|s| s.borrow_mut().push(ctx));
}

/// Pops the innermost context matching `ctx` (guards finish in LIFO
/// order, but a defensive scan keeps a leaked guard from wedging the
/// stack).
pub(crate) fn pop(ctx: TraceContext) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.last() == Some(&ctx) {
            stack.pop();
        } else if let Some(pos) = stack.iter().rposition(|c| *c == ctx) {
            stack.remove(pos);
        }
    });
}

/// SplitMix64: the seed-to-id mix used for trace ids. Deterministic,
/// well-dispersed, dependency-free.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_push_pop_nests() {
        let a = TraceContext {
            trace_id: 1,
            span_id: 10,
        };
        let b = TraceContext {
            trace_id: 1,
            span_id: 11,
        };
        push(a);
        push(b);
        assert_eq!(current(), Some(b));
        pop(b);
        assert_eq!(current(), Some(a));
        pop(a);
        assert_eq!(current(), None);
    }

    #[test]
    fn out_of_order_pop_removes_the_right_entry() {
        let a = TraceContext {
            trace_id: 2,
            span_id: 20,
        };
        let b = TraceContext {
            trace_id: 2,
            span_id: 21,
        };
        push(a);
        push(b);
        pop(a);
        assert_eq!(current(), Some(b));
        pop(b);
        assert_eq!(current(), None);
    }

    #[test]
    fn splitmix_is_deterministic_and_disperses() {
        assert_eq!(splitmix64(7), splitmix64(7));
        assert_ne!(splitmix64(7), splitmix64(8));
    }
}
