//! Envelope allocations are recycled.
//!
//! Every control message, doorbell and reply travels as an
//! `Arc<Envelope>` — one allocation a broadcast shares among its recipients
//! and a unicast hands through untouched. In steady state messages are made
//! at the rate they are consumed, so the allocation a delivered message
//! leaves behind serves the next one sent: [`EnvelopePool::share`] is the one
//! place an envelope's `Arc` is made, and [`EnvelopePool::recycle`] is where
//! the machine returns it once the last recipient has run.
//!
//! The pool is host-side scratch, not bus state: which allocation carries a
//! message is invisible to the simulation, so it is never snapshotted and a
//! restored bus starts with an empty one.

use std::sync::Arc;

use crate::message::Envelope;

/// Free allocations kept at most. A machine has a few dozen messages in
/// flight; what a burst leaves beyond this is handed back to the allocator.
const KEEP: usize = 256;

/// A free list of envelope allocations.
#[derive(Debug, Default)]
pub struct EnvelopePool {
    free: Vec<Arc<Envelope>>,
}

impl EnvelopePool {
    /// Puts `env` behind an `Arc`, reusing a recycled allocation when there
    /// is one.
    pub fn share(&mut self, env: Envelope) -> Arc<Envelope> {
        match self.free.pop() {
            Some(mut slot) => {
                *Arc::get_mut(&mut slot).expect("only unique allocations are kept") = env;
                slot
            }
            None => Arc::new(env),
        }
    }

    /// Takes back a message that has been delivered. If this was the last
    /// reference (the last recipient of a broadcast, or a unicast's only
    /// one) the allocation is kept for [`EnvelopePool::share`]; otherwise
    /// this just drops the reference.
    pub fn recycle(&mut self, mut env: Arc<Envelope>) {
        if self.free.len() < KEEP && Arc::get_mut(&mut env).is_some() {
            self.free.push(env);
        }
    }

    /// Forgets every kept allocation.
    pub fn clear(&mut self) {
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DeviceId, RequestId};
    use crate::message::{Dst, Payload};
    use lastcpu_sim::CorrId;

    fn heartbeat(req: u64) -> Envelope {
        Envelope {
            src: DeviceId(1),
            dst: Dst::Bus,
            req: RequestId(req),
            corr: CorrId::NONE,
            payload: Payload::Heartbeat,
        }
    }

    #[test]
    fn a_recycled_allocation_carries_the_next_message() {
        let mut pool = EnvelopePool::default();
        let first = pool.share(heartbeat(1));
        let at = Arc::as_ptr(&first);
        pool.recycle(first);
        let second = pool.share(heartbeat(2));
        assert_eq!(Arc::as_ptr(&second), at);
        assert_eq!(second.req, RequestId(2));
    }

    #[test]
    fn a_message_still_referenced_is_not_reused() {
        let mut pool = EnvelopePool::default();
        let first = pool.share(heartbeat(1));
        let other_recipient = Arc::clone(&first);
        pool.recycle(first);
        let second = pool.share(heartbeat(2));
        assert!(!Arc::ptr_eq(&second, &other_recipient));
        assert_eq!(other_recipient.req, RequestId(1));
        // The last reference does come back.
        pool.recycle(other_recipient);
        assert_eq!(pool.free.len(), 1);
    }

    #[test]
    fn the_free_list_is_bounded() {
        let mut pool = EnvelopePool::default();
        let burst: Vec<_> = (0..KEEP as u64 + 10)
            .map(|i| pool.share(heartbeat(i)))
            .collect();
        burst.into_iter().for_each(|e| pool.recycle(e));
        assert_eq!(pool.free.len(), KEEP);
    }
}
