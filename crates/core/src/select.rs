//! Multiplexed consumption over several streams.
//!
//! The decoupled groups of the case studies often sit between *two* flows
//! — e.g. the CG boundary group consumes faces while producing combined
//! halo packets, and a PIC communication rank may consume exits from the
//! compute group while consuming control traffic from a master. This
//! module provides first-come-first-served draining across two channels
//! without busy-waiting.

use crate::stream::{Stream, Wait};
use crate::transport::Transport;
use crate::wire::Wire;

/// Drain two consumer endpoints first-come-first-served until **both**
/// have seen every producer terminate. Returns the element counts
/// processed from each.
///
/// Elements are taken in availability order across both channels, so a
/// burst on one stream cannot starve the other: whenever either has a
/// message ready it is processed; when neither does, the rank suspends
/// until its mailbox changes.
pub fn operate2<A, B, TP: Transport>(
    rank: &mut TP,
    a: &mut Stream<A>,
    b: &mut Stream<B>,
    mut on_a: impl FnMut(&mut TP, A),
    mut on_b: impl FnMut(&mut TP, B),
) -> (u64, u64)
where
    A: Wire + Send + 'static,
    B: Wire + Send + 'static,
{
    let (mut na, mut nb) = (0u64, 0u64);
    loop {
        let mut progressed = false;
        // Any consumed message is progress, a `Term` included.
        if !a.all_terminated() {
            if let Some(ev) = a.step(rank, Wait::Poll, &mut on_a) {
                na += ev.elems;
                progressed = true;
            }
        }
        if !b.all_terminated() {
            if let Some(ev) = b.step(rank, Wait::Poll, &mut on_b) {
                nb += ev.elems;
                progressed = true;
            }
        }
        if a.all_terminated() && b.all_terminated() {
            return (na, nb);
        }
        if !progressed {
            rank.wait_for_mail();
        }
    }
}

#[cfg(test)]
mod tests {
    // Integration-level tests live in `tests/streams.rs`
    // (`operate2_*`): this module needs a full simulated world.
}
