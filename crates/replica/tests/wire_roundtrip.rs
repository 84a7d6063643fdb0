//! Property tests of the replication wire protocol: every [`VsrMsg`] and
//! [`TakeoverMsg`] round-trips through the `Wire` codec, its `wire_len`
//! counting exactly the bytes it encodes to, and every
//! malformed frame — truncations at each byte offset, trailing garbage,
//! bad discriminants, oversized length prefixes — decodes to a typed
//! [`WireError`], never a panic and never an attacker-sized allocation.

use mpistream::{Wire, WireError, MAX_WIRE_ELEMS};
use proptest::prelude::*;
use replica::{CreditMsg, RepState, Snapshot, TakeoverMsg, VsrMsg};

/// Round trip, and the length invariant: `wire_len` counts exactly the
/// bytes `encode` puts (the socket backend sizes a frame by it).
fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.to_frame();
    prop_assert_eq!(v.wire_len(), bytes.len(), "wire_len of {:?}", v);
    let back = T::from_frame(&bytes);
    prop_assert_eq!(back.as_ref().ok(), Some(v), "decode failed: {:?}", back.as_ref().err());
}

/// Every strict prefix of a valid frame must fail with a typed error,
/// and every strict extension must report trailing bytes.
fn total_on_prefixes<T: Wire + std::fmt::Debug>(v: &T) {
    let bytes = v.to_frame();
    for cut in 0..bytes.len() {
        prop_assert!(T::from_frame(&bytes[..cut]).is_err(), "prefix {cut} decoded");
    }
    let mut extended = bytes.clone();
    extended.push(0);
    prop_assert!(
        matches!(T::from_frame(&extended), Err(WireError::TrailingBytes { .. })),
        "extended frame must report trailing bytes"
    );
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (any::<u64>(), prop::collection::vec(any::<u8>(), 0..48))
        .prop_map(|(op_num, state)| Snapshot { op_num, state })
}

fn arb_vsr_msg() -> impl Strategy<Value = VsrMsg> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(view, op_num, commit_num, state)| VsrMsg::Prepare {
                view,
                op_num,
                commit_num,
                state
            }),
        (any::<u64>(), any::<u64>(), 0usize..8)
            .prop_map(|(view, op_num, from)| VsrMsg::PrepareOk { view, op_num, from }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(view, commit_num)| VsrMsg::Commit { view, commit_num }),
        (any::<u64>(), 0usize..8).prop_map(|(view, from)| VsrMsg::StartViewChange { view, from }),
        (any::<u64>(), any::<u64>(), arb_snapshot(), any::<u64>(), 0usize..8).prop_map(
            |(view, last_normal, snapshot, commit_num, from)| VsrMsg::DoViewChange {
                view,
                last_normal,
                snapshot,
                commit_num,
                from
            }
        ),
        (any::<u64>(), arb_snapshot(), any::<u64>()).prop_map(|(view, snapshot, commit_num)| {
            VsrMsg::StartView { view, snapshot, commit_num }
        }),
        (0usize..8, any::<u64>()).prop_map(|(from, nonce)| VsrMsg::Recovery { from, nonce }),
        ((any::<u64>(), any::<u64>(), 0usize..8), (any::<bool>(), arb_snapshot(), any::<u64>()))
            .prop_map(|((view, nonce, from), (some, snap, commit))| VsrMsg::RecoveryResponse {
                view,
                nonce,
                from,
                primary: some.then_some((snap, commit)),
            }),
        any::<u64>().prop_map(|view| VsrMsg::Shutdown { view }),
    ]
}

fn arb_takeover_msg() -> impl Strategy<Value = TakeoverMsg> {
    prop_oneof![
        (any::<u64>(), prop::collection::vec((any::<u64>(), any::<u64>()), 0..16))
            .prop_map(|(view, cursors)| TakeoverMsg::Announce { view, cursors }),
        any::<u64>().prop_map(|view| TakeoverMsg::TermAck { view }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn vsr_messages_round_trip(msg in arb_vsr_msg()) {
        roundtrip(&msg);
        total_on_prefixes(&msg);
    }

    #[test]
    fn takeover_messages_round_trip(msg in arb_takeover_msg()) {
        roundtrip(&msg);
        total_on_prefixes(&msg);
    }

    #[test]
    fn rep_state_round_trips(
        acc in prop::collection::vec(any::<u8>(), 0..64),
        cursors in prop::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        claims in prop::collection::vec((any::<u64>(), any::<u64>()), 0..8),
        elements in any::<u64>(),
        batches in any::<u64>(),
        bytes in any::<u64>(),
    ) {
        let rep = RepState {
            acc,
            ckpt: mpistream::ConsumerCheckpoint { cursors, claims, elements, batches, bytes },
        };
        roundtrip(&rep);
        total_on_prefixes(&rep);
    }

    #[test]
    fn credit_messages_round_trip(view in any::<u64>(), acked in any::<u64>()) {
        let credit = CreditMsg { view, acked };
        roundtrip(&credit);
        total_on_prefixes(&credit);
    }

    #[test]
    fn truncated_prepares_never_panic(
        msg in arb_vsr_msg(),
        cut_seed in any::<u64>(),
        garbage in any::<u8>(),
    ) {
        let bytes = msg.to_frame();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(VsrMsg::from_frame(&bytes[..cut]).is_err());
        // Corrupting the discriminant byte either yields another valid
        // message or a typed error — never a panic.
        let mut corrupted = bytes.clone();
        corrupted[0] = garbage;
        let _ = VsrMsg::from_frame(&corrupted);
    }
}

#[test]
fn bad_discriminants_are_typed() {
    assert!(matches!(VsrMsg::from_frame(&[9]), Err(WireError::BadDiscriminant { got: 9 })));
    assert!(matches!(VsrMsg::from_frame(&[255]), Err(WireError::BadDiscriminant { got: 255 })));
    assert!(matches!(TakeoverMsg::from_frame(&[2]), Err(WireError::BadDiscriminant { got: 2 })));
    assert!(matches!(VsrMsg::from_frame(&[]), Err(WireError::Truncated { .. })));
}

#[test]
fn oversized_state_claims_error_without_allocating() {
    // A Prepare whose state length prefix claims more elements than the
    // codec cap must be rejected before any allocation near the claim.
    let mut frame = vec![0u8]; // Prepare discriminant
    1u64.encode(&mut frame); // view
    2u64.encode(&mut frame); // op_num
    1u64.encode(&mut frame); // commit_num
    (MAX_WIRE_ELEMS + 7).encode(&mut frame); // state length prefix
    assert!(matches!(VsrMsg::from_frame(&frame), Err(WireError::LengthOverflow { .. })));
    // Under the cap but beyond the buffer: fails on the missing bytes.
    let mut frame = vec![0u8];
    1u64.encode(&mut frame);
    2u64.encode(&mut frame);
    1u64.encode(&mut frame);
    4096u64.encode(&mut frame);
    assert!(matches!(VsrMsg::from_frame(&frame), Err(WireError::Truncated { .. })));
}

/// The `Prepare` frame as the codec wrote it before `Vec<u8>` state
/// became a block copy (bytes captured at that commit; the rest of the
/// golden set is in `crates/core/tests/wire_roundtrip.rs`).
#[test]
fn prepare_frame_is_byte_identical_to_the_element_wise_format() {
    let prepare =
        VsrMsg::Prepare { view: 2, op_num: 7, commit_num: 6, state: vec![0xDE, 0xAD, 0xBE, 0xEF] };
    let hex: String = prepare.to_frame().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, "000200000000000000070000000000000006000000000000000400000000000000deadbeef");
    assert_eq!(VsrMsg::from_frame(&prepare.to_frame()).unwrap(), prepare);
}
