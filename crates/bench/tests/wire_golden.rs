//! Golden wire bytes for the tracker ↔ peer protocol: one sample of
//! every peer and tracker message variant (every `Ack` status too),
//! pinned to the exact payload bytes it encodes to. A codec refactor
//! must leave every line here untouched; a deliberate format change
//! needs a new format revision, not an edited fixture.

use ba_bench::distrib::{
    decode_peer, decode_tracker, encode_peer, encode_tracker, CompleteOutcome, PeerMsg, TrackerMsg,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn peer_goldens() -> Vec<(PeerMsg, &'static str)> {
    vec![
        (
            PeerMsg::Hello {
                name: "peer-0".into(),
                fingerprint: "seed=42".into(),
            },
            "01\
             0600000000000000706565722d30\
             0700000000000000736565643d3432",
        ),
        (PeerMsg::Claim, "02"),
        (
            PeerMsg::Complete {
                cell: 7,
                epoch: 3,
                rows: vec!["meta,n=10".into(), "c,0;1".into()],
            },
            "03\
             0700000000000000\
             0300000000000000\
             0200000000000000\
             09000000000000006d6574612c6e3d3130\
             0500000000000000632c303b31",
        ),
        (
            PeerMsg::Failed {
                cell: 7,
                epoch: 3,
                reason: "boom".into(),
            },
            "04\
             0700000000000000\
             0300000000000000\
             0400000000000000626f6f6d",
        ),
        (
            PeerMsg::Heartbeat { cell: 7, epoch: 3 },
            "05\
             0700000000000000\
             0300000000000000",
        ),
    ]
}

fn tracker_goldens() -> Vec<(TrackerMsg, &'static str)> {
    vec![
        (
            TrackerMsg::Welcome {
                worker: 2,
                heartbeat_ms: 500,
            },
            "01\
             0200000000000000\
             f401000000000000",
        ),
        (
            TrackerMsg::Reject {
                reason: "mismatch".into(),
            },
            "02\
             08000000000000006d69736d61746368",
        ),
        (
            TrackerMsg::Lease { cell: 11, epoch: 4 },
            "03\
             0b00000000000000\
             0400000000000000",
        ),
        (TrackerMsg::Wait { poll_ms: 50 }, "043200000000000000"),
        (TrackerMsg::Done, "05"),
        (
            TrackerMsg::Ack {
                status: CompleteOutcome::Accepted,
            },
            "0600",
        ),
        (
            TrackerMsg::Ack {
                status: CompleteOutcome::Duplicate,
            },
            "0601",
        ),
        (
            TrackerMsg::Ack {
                status: CompleteOutcome::Stale,
            },
            "0602",
        ),
    ]
}

#[test]
fn peer_message_bytes_are_pinned() {
    for (msg, golden) in peer_goldens() {
        assert_eq!(hex(&encode_peer(&msg)), golden, "{msg:?}");
        assert_eq!(decode_peer(&unhex(golden)).unwrap(), msg);
    }
}

#[test]
fn tracker_message_bytes_are_pinned() {
    for (msg, golden) in tracker_goldens() {
        assert_eq!(hex(&encode_tracker(&msg)), golden, "{msg:?}");
        assert_eq!(decode_tracker(&unhex(golden)).unwrap(), msg);
    }
}
