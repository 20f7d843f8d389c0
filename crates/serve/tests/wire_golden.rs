//! Golden wire bytes for the scoring protocol: one sample of every
//! request and response variant, pinned to the exact payload bytes it
//! encodes to. A codec refactor must leave every line here untouched;
//! a deliberate format change needs a new format revision, not an
//! edited fixture.

use ba_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    ERR_UNKNOWN_EPOCH, LATEST,
};
use ba_stream::StreamEvent;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn request_goldens() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::PointScore { epoch: 3, node: 17 },
            "01030000000000000011000000",
        ),
        (
            Request::TopK {
                epoch: LATEST,
                k: 10,
            },
            "02ffffffffffffffff0a000000",
        ),
        (
            Request::IngestBatch {
                events: vec![
                    StreamEvent::new(5, 1, 2, true),
                    StreamEvent::new(6, 2, 3, false),
                ],
            },
            "0302000000\
             05000000000000000100000002000000\
             01\
             06000000000000000200000003000000\
             00",
        ),
        (Request::EpochInfo, "04"),
    ]
}

fn response_goldens() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::error(ERR_UNKNOWN_EPOCH, "epoch 9 not retained"),
            "00030014000000\
             65706f63682039206e6f742072657461696e6564",
        ),
        (
            Response::Score {
                epoch: 4,
                node: 9,
                score: -0.125,
            },
            "01\
             0400000000000000\
             09000000\
             000000000000c0bf",
        ),
        (
            Response::TopK {
                epoch: 2,
                entries: vec![(3, 1.5), (1, 0.25)],
            },
            "02\
             0200000000000000\
             02000000\
             03000000000000000000f83f\
             01000000000000000000d03f",
        ),
        (
            Response::Ingested {
                epoch: 5,
                events: 40,
                applied: 31,
                edges: 512,
            },
            "03\
             0500000000000000\
             2800000000000000\
             1f00000000000000\
             0002000000000000",
        ),
        (
            Response::EpochInfo {
                epoch: 7,
                oldest: 2,
                nodes: 100,
                edges: 480,
            },
            "04\
             0700000000000000\
             0200000000000000\
             6400000000000000\
             e001000000000000",
        ),
    ]
}

#[test]
fn request_bytes_are_pinned() {
    for (req, golden) in request_goldens() {
        assert_eq!(hex(&encode_request(&req)), golden, "{req:?}");
        assert_eq!(decode_request(&unhex(golden)).unwrap(), req);
    }
}

#[test]
fn response_bytes_are_pinned() {
    for (resp, golden) in response_goldens() {
        assert_eq!(hex(&encode_response(&resp)), golden, "{resp:?}");
        assert_eq!(decode_response(&unhex(golden)).unwrap(), resp);
    }
}
