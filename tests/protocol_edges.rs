//! Protocol edge cases: zero-length messages, threshold boundaries,
//! self-messaging, tag multiplexing, and many-small-message streams —
//! the corners where eager/rendezvous switching and matching logic break
//! if anything is off by one.

use mpi_datatype::{Committed, Datatype};
use scimpi::tuning::{RING_SLOTS, SHORT_THRESHOLD};
use scimpi::{run, ClusterSpec, RecvBuf, SendData, Source, TagSel, Tuning};
use simclock::SimTime;

#[test]
fn zero_length_messages_match_and_cost_little() {
    run(ClusterSpec::ringlet(2), |r| {
        if r.rank() == 0 {
            r.send(1, 42, &[]).unwrap();
        } else {
            let mut buf = [0u8; 0];
            let st = r
                .recv(Source::Rank(0), TagSel::Value(42), &mut buf)
                .unwrap();
            assert_eq!(st.len, 0);
            assert_eq!(st.tag, 42);
            assert!(r.now() > SimTime::ZERO, "even empty messages cost time");
        }
    });
}

#[test]
fn messages_at_protocol_thresholds() {
    // Exactly at, one below, one above the short and eager thresholds.
    let t = Tuning::default();
    let sizes = [
        SHORT_THRESHOLD - 1,
        SHORT_THRESHOLD,
        SHORT_THRESHOLD + 1,
        t.eager_threshold - 1,
        t.eager_threshold,
        t.eager_threshold + 1,
        t.rendezvous_chunk,
        t.rendezvous_chunk + 1,
        t.rendezvous_chunk * RING_SLOTS + 7,
    ];
    run(ClusterSpec::ringlet(2), move |r| {
        for (i, &len) in sizes.iter().enumerate() {
            if r.rank() == 0 {
                let data: Vec<u8> = (0..len).map(|j| (j ^ i) as u8).collect();
                r.send(1, i as i32, &data).unwrap();
            } else {
                let mut buf = vec![0u8; len];
                let st = r
                    .recv(Source::Rank(0), TagSel::Value(i as i32), &mut buf)
                    .unwrap();
                assert_eq!(st.len, len);
                assert!(
                    buf.iter().enumerate().all(|(j, &b)| b == (j ^ i) as u8),
                    "payload corrupted at size {len}"
                );
            }
        }
    });
}

#[test]
fn self_sendrecv_works() {
    run(ClusterSpec::ringlet(2), |r| {
        // Eager self-message.
        let me = r.rank();
        let mut buf = vec![0u8; 64];
        let st = r
            .sendrecv(
                me,
                1,
                SendData::Bytes(&[me as u8; 64]),
                Source::Rank(me),
                TagSel::Value(1),
                RecvBuf::Bytes(&mut buf),
            )
            .unwrap();
        assert_eq!(st.src, me);
        assert!(buf.iter().all(|&b| b == me as u8));

        // Rendezvous-size self-message through the helper-thread path.
        let big = vec![me as u8 + 10; 100_000];
        let mut bbuf = vec![0u8; 100_000];
        r.sendrecv(
            me,
            2,
            SendData::Bytes(&big),
            Source::Rank(me),
            TagSel::Value(2),
            RecvBuf::Bytes(&mut bbuf),
        )
        .unwrap();
        assert!(bbuf.iter().all(|&b| b == me as u8 + 10));
    });
}

#[test]
fn tag_multiplexing_between_same_pair() {
    run(ClusterSpec::ringlet(2), |r| {
        if r.rank() == 0 {
            // Interleave three tag streams.
            for i in 0..10u8 {
                r.send(1, 100, &[i, 0]).unwrap();
                r.send(1, 200, &[i, 1]).unwrap();
                r.send(1, 300, &[i, 2]).unwrap();
            }
        } else {
            // Drain them in a different order; per-tag order must hold.
            for tag in [300, 100, 200] {
                for i in 0..10u8 {
                    let mut buf = [0u8; 2];
                    r.recv(Source::Rank(0), TagSel::Value(tag), &mut buf)
                        .unwrap();
                    assert_eq!(buf[0], i, "tag {tag} out of order");
                }
            }
        }
    });
}

#[test]
fn typed_message_with_offset_origin() {
    // Negative-displacement type: origin points into the middle of the
    // buffer, exactly like an interior grid cell with halo.
    run(ClusterSpec::ringlet(2), |r| {
        let dt = Datatype::hindexed(&[(2, -16), (2, 16)], &Datatype::double());
        let c = Committed::commit(&dt);
        assert_eq!(c.size(), 32);
        if r.rank() == 0 {
            let buf: Vec<u8> = (0..64).map(|i| i as u8).collect();
            r.send_typed(1, 0, &c, 1, &buf, 24).unwrap(); // origin at byte 24
        } else {
            let mut buf = vec![0u8; 64];
            r.recv_typed(Source::Rank(0), TagSel::Value(0), &c, 1, &mut buf, 24)
                .unwrap();
            // Blocks at 24-16=8..24 and 24+16=40..56.
            for (i, b) in buf.iter().enumerate().take(24).skip(8) {
                assert_eq!(*b, i as u8);
            }
            for (i, b) in buf.iter().enumerate().take(56).skip(40) {
                assert_eq!(*b, i as u8);
            }
            assert!(buf[24..40].iter().all(|&b| b == 0), "gap written");
        }
    });
}

#[test]
fn thousand_small_messages_stream_through() {
    run(ClusterSpec::ringlet(2), |r| {
        const N: usize = 1000;
        if r.rank() == 0 {
            for i in 0..N {
                r.send(1, 7, &(i as u32).to_le_bytes()).unwrap();
            }
        } else {
            for i in 0..N {
                let mut buf = [0u8; 4];
                r.recv(Source::Rank(0), TagSel::Value(7), &mut buf).unwrap();
                assert_eq!(u32::from_le_bytes(buf) as usize, i);
            }
        }
    });
}

#[test]
fn empty_datatype_send() {
    run(ClusterSpec::ringlet(2), |r| {
        let dt = Datatype::contiguous(0, &Datatype::double());
        let c = Committed::commit(&dt);
        if r.rank() == 0 {
            r.send_typed(1, 5, &c, 4, &[], 0).unwrap();
        } else {
            let mut buf = [0u8; 0];
            let st = r
                .recv_typed(Source::Rank(0), TagSel::Value(5), &c, 4, &mut buf, 0)
                .unwrap();
            assert_eq!(st.len, 0);
        }
    });
}

#[test]
fn probe_then_receive() {
    run(ClusterSpec::ringlet(2), |r| {
        if r.rank() == 0 {
            r.send(1, 77, b"probed").unwrap();
            r.barrier();
        } else {
            r.barrier(); // ensure the message is queued
            let (src, tag) = loop {
                if let Some(hit) = r.probe(Source::Any, TagSel::Any) {
                    break hit;
                }
            };
            assert_eq!((src, tag), (0, 77));
            let mut buf = [0u8; 6];
            r.recv(Source::Rank(src), TagSel::Value(tag), &mut buf)
                .unwrap();
            assert_eq!(&buf, b"probed");
        }
    });
}
