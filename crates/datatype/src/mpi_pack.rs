//! `MPI_Pack` / `MPI_Unpack` — the user-facing explicit packing API.
//!
//! Technique 2 of the paper's §3 list: applications can pack
//! non-contiguous data themselves and send the contiguous result. The
//! library's own engine (and the paper's point that letting the library
//! choose — technique 3 — is better) is [`crate::ff`]; this module
//! provides the standard position-cursor interface on committed types,
//! implemented on the `direct_pack_ff` machinery.

use crate::ff::{self, SliceSource, VecSink};
use crate::flat::Committed;
use core::fmt;

/// Packing/unpacking errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackError {
    /// The output buffer cannot hold the packed representation.
    OutputTooSmall {
        /// Bytes needed beyond `position`.
        needed: usize,
        /// Bytes available beyond `position`.
        available: usize,
    },
    /// The input buffer ended before `count` instances were unpacked.
    InputExhausted {
        /// Bytes needed beyond `position`.
        needed: usize,
        /// Bytes available beyond `position`.
        available: usize,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::OutputTooSmall { needed, available } => write!(
                f,
                "pack buffer too small: need {needed} bytes, have {available}"
            ),
            PackError::InputExhausted { needed, available } => write!(
                f,
                "unpack input exhausted: need {needed} bytes, have {available}"
            ),
        }
    }
}

impl std::error::Error for PackError {}

impl Committed {
    /// Bytes `count` instances occupy in packed form (`MPI_Pack_size`).
    pub fn pack_size(&self, count: usize) -> usize {
        self.size() * count
    }

    /// `MPI_Pack`: append the packed bytes of `count` instances read from
    /// `inbuf` (displacement 0 at `origin`) into `outbuf` at `*position`,
    /// advancing the cursor.
    pub fn pack(
        &self,
        inbuf: &[u8],
        origin: usize,
        count: usize,
        outbuf: &mut [u8],
        position: &mut usize,
    ) -> Result<(), PackError> {
        let needed = self.pack_size(count);
        let available = outbuf.len().saturating_sub(*position);
        if needed > available {
            return Err(PackError::OutputTooSmall { needed, available });
        }
        let mut sink = VecSink::default();
        ff::pack_ff(self, count, inbuf, origin, 0, usize::MAX, &mut sink)
            .expect("VecSink is infallible");
        outbuf[*position..*position + needed].copy_from_slice(&sink.data);
        *position += needed;
        Ok(())
    }

    /// `MPI_Unpack`: read the packed bytes of `count` instances from
    /// `inbuf` at `*position` into `outbuf` (displacement 0 at `origin`),
    /// advancing the cursor.
    pub fn unpack(
        &self,
        inbuf: &[u8],
        position: &mut usize,
        outbuf: &mut [u8],
        origin: usize,
        count: usize,
    ) -> Result<(), PackError> {
        let needed = self.pack_size(count);
        let available = inbuf.len().saturating_sub(*position);
        if needed > available {
            return Err(PackError::InputExhausted { needed, available });
        }
        let mut source = SliceSource::new(&inbuf[*position..*position + needed]);
        ff::unpack_ff(self, count, outbuf, origin, 0, usize::MAX, &mut source)
            .expect("SliceSource is infallible");
        *position += needed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Datatype;

    fn committed() -> Committed {
        Committed::commit(&Datatype::vector(6, 2, 4, &Datatype::double()))
    }

    #[test]
    fn pack_unpack_with_cursor() {
        let c = committed();
        let src: Vec<u8> = (0..c.extent()).map(|i| i as u8).collect();
        let mut buf = vec![0u8; c.pack_size(1) + 32];
        let mut pos = 8; // pre-existing header
        c.pack(&src, 0, 1, &mut buf, &mut pos).unwrap();
        assert_eq!(pos, 8 + c.pack_size(1));

        let mut dst = vec![0u8; c.extent()];
        let mut rpos = 8;
        c.unpack(&buf, &mut rpos, &mut dst, 0, 1).unwrap();
        assert_eq!(rpos, pos);

        // Data bytes round-tripped.
        let packed = |buf: &[u8]| crate::tree::reference_pack(c.datatype(), 1, buf);
        assert_eq!(packed(&dst), packed(&src));
    }

    #[test]
    fn multiple_types_share_one_buffer() {
        // The classic MPI_Pack use: heterogeneous items in one message.
        let a = Committed::commit(&Datatype::int());
        let b = committed();
        let ints: Vec<u8> = vec![1, 2, 3, 4];
        let vecs: Vec<u8> = (0..b.extent()).map(|i| (i * 3) as u8).collect();

        let mut buf = vec![0u8; a.pack_size(1) + b.pack_size(1)];
        let mut pos = 0;
        a.pack(&ints, 0, 1, &mut buf, &mut pos).unwrap();
        b.pack(&vecs, 0, 1, &mut buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());

        let mut pos = 0;
        let mut out_i = vec![0u8; 4];
        let mut out_v = vec![0u8; b.extent()];
        a.unpack(&buf, &mut pos, &mut out_i, 0, 1).unwrap();
        b.unpack(&buf, &mut pos, &mut out_v, 0, 1).unwrap();
        assert_eq!(out_i, ints);
    }

    #[test]
    fn errors_report_sizes() {
        let c = committed();
        let src = vec![0u8; c.extent()];
        let mut small = vec![0u8; 10];
        let mut pos = 0;
        let err = c.pack(&src, 0, 1, &mut small, &mut pos).unwrap_err();
        assert_eq!(
            err,
            PackError::OutputTooSmall {
                needed: c.pack_size(1),
                available: 10
            }
        );
        assert_eq!(pos, 0, "cursor must not move on failure");

        let mut dst = vec![0u8; c.extent()];
        let mut pos = 5;
        let err = c.unpack(&small, &mut pos, &mut dst, 0, 1).unwrap_err();
        assert!(matches!(
            err,
            PackError::InputExhausted { available: 5, .. }
        ));
    }

    #[test]
    fn pack_size_counts_instances() {
        let c = committed();
        assert_eq!(c.pack_size(0), 0);
        assert_eq!(c.pack_size(3), 3 * c.size());
    }
}
