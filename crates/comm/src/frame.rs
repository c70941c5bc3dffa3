//! The framed wire protocol of the [`crate::mesh`] transports (socket
//! and shmem).
//!
//! Every message between two mesh ranks travels as one *frame*: a
//! fixed 24-byte little-endian header followed by the payload bytes.
//!
//! ```text
//! offset  size  field
//!      0     4  magic   0x4D_46_50_48 ("HPFM")
//!      4     4  from    sending rank
//!      8     4  len     payload length in bytes
//!     12     4  crc     CRC32 (IEEE) of the payload bytes
//!     16     8  tag     message tag
//! ```
//!
//! The CRC turns a corrupted frame from silent bad numerics into a
//! rank-attributed protocol error: [`read_frame`] recomputes the
//! payload checksum and refuses a mismatch with `InvalidData`, which
//! the socket transport converts into a "corrupt frame from rank R"
//! fault on that connection.
//!
//! The reader side is written against plain [`std::io::Read`] streams
//! and survives arbitrary short reads (a TCP segment boundary can land
//! anywhere, including inside the header). The writer stages header +
//! payload into one caller-owned buffer so a frame costs a single
//! `write_all` — and zero heap allocations once the buffer has grown
//! to the steady-state frame size, which is what keeps the socket
//! transport's hot path allocation-free.
//!
//! Frames longer than [`MAX_FRAME_LEN`] are rejected on *both* sides:
//! the writer refuses to emit them and the reader refuses to trust a
//! length field that large (a corrupted or malicious header must not
//! make a rank try to allocate gigabytes).

use std::io::{ErrorKind, Read};

/// Frame magic: `"HPFM"` as little-endian bytes.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"HPFM");

/// Bytes of the fixed frame header.
pub const HEADER_LEN: usize = 24;

/// Upper bound on a frame payload (64 MiB). Far above any halo or
/// collective message this benchmark produces, far below anything that
/// could take down a rank on a bad length field.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// CRC32 (IEEE, reflected polynomial 0xEDB88320) lookup table, built
/// at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the checksum carried in every frame
/// header and in the checkpoint file trailer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sending rank.
    pub from: u32,
    /// Message tag.
    pub tag: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC32 of the payload bytes.
    pub crc: u32,
}

impl FrameHeader {
    /// Encode into the 24-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
        h[4..8].copy_from_slice(&self.from.to_le_bytes());
        h[8..12].copy_from_slice(&self.len.to_le_bytes());
        h[12..16].copy_from_slice(&self.crc.to_le_bytes());
        h[16..24].copy_from_slice(&self.tag.to_le_bytes());
        h
    }

    /// Decode and validate the 24-byte wire form. The payload CRC is
    /// carried through; [`read_frame`] verifies it once the payload
    /// bytes are in hand.
    pub fn decode(h: &[u8; HEADER_LEN]) -> Result<FrameHeader, String> {
        let magic = u32::from_le_bytes([h[0], h[1], h[2], h[3]]);
        if magic != FRAME_MAGIC {
            return Err(format!("bad frame magic {magic:#010x} (expected {FRAME_MAGIC:#010x})"));
        }
        let len = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
        if len > MAX_FRAME_LEN {
            return Err(format!("oversized frame: {len} bytes (limit {MAX_FRAME_LEN})"));
        }
        Ok(FrameHeader {
            from: u32::from_le_bytes([h[4], h[5], h[6], h[7]]),
            tag: u64::from_le_bytes([h[16], h[17], h[18], h[19], h[20], h[21], h[22], h[23]]),
            len,
            crc: u32::from_le_bytes([h[12], h[13], h[14], h[15]]),
        })
    }
}

/// Stage one frame (header + payload) into `out`, cleared first. With
/// sufficient capacity this never allocates; the caller issues a single
/// `write_all(out)` so a frame is one syscall and cannot interleave
/// with another thread's frame on the same stream.
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — the halo plan and
/// collectives bound every legitimate message far below it.
pub fn stage_frame(out: &mut Vec<u8>, from: usize, tag: u64, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "refusing to send a {} byte frame (limit {MAX_FRAME_LEN})",
        payload.len()
    );
    let header =
        FrameHeader { from: from as u32, tag, len: payload.len() as u32, crc: crc32(payload) }
            .encode();
    out.clear();
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
}

/// Read exactly `buf.len()` bytes, looping over arbitrarily short
/// reads. Distinguishes a *clean* end of stream (zero bytes read —
/// `Ok(false)`) from a truncated one (mid-buffer EOF — `Err`).
fn read_full<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    format!("stream ended {filled} bytes into a {}-byte read", buf.len()),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one frame from `r`. The payload buffer is obtained from
/// `take_buf(len)` — the socket transport passes a closure that pulls
/// a recycled buffer from the per-peer receive pool, so a steady-state
/// read allocates nothing.
///
/// Returns `Ok(None)` on a clean end of stream (the peer closed its
/// socket at a frame boundary); any mid-frame EOF, bad magic, or
/// oversized length is an error.
pub fn read_frame<R: Read + ?Sized>(
    r: &mut R,
    take_buf: impl FnOnce(usize) -> Vec<u8>,
) -> std::io::Result<Option<(FrameHeader, Vec<u8>)>> {
    let mut h = [0u8; HEADER_LEN];
    if !read_full(r, &mut h)? {
        return Ok(None);
    }
    let header =
        FrameHeader::decode(&h).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
    let mut payload = take_buf(header.len as usize);
    payload.clear();
    payload.resize(header.len as usize, 0);
    if !read_full(r, &mut payload)? {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            format!("stream ended before the {}-byte payload of tag {}", header.len, header.tag),
        ));
    }
    let got = crc32(&payload);
    if got != header.crc {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "corrupt frame from rank {} (tag {}): payload CRC {got:#010x} != header CRC {:#010x}",
                header.from, header.tag, header.crc
            ),
        ));
    }
    Ok(Some((header, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, Write};

    fn frame_bytes(from: usize, tag: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        stage_frame(&mut out, from, tag, payload);
        out
    }

    /// A reader that hands back at most `chunk` bytes per call — the
    /// adversarial segmentation a TCP stream is allowed to produce.
    struct ChunkedReader {
        inner: Cursor<Vec<u8>>,
        chunk: usize,
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.inner.read(&mut buf[..n])
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = FrameHeader { from: 3, tag: 0xDEAD_BEEF_0042, len: 4096, crc: 0x1234_5678 };
        assert_eq!(FrameHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut e = FrameHeader { from: 0, tag: 0, len: 0, crc: 0 }.encode();
        e[0] ^= 0xFF;
        let err = FrameHeader::decode(&e).unwrap_err();
        assert!(err.contains("bad frame magic"), "{err}");
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corrupt_payload_rejected_with_rank_attribution() {
        // Flip one payload byte after staging: the reader must refuse
        // the frame and name the sending rank.
        let mut bytes = frame_bytes(2, 9, b"good data");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut r = Cursor::new(bytes);
        let err = read_frame(&mut r, Vec::with_capacity).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("corrupt frame from rank 2"), "{msg}");
        assert!(msg.contains("CRC"), "{msg}");
    }

    #[test]
    fn corrupt_crc_field_rejected() {
        let mut bytes = frame_bytes(0, 1, b"payload");
        bytes[13] ^= 0xFF; // inside the header CRC field
        let mut r = Cursor::new(bytes);
        let err = read_frame(&mut r, Vec::with_capacity).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_len_rejected_by_reader() {
        let mut e = FrameHeader { from: 0, tag: 0, len: 0, crc: 0 }.encode();
        e[8..12].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = FrameHeader::decode(&e).unwrap_err();
        assert!(err.contains("oversized frame"), "{err}");
        // And through the stream path it surfaces as InvalidData.
        let mut r = Cursor::new(e.to_vec());
        let io = read_frame(&mut r, Vec::with_capacity).unwrap_err();
        assert_eq!(io.kind(), ErrorKind::InvalidData);
    }

    #[test]
    #[should_panic(expected = "refusing to send")]
    fn oversized_payload_rejected_by_writer() {
        // A zeroed just-over-limit vec (cheap: the pages stay
        // untouched until written).
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        stage_frame(&mut Vec::new(), 0, 0, &payload);
    }

    #[test]
    fn frame_roundtrips_through_a_stream() {
        let bytes = frame_bytes(2, 77, b"hello halo");
        let mut r = Cursor::new(bytes);
        let (h, p) = read_frame(&mut r, Vec::with_capacity).unwrap().unwrap();
        assert_eq!(h, FrameHeader { from: 2, tag: 77, len: 10, crc: crc32(b"hello halo") });
        assert_eq!(p, b"hello halo");
        assert!(read_frame(&mut r, Vec::with_capacity).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn empty_payload_frames_work() {
        // Barrier/collective control messages are zero-length.
        let mut r = Cursor::new(frame_bytes(1, 9, b""));
        let (h, p) = read_frame(&mut r, Vec::with_capacity).unwrap().unwrap();
        assert_eq!((h.from, h.tag, h.len), (1, 9, 0));
        assert!(p.is_empty());
    }

    #[test]
    fn interleaved_tags_from_one_peer_decode_in_order() {
        // One peer interleaves two tag streams on one connection; the
        // reader must hand frames back in exactly the order written —
        // the FIFO the mailbox's tag parking relies on.
        let mut wire = Vec::new();
        for i in 0..5u8 {
            wire.extend_from_slice(&frame_bytes(0, 10, &[i]));
            wire.extend_from_slice(&frame_bytes(0, 20, &[i + 100]));
        }
        let mut r = ChunkedReader { inner: Cursor::new(wire), chunk: 3 };
        let mut got = Vec::new();
        while let Some((h, p)) = read_frame(&mut r, Vec::with_capacity).unwrap() {
            got.push((h.tag, p[0]));
        }
        let expect: Vec<(u64, u8)> = (0..5u8).flat_map(|i| [(10, i), (20, i + 100)]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn truncated_header_and_payload_are_loud_errors() {
        let full = frame_bytes(0, 5, b"abcdef");
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 2] {
            let mut r = Cursor::new(full[..cut].to_vec());
            let err = read_frame(&mut r, Vec::with_capacity).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn short_writes_never_tear_a_frame() {
        // A writer that accepts at most 5 bytes per call: `write_all`
        // over the staged buffer must still emit the full frame.
        struct ShortWriter {
            out: Vec<u8>,
        }
        impl Write for ShortWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let n = buf.len().min(5);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut staged = Vec::new();
        stage_frame(&mut staged, 1, 42, &[7u8; 33]);
        let mut w = ShortWriter { out: Vec::new() };
        w.write_all(&staged).unwrap();
        let mut r = Cursor::new(w.out);
        let (h, p) = read_frame(&mut r, Vec::with_capacity).unwrap().unwrap();
        assert_eq!((h.from, h.tag), (1, 42));
        assert_eq!(p, vec![7u8; 33]);
    }

    #[test]
    fn staging_reuses_capacity() {
        let payload = [3u8; 256];
        let mut buf = Vec::with_capacity(HEADER_LEN + 256);
        let ptr = buf.as_ptr();
        for _ in 0..10 {
            stage_frame(&mut buf, 0, 1, &payload);
            assert_eq!(buf.len(), HEADER_LEN + 256);
        }
        assert_eq!(buf.as_ptr(), ptr, "staging a sized buffer must never reallocate");
    }

    /// A reader that segments the stream at a caller-chosen sequence of
    /// boundaries (cycled) — every split a TCP stack could produce.
    struct SplitReader {
        inner: Cursor<Vec<u8>>,
        splits: Vec<usize>,
        next: usize,
    }

    impl Read for SplitReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.splits[self.next % self.splits.len()];
            self.next += 1;
            let n = buf.len().min(chunk);
            self.inner.read(&mut buf[..n])
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The wire invariant the socket transport rests on: however a
        // TCP stream fragments a sequence of frames — any chunk sizes,
        // any boundaries, splits inside headers or payloads — the
        // reader recovers exactly the frames that were staged, in
        // order, ending in a clean EOF.
        #[test]
        fn any_chunk_boundaries_preserve_every_frame(
            frames in proptest::collection::vec((0usize..8, 0u64..1_000_000, 0usize..600), 1..8),
            splits in proptest::collection::vec(1usize..80, 1..10),
        ) {
            let mut wire = Vec::new();
            let mut staged = Vec::new();
            let expect: Vec<(FrameHeader, Vec<u8>)> = frames
                .iter()
                .map(|&(from, tag, len)| {
                    let payload: Vec<u8> =
                        (0..len).map(|i| (i * 31 + from * 7 + tag as usize) as u8).collect();
                    stage_frame(&mut staged, from, tag, &payload);
                    wire.extend_from_slice(&staged);
                    let h =
                        FrameHeader { from: from as u32, tag, len: len as u32, crc: crc32(&payload) };
                    (h, payload)
                })
                .collect();
            let mut r = SplitReader { inner: Cursor::new(wire), splits, next: 0 };
            let mut got = Vec::new();
            while let Some((h, p)) = read_frame(&mut r, Vec::with_capacity).unwrap() {
                got.push((h, p));
            }
            prop_assert_eq!(got, expect);
        }
    }
}
