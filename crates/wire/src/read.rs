//! Little-endian field reads for the payload decoders.

use crate::error::WireError;

/// A cursor over a received payload. Every read checks the bytes it
/// takes, so a decoder built on it is total: hostile or truncated input
/// ends in [`WireError::Truncated`], never in a panic.
#[derive(Clone, Debug)]
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, off: 0 }
    }

    /// Check a count field just read: at most `cap` entries of
    /// `entry_len` bytes each must follow. Run in front of every counted
    /// run of entries, so a lying count is rejected before anything is
    /// allocated for it. A count over its protocol cap is malformed and
    /// reported the same way, as the truncation of what it claims.
    pub(crate) fn counted(
        &self,
        count: usize,
        cap: usize,
        entry_len: usize,
    ) -> Result<(), WireError> {
        let need = self.off.saturating_add(count.saturating_mul(entry_len));
        if count > cap || self.bytes.len() < need {
            return Err(WireError::Truncated {
                got: self.bytes.len(),
                need,
            });
        }
        Ok(())
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let got = self.bytes.len();
        match self
            .bytes
            .get(self.off..)
            .and_then(<[u8]>::first_chunk::<N>)
        {
            Some(chunk) => {
                self.off += N;
                Ok(*chunk)
            }
            None => Err(WireError::Truncated {
                got,
                need: self.off.saturating_add(N),
            }),
        }
    }

    /// The next `n` bytes, borrowed from the payload — how a view keeps
    /// a run of entries to read later without copying them out.
    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.off.saturating_add(n);
        match self.bytes.get(self.off..end) {
            Some(run) => {
                self.off = end;
                Ok(run)
            }
            None => Err(WireError::Truncated {
                got: self.bytes.len(),
                need: end,
            }),
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        self.take::<1>().map(|[b]| b)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        self.take().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        self.take().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        self.take().map(u64::from_le_bytes)
    }

    /// The bytes not yet read.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.off..).unwrap_or_default()
    }
}
