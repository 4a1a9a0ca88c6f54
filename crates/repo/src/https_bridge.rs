//! The GridFTP↔https bridge.
//!
//! §2.3: "… and a servlet that acts as a bridge between GridFTP and
//! https." CHEF's data viewers are browser-grade clients that speak only
//! https; the bridge negotiates on their behalf, reads the file NFMS
//! resolves the logical name to, verifies the whole-file CRC-32 the ticket
//! promises, and serves plain bytes.

use bytes::Bytes;

use crate::checksum::crc32;
use crate::nfms::{Nfms, NfmsError};

/// A bridge serving repository files to https-only clients.
pub struct HttpsBridge {
    requests_served: u64,
    bytes_served: u64,
}

impl HttpsBridge {
    /// A fresh bridge.
    pub fn new() -> Self {
        HttpsBridge {
            requests_served: 0,
            bytes_served: 0,
        }
    }

    /// "GET" a logical file: negotiate with NFMS, read the stored bytes,
    /// check them against the ticket's whole-file CRC-32, serve.
    pub fn get(&mut self, nfms: &Nfms, logical: &str) -> Result<Bytes, String> {
        // The bridge supports both transports; preference lands on gridftp.
        let ticket = nfms
            .negotiate(logical, &["gridftp", "https"])
            .map_err(|e| e.to_string())?;
        let content = nfms.retrieve(&ticket).map_err(|e| e.to_string())?;
        if crc32(&content) != ticket.checksum {
            return Err(format!("checksum mismatch serving '{logical}'"));
        }
        self.requests_served += 1;
        self.bytes_served += content.len() as u64;
        Ok(content)
    }

    /// (requests, bytes) served.
    pub fn stats(&self) -> (u64, u64) {
        (self.requests_served, self.bytes_served)
    }
}

impl Default for HttpsBridge {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience error conversion for bridge callers.
impl From<NfmsError> for String {
    fn from(e: NfmsError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::VirtualStore;
    use neesgrid_gridsim::SimTime;

    #[test]
    fn bridge_serves_the_crc_checked_file() {
        let mut nfms = Nfms::new(VirtualStore::new());
        let data: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        nfms.upload("/most/big.bin", Bytes::from(data.clone()), SimTime::ZERO)
            .unwrap();
        let mut bridge = HttpsBridge::new();
        let got = bridge.get(&nfms, "/most/big.bin").unwrap();
        assert_eq!(&got[..], &data[..]);
        assert_eq!(bridge.stats(), (1, 50_000));
    }

    #[test]
    fn missing_file_is_an_error() {
        let nfms = Nfms::new(VirtualStore::new());
        let mut bridge = HttpsBridge::new();
        assert!(bridge
            .get(&nfms, "/ghost")
            .unwrap_err()
            .contains("not found"));
        assert_eq!(bridge.stats(), (0, 0));
    }

    #[test]
    fn stats_accumulate() {
        let mut nfms = Nfms::new(VirtualStore::new());
        nfms.upload("/a", Bytes::from_static(b"12345"), SimTime::ZERO)
            .unwrap();
        nfms.upload("/b", Bytes::from_static(b"123"), SimTime::ZERO)
            .unwrap();
        let mut bridge = HttpsBridge::new();
        bridge.get(&nfms, "/a").unwrap();
        bridge.get(&nfms, "/b").unwrap();
        assert_eq!(bridge.stats(), (2, 8));
    }
}
