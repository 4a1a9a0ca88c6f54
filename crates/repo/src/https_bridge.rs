//! The GridFTP↔https bridge.
//!
//! §2.3: "… and a servlet that acts as a bridge between GridFTP and
//! https." CHEF's data viewers are browser-grade clients that speak only
//! https; the bridge negotiates on their behalf, reads the blocks of the
//! manifest NFMS resolves the logical name to, verifies the whole-file
//! CRC-32 the manifest promises, and serves plain bytes.

use bytes::Bytes;

use crate::nfms::{Nfms, NfmsError};

/// A bridge serving repository files to https-only clients. It keeps no
/// state: a caller that counts downloads (CHEF's portal) counts them
/// itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpsBridge;

impl HttpsBridge {
    /// "GET" a logical file: negotiate with NFMS, then read it through the
    /// store's CAS, which checks every block and the whole-file CRC-32.
    pub fn get(&self, nfms: &Nfms, logical: &str) -> Result<Bytes, String> {
        // The bridge supports both transports; preference lands on gridftp.
        let ticket = nfms.negotiate(logical, &["gridftp", "https"])?;
        nfms.cas()
            .read(&ticket.logical)
            .map_err(|e| format!("serving '{logical}': {e}"))
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
        let nfms = Nfms::new(VirtualStore::new());
        let data: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        let data = Bytes::from(data);
        nfms.cas()
            .ingest("/most/big.bin", &data, 4096, SimTime::ZERO);
        assert_eq!(HttpsBridge.get(&nfms, "/most/big.bin").unwrap(), data);
    }

    #[test]
    fn missing_file_is_an_error() {
        let nfms = Nfms::new(VirtualStore::new());
        assert!(HttpsBridge
            .get(&nfms, "/ghost")
            .unwrap_err()
            .contains("not found"));
    }
}
