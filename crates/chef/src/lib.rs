//! # neesgrid-chef — the collaboration portal
//!
//! MOST's remote participants "accessed tools via logging in to MOST via a
//! NEESgrid specific collaboration interface built using the CHEF
//! collaboration framework" (§3). Over 130 of them did, during the public
//! run. This crate provides that portal:
//!
//! * [`session`] — GSI-authenticated login sessions with roles, served
//!   by the `neesgrid-portal` service and re-exported here;
//! * [`viewer`] — the Data Viewer of Figure 8: arrangements of views,
//!   VCR controls (play / pause / rewind / fast-forward), a clickable
//!   timeline, and hysteresis plots;
//! * [`telepresence`] — remotely operable pan/tilt/zoom cameras (three of
//!   them at MOST), with exclusive-control leases;
//! * [`portal`] — the facade tying it together. Since the portal became
//!   a multi-tenant wire service (`neesgrid-portal`), this is a thin
//!   client: login, boards, and stream observers all travel as
//!   length-prefixed JSON frames; only the cameras and the https
//!   download bridge stay client-local. The chat ("CHEF's chat feature
//!   was crucial to user interaction") and the electronic notebook are
//!   the portal's `"chat"` and `"notebook"` collaboration boards.

pub mod portal;
pub mod session;
pub mod telepresence;
pub mod viewer;

pub use portal::{CollabPortal, RemoteFeed};
pub use session::{LoginError, Role, Session};
pub use telepresence::{Camera, CameraFrame, CameraServer};
pub use viewer::{DataViewer, VcrState};
