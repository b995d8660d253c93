//! The data studies behind the paper's Figures 2–4 and the TCB accounting
//! that feeds the reproduced Figure 5.
//!
//! The paper's measured artifacts are two commit-classification studies
//! (VirtIO and NetVSC hardening commits, Figures 3–4) and a CVE count
//! (Figure 2). The authors published the raw data at
//! `github.com/hlef/cio-hotos23-data`; that repository is not reachable
//! from this offline reproduction, so the datasets here are *transcribed
//! from the published figures and the paper's text* (e.g. "over 40
//! commits, 12 either revert or amend previous hardening changes"). The
//! aggregation code — classification rollups, per-year grouping,
//! percentage computation — is real and regenerates the figures from the
//! record-level data; the record-level data itself carries figure-reading
//! precision, which EXPERIMENTS.md documents per figure.
//!
//! [`tcb`] is different: it measures *this reproduction's own source
//! tree*, counting the lines of code inside each boundary design's
//! confidential TCB — the reproduction's analogue of the paper's
//! "TCB: S/M/L/XL" annotations in Figure 5. [`reach`] reads the same tree
//! through the same scanner and lists the `pub` items and crate edges that
//! no production code uses, so that what Figure 5 counts is what runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cve;
pub mod hardening;
pub mod reach;
pub mod tcb;
