//! Helpers shared by the integration test binaries.
#![allow(dead_code)]

pub mod typed_chase;
