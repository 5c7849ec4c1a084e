#![allow(dead_code)]
#![allow(unused, clippy::all)]

#[expect(unused_variables)]
pub fn f(x: u32) {}

#![cfg_attr(test, allow(warnings))]

#[cfg_attr(feature = "x", allow(dead_code, unused))]
pub fn g() {}
