// U1 fixture: `orphan` is the only public function no non-test code
// calls. `used` has a caller, `internal` is not public, the re-export
// and the unit test are not callers, and `kept` carries a justified
// allow.

pub use self::orphan as reexported;

pub fn orphan() -> u8 {
    1
}

pub fn used() -> u8 {
    2
}

pub(crate) fn internal() -> u8 {
    used()
}

// detlint:allow(U1) the integration tests' reference value
pub fn kept() -> u8 {
    3
}

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_is_one() {
        assert_eq!(super::orphan(), 1);
    }
}
