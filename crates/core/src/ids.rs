//! UUIDv4 generation and strongly-typed identifiers.
//!
//! Globus Compute identifies every function, task, and endpoint with a UUID;
//! the multi-user endpoint keys spawned user endpoints on a *hash* of the
//! user configuration. We implement a small UUIDv4 (random) type directly on
//! top of `rand` rather than pulling in the `uuid` crate, and wrap it in
//! newtypes so a `TaskId` can never be confused with an `EndpointId`.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A 128-bit RFC 4122 version-4 (random) UUID.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Uuid(pub u128);

impl Uuid {
    /// Generate a fresh random UUIDv4 using the thread-local RNG.
    pub fn new_v4() -> Self {
        Self::from_rng(&mut rand::thread_rng())
    }

    /// Generate a UUIDv4 from a caller-supplied RNG (for deterministic
    /// simulations).
    pub(crate) fn from_rng<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut b: [u8; 16] = rng.gen();
        // Set version (4) and variant (10xx) bits per RFC 4122.
        b[6] = (b[6] & 0x0F) | 0x40;
        b[8] = (b[8] & 0x3F) | 0x80;
        Self::from_bytes(b)
    }

    /// The nil UUID (all zeros). Useful as a sentinel in tests.
    pub(crate) const fn nil() -> Self {
        Self(0)
    }

    /// Construct from raw bytes (big-endian).
    pub fn from_bytes(b: [u8; 16]) -> Self {
        Self(u128::from_be_bytes(b))
    }

    /// Raw big-endian bytes.
    pub fn as_bytes(&self) -> [u8; 16] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.as_bytes();
        write!(
            f,
            "{:02x}{:02x}{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}-{:02x}{:02x}{:02x}{:02x}{:02x}{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11], b[12],
            b[13], b[14], b[15]
        )
    }
}

impl fmt::Debug for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uuid({self})")
    }
}

/// Error returned when parsing a UUID from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUuidError(pub String);

impl fmt::Display for ParseUuidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid uuid: {}", self.0)
    }
}

impl std::error::Error for ParseUuidError {}

impl FromStr for Uuid {
    type Err = ParseUuidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex: String = s.chars().filter(|c| *c != '-').collect();
        if hex.len() != 32 {
            return Err(ParseUuidError(s.to_string()));
        }
        let mut raw: u128 = 0;
        for c in hex.chars() {
            let d = c
                .to_digit(16)
                .ok_or_else(|| ParseUuidError(s.to_string()))?;
            raw = (raw << 4) | d as u128;
        }
        Ok(Self(raw))
    }
}

macro_rules! typed_id {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
        )]
        pub struct $name(pub Uuid);

        impl $name {
            /// Generate a fresh random id.
            pub fn random() -> Self {
                Self(Uuid::new_v4())
            }

            /// The nil id (all zero bytes); a sentinel for tests.
            pub const fn nil() -> Self {
                Self(Uuid::nil())
            }

            /// The wrapped UUID.
            pub fn uuid(&self) -> Uuid {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl FromStr for $name {
            type Err = ParseUuidError;
            fn from_str(s: &str) -> Result<Self, Self::Err> {
                Ok(Self(s.parse()?))
            }
        }
    };
}

typed_id!(
    /// Identifies a single task submission.
    TaskId
);
typed_id!(
    /// Identifies a registered (immutable) function.
    FunctionId
);
typed_id!(
    /// Identifies a compute endpoint (single-user or multi-user).
    EndpointId
);
typed_id!(
    /// Identifies a Globus Auth identity.
    IdentityId
);
typed_id!(
    /// Identifies a batch scheduler job (one pilot "block").
    JobId
);
typed_id!(
    /// Identifies a provisioned block of nodes inside an engine.
    BlockId
);
typed_id!(
    /// Identifies a Globus Transfer task.
    TransferId
);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn v4_version_and_variant_bits() {
        for _ in 0..64 {
            let u = Uuid::new_v4();
            let b = u.as_bytes();
            assert_eq!(b[6] >> 4, 4, "version nibble: {u}");
            assert_eq!(b[8] & 0xC0, 0x80, "variant bits must be 10xx: {u}");
        }
    }

    #[test]
    fn display_roundtrip() {
        let u = Uuid::new_v4();
        let s = u.to_string();
        assert_eq!(s.len(), 36);
        let back: Uuid = s.parse().unwrap();
        assert_eq!(u, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("not-a-uuid".parse::<Uuid>().is_err());
        assert!("".parse::<Uuid>().is_err());
        assert!("zzzzzzzz-zzzz-zzzz-zzzz-zzzzzzzzzzzz"
            .parse::<Uuid>()
            .is_err());
    }

    #[test]
    fn parse_accepts_undashed() {
        let u = Uuid::new_v4();
        let undashed: String = u.to_string().chars().filter(|c| *c != '-').collect();
        assert_eq!(undashed.parse::<Uuid>().unwrap(), u);
    }

    #[test]
    fn deterministic_from_seeded_rng() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(Uuid::from_rng(&mut a), Uuid::from_rng(&mut b));
    }

    #[test]
    fn typed_ids_are_distinct_types_and_random() {
        let t = TaskId::random();
        let e = EndpointId::random();
        assert_ne!(t.uuid(), e.uuid());
        assert_eq!(TaskId::nil().uuid(), Uuid::nil());
        let shown = format!("{t:?}");
        assert!(shown.starts_with("TaskId("));
    }

    #[test]
    fn uuids_do_not_collide_in_small_samples() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(Uuid::new_v4()));
        }
    }
}
