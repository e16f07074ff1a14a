//! Block I/O operation types.

use std::fmt;
use std::str::FromStr;

use serde::Serialize;

use crate::error::TraceError;

/// The direction of a block request.
///
/// The paper's inference model treats reads and writes separately throughout:
/// the device-time coefficients (`β` for reads, `η` for writes) and the
/// channel delays (`Tcdel_read`, `Tcdel_write`) are estimated per operation
/// type.
///
/// # Examples
///
/// ```
/// use tt_trace::OpType;
///
/// assert!(OpType::Read.is_read());
/// assert_eq!("W".parse::<OpType>().unwrap(), OpType::Write);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[repr(u8)]
pub enum OpType {
    /// A block read. The discriminant is fixed at the TTB on-disk op code
    /// so a validated byte column can be viewed as `&[OpType]` zero-copy.
    Read = 0,
    /// A block write (TTB op code 1; see [`OpType::Read`]).
    Write = 1,
}

impl OpType {
    /// Both operation types, in a fixed order (reads first).
    pub const ALL: [OpType; 2] = [OpType::Read, OpType::Write];

    /// `true` for [`OpType::Read`].
    #[must_use]
    pub const fn is_read(self) -> bool {
        matches!(self, OpType::Read)
    }

    /// `true` for [`OpType::Write`].
    #[must_use]
    pub const fn is_write(self) -> bool {
        matches!(self, OpType::Write)
    }

    /// Single-letter code used by the text formats (`R` / `W`).
    #[must_use]
    pub const fn code(self) -> char {
        match self {
            OpType::Read => 'R',
            OpType::Write => 'W',
        }
    }

    /// Reinterprets a byte slice as an op column without copying, or
    /// `None` if any byte is not a valid op code (0 = read, 1 = write) —
    /// the typed-view hook the zero-copy TTB mapping uses for the op
    /// column.
    ///
    /// Sound because `OpType` is `#[repr(u8)]` with exactly the
    /// discriminants 0 and 1, which the guard validates before the cast.
    #[must_use]
    pub fn slice_from_bytes(bytes: &[u8]) -> Option<&[OpType]> {
        if bytes.iter().any(|&b| b > 1) {
            return None;
        }
        // SAFETY: #[repr(u8)] gives OpType size/align 1, and every byte
        // was just checked to be a declared discriminant (0 or 1).
        Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<OpType>(), bytes.len()) })
    }
}

impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpType::Read => f.write_str("read"),
            OpType::Write => f.write_str("write"),
        }
    }
}

impl FromStr for OpType {
    type Err = TraceError;

    /// Parses the single-letter codes (`R`/`W`, case-insensitive) and the
    /// full words (`read`/`write`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "R" | "r" | "read" | "Read" | "READ" => Ok(OpType::Read),
            "W" | "w" | "write" | "Write" | "WRITE" => Ok(OpType::Write),
            other => Err(TraceError::parse(format!("unknown op type: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_codes_and_words() {
        for s in ["R", "r", "read", "READ"] {
            assert_eq!(s.parse::<OpType>().unwrap(), OpType::Read);
        }
        for s in ["W", "w", "write", "Write"] {
            assert_eq!(s.parse::<OpType>().unwrap(), OpType::Write);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!("flush".parse::<OpType>().is_err());
        assert!("".parse::<OpType>().is_err());
    }

    #[test]
    fn code_round_trips() {
        for op in OpType::ALL {
            assert_eq!(op.code().to_string().parse::<OpType>().unwrap(), op);
        }
    }

    #[test]
    fn predicates_are_exclusive() {
        assert!(OpType::Read.is_read() && !OpType::Read.is_write());
        assert!(OpType::Write.is_write() && !OpType::Write.is_read());
    }
}
