//! Error types for frame and payload encoding and decoding.

use std::error::Error;
use std::fmt;

/// Errors produced while encoding, decoding, or validating Z-Wave frames.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The byte buffer is shorter than the minimum MAC frame.
    TruncatedFrame {
        /// Number of bytes actually available.
        got: usize,
        /// Minimum number required.
        need: usize,
    },
    /// The LEN field disagrees with the number of bytes on the wire.
    LengthMismatch {
        /// Value of the LEN header field.
        declared: usize,
        /// Actual frame size.
        actual: usize,
    },
    /// The frame (or its declared length) exceeds the 64-byte MAC maximum.
    FrameTooLong {
        /// Offending length.
        len: usize,
    },
    /// The trailing checksum does not match the frame contents.
    ChecksumMismatch {
        /// Checksum computed over the received bytes.
        computed: u16,
        /// Checksum found on the wire.
        received: u16,
    },
    /// The application payload is empty (no CMDCL byte).
    EmptyPayload,
    /// An unknown or reserved header type value in the frame-control field.
    InvalidHeaderType(u8),
    /// A command id not defined for the given command class.
    UnknownCommand {
        /// The command class in which the lookup was performed.
        command_class: u8,
        /// The unknown command id.
        command: u8,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::TruncatedFrame { got, need } => {
                write!(f, "truncated frame: got {got} bytes, need at least {need}")
            }
            ProtocolError::LengthMismatch { declared, actual } => {
                write!(f, "LEN field declares {declared} bytes but frame has {actual}")
            }
            ProtocolError::FrameTooLong { len } => {
                write!(f, "frame of {len} bytes exceeds the 64-byte MAC maximum")
            }
            ProtocolError::ChecksumMismatch { computed, received } => {
                write!(f, "checksum mismatch: computed {computed:#06X}, received {received:#06X}")
            }
            ProtocolError::EmptyPayload => f.write_str("application payload is empty"),
            ProtocolError::InvalidHeaderType(raw) => {
                write!(f, "invalid frame-control header type {raw:#04X}")
            }
            ProtocolError::UnknownCommand { command_class, command } => {
                write!(f, "unknown command {command:#04X} in command class {command_class:#04X}")
            }
        }
    }
}

impl Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = ProtocolError::LengthMismatch { declared: 12, actual: 10 };
        assert_eq!(e.to_string(), "LEN field declares 12 bytes but frame has 10");
        let e = ProtocolError::ChecksumMismatch { computed: 0xAB, received: 0xCD };
        assert!(e.to_string().contains("0x00AB"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProtocolError>();
    }
}
