//! Key-value operations carried in `Work` payloads.
//!
//! Both the deterministic simulator and the live runtime execute the same
//! tiny operation language against their resource managers, so it lives
//! here with the rest of the wire vocabulary.

use crate::wire::{Decode, Decoder, Encode, Encoder};
use crate::{Error, Result};

/// One key-value operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read a key (shared lock).
    Read(Vec<u8>),
    /// Write a key (`None` deletes; exclusive lock).
    Write(Vec<u8>, Option<Vec<u8>>),
}

impl Op {
    /// Convenience constructor for an insert/update.
    pub fn put(key: &str, value: &str) -> Op {
        Op::Write(key.as_bytes().to_vec(), Some(value.as_bytes().to_vec()))
    }

    /// Convenience constructor for a read.
    pub fn get(key: &str) -> Op {
        Op::Read(key.as_bytes().to_vec())
    }

    /// Convenience constructor for a delete.
    pub fn del(key: &str) -> Op {
        Op::Write(key.as_bytes().to_vec(), None)
    }

    /// Does this op modify data?
    pub fn is_update(&self) -> bool {
        matches!(self, Op::Write(..))
    }
}

impl Encode for Op {
    fn encode(&self, e: &mut Encoder) {
        match self {
            Op::Read(k) => {
                e.put_u8(0);
                e.put_bytes(k);
            }
            Op::Write(k, v) => {
                e.put_u8(1);
                e.put_bytes(k);
                match v {
                    Some(v) => {
                        e.put_bool(true);
                        e.put_bytes(v);
                    }
                    None => e.put_bool(false),
                }
            }
        }
    }
}

impl Decode for Op {
    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        match d.get_u8()? {
            0 => Ok(Op::Read(d.get_bytes()?)),
            1 => {
                let k = d.get_bytes()?;
                let v = if d.get_bool()? {
                    Some(d.get_bytes()?)
                } else {
                    None
                };
                Ok(Op::Write(k, v))
            }
            t => Err(Error::Codec(format!("invalid op tag {t}"))),
        }
    }
}

/// Encodes an op list into a `Work` payload.
pub fn encode_ops(ops: &[Op]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_seq(ops);
    e.finish()
}

/// Decodes a `Work` payload back into ops.
pub fn decode_ops(payload: &[u8]) -> Result<Vec<Op>> {
    let mut d = Decoder::new(payload);
    let ops = d.get_seq()?;
    if !d.is_empty() {
        return Err(Error::Codec("trailing bytes in work payload".into()));
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_roundtrip() {
        let ops = vec![Op::put("a", "1"), Op::get("b"), Op::del("c")];
        let payload = encode_ops(&ops);
        assert_eq!(decode_ops(&payload).unwrap(), ops);
    }

    #[test]
    fn empty_ops_roundtrip() {
        assert_eq!(decode_ops(&encode_ops(&[])).unwrap(), vec![]);
    }

    #[test]
    fn corrupt_payload_rejected() {
        assert!(decode_ops(&[0xFF, 0xFF]).is_err());
    }

    #[test]
    fn update_detection() {
        assert!(Op::put("k", "v").is_update());
        assert!(Op::del("k").is_update());
        assert!(!Op::get("k").is_update());
    }
}
