//! The in-band rack-directory protocol.
//!
//! Federated SSDP: each machine's management bus already keeps a registry
//! of its own alive devices; the fabric controller periodically snapshots
//! every machine's registry into a rack-wide directory. Clients (the KVS
//! shard router) query the directory *in band* — a [`DirMsg::Query`] frame
//! sent to the machine's directory port — and receive a [`DirMsg::Reply`]
//! listing every rack endpoint, each already translated into a port that is
//! directly sendable *from the querying machine* (local devices keep their
//! edge-switch port; remote devices appear as that machine's proxy port).
//!
//! The codec is the management bus's strict [`wire`](lastcpu_bus::wire)
//! format: unknown tags and trailing bytes are errors, consistent with the
//! "buses are hardware" stance of the bus crate.

use lastcpu_bus::wire::{field_len, varint_len, WireError, WireReader, WireWriter};

/// Magic prefix distinguishing directory frames from workload traffic.
pub const DIR_MAGIC: u16 = 0xD1DC;

/// One rack endpoint, as seen by the querying machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEndpoint {
    /// Qualified name: `"m{machine}/{device-name}"`.
    pub name: String,
    /// Device kind as registered on its home bus (e.g. `"smart-nic"`).
    pub kind: String,
    /// Home machine index.
    pub machine: u32,
    /// Port on the *querying* machine's edge switch that reaches this
    /// endpoint (the endpoint's own port if local, a fabric proxy port if
    /// remote).
    pub port: u32,
}

/// A directory message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirMsg {
    /// Ask for the current rack directory. `epoch_hint` is the epoch the
    /// client already has (0 for none). It is carried but unused: the fabric
    /// answers with the full directory whatever the hint says, and nothing
    /// reads it from a trace. A shorter "not modified" answer would change
    /// frame sizes on the wire and with them every simulated rack number,
    /// so it waits for a change that re-baselines E10.
    Query {
        /// Directory epoch the querier last saw.
        epoch_hint: u64,
    },
    /// The rack directory at `epoch`.
    Reply {
        /// Monotone directory version; bumps whenever membership changes.
        epoch: u64,
        /// All known endpoints, ports pre-translated for the querier.
        endpoints: Vec<DirEndpoint>,
    },
}

impl DirMsg {
    /// Size of the encoding, without producing it.
    pub fn encoded_len(&self) -> usize {
        2 + 1
            + match self {
                DirMsg::Query { epoch_hint } => varint_len(*epoch_hint),
                DirMsg::Reply { epoch, endpoints } => {
                    varint_len(*epoch)
                        + varint_len(endpoints.len() as u64)
                        + endpoints
                            .iter()
                            .map(|ep| field_len(ep.name.len()) + field_len(ep.kind.len()) + 4 + 4)
                            .sum::<usize>()
                }
            }
    }

    /// Serializes the message into a buffer allocated once at its exact
    /// size.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        w.u16(DIR_MAGIC);
        match self {
            DirMsg::Query { epoch_hint } => {
                w.u8(1);
                w.varint(*epoch_hint);
            }
            DirMsg::Reply { epoch, endpoints } => {
                w.u8(2);
                w.varint(*epoch);
                w.varint(endpoints.len() as u64);
                for ep in endpoints {
                    w.string(&ep.name);
                    w.string(&ep.kind);
                    w.u32(ep.machine);
                    w.u32(ep.port);
                }
            }
        }
        w.finish()
    }

    /// Deserializes a message, rejecting trailing bytes and unknown tags.
    pub fn decode(buf: &[u8]) -> Result<DirMsg, WireError> {
        let mut r = WireReader::new(buf);
        let magic = r.u16()?;
        if magic != DIR_MAGIC {
            return Err(WireError::BadDiscriminant {
                what: "DirMsg.magic",
                value: magic as u64,
            });
        }
        let msg = match r.u8()? {
            1 => DirMsg::Query {
                epoch_hint: r.varint()?,
            },
            2 => {
                let epoch = r.varint()?;
                let n = r.varint()? as usize;
                let mut endpoints = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    endpoints.push(DirEndpoint {
                        name: r.string()?,
                        kind: r.string()?,
                        machine: r.u32()?,
                        port: r.u32()?,
                    });
                }
                DirMsg::Reply { epoch, endpoints }
            }
            t => {
                return Err(WireError::BadDiscriminant {
                    what: "DirMsg.tag",
                    value: t as u64,
                })
            }
        };
        r.expect_end()?;
        Ok(msg)
    }

    /// Whether `buf` looks like a directory frame (magic matches).
    pub fn sniff(buf: &[u8]) -> bool {
        buf.len() >= 2 && u16::from_le_bytes([buf[0], buf[1]]) == DIR_MAGIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trips() {
        let m = DirMsg::Query { epoch_hint: 42 };
        assert_eq!(DirMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn reply_round_trips() {
        let m = DirMsg::Reply {
            epoch: 7,
            endpoints: vec![
                DirEndpoint {
                    name: "m0/nic0".into(),
                    kind: "smart-nic".into(),
                    machine: 0,
                    port: 3,
                },
                DirEndpoint {
                    name: "m1/nic0".into(),
                    kind: "smart-nic".into(),
                    machine: 1,
                    port: 9,
                },
            ],
        };
        assert_eq!(DirMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn encode_allocates_exactly_its_length() {
        let reply = |n: usize| DirMsg::Reply {
            epoch: 1 << 20,
            endpoints: (0..n)
                .map(|i| DirEndpoint {
                    name: format!("m{i}/nic0"),
                    kind: "k".repeat(i),
                    machine: i as u32,
                    port: 3,
                })
                .collect(),
        };
        let msgs = [
            DirMsg::Query { epoch_hint: 0 },
            DirMsg::Query {
                epoch_hint: 1 << 40,
            },
            reply(0),
            reply(3),
            reply(200),
        ];
        for m in msgs {
            let enc = m.encode();
            assert_eq!(enc.len(), m.encoded_len());
            assert_eq!(enc.capacity(), enc.len());
            assert_eq!(DirMsg::decode(&enc).unwrap(), m);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = DirMsg::Query { epoch_hint: 0 }.encode();
        buf.push(0);
        assert!(DirMsg::decode(&buf).is_err());
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut buf = DirMsg::Query { epoch_hint: 0 }.encode();
        buf[0] ^= 0xFF;
        assert!(DirMsg::decode(&buf).is_err());
        assert!(!DirMsg::sniff(&buf));
    }

    #[test]
    fn sniff_matches_encoded_frames() {
        assert!(DirMsg::sniff(&DirMsg::Query { epoch_hint: 1 }.encode()));
        assert!(!DirMsg::sniff(b"k"));
        assert!(!DirMsg::sniff(b""));
    }
}
