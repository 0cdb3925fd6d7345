//! The in-band rack-directory protocol.
//!
//! Federated SSDP: each machine's management bus already keeps a registry
//! of its own alive devices; the fabric controller periodically snapshots
//! every machine's registry into a rack-wide directory. Clients (the KVS
//! shard router) query the directory *in band* — a [`DirMsg::Query`] frame
//! sent to the machine's directory port — and receive a [`DirMsg::Reply`]
//! listing every rack endpoint, each already translated into a port that is
//! directly sendable *from the querying machine* (local devices keep their
//! edge-switch port; remote devices appear as that machine's proxy port),
//! or [`DirMsg::Unchanged`] when they already hold the current epoch.
//!
//! The codec is the management bus's strict [`wire`](lastcpu_bus::wire)
//! format: unknown tags and trailing bytes are errors, consistent with the
//! "buses are hardware" stance of the bus crate.

use lastcpu_bus::wire::{Counted, Varint};

/// Magic prefix distinguishing directory frames from workload traffic.
pub const DIR_MAGIC: u16 = 0xD1DC;

/// Endpoints a reader reserves room for before it has read them, whatever
/// a reply's count claims.
const RESERVE_ENDPOINTS: usize = 4096;

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

lastcpu_snap::record!(wire lastcpu_bus::wire; DirEndpoint { name, kind, machine, port });

/// A directory message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirMsg {
    /// Ask for the current rack directory. `epoch_hint` is the epoch the
    /// client already has (0 for none): a querier at the current epoch is
    /// answered [`DirMsg::Unchanged`], any other with the full
    /// [`DirMsg::Reply`].
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
    /// The directory is still at the querier's `epoch_hint`.
    Unchanged,
}

lastcpu_snap::variants! { wire lastcpu_bus::wire; DirMsg magic(DIR_MAGIC) {
    Query = 1 { epoch_hint as Varint },
    Reply = 2 { epoch as Varint, endpoints as Counted(RESERVE_ENDPOINTS) },
    Unchanged = 3 {},
} }

impl DirMsg {
    /// Whether `buf` looks like a directory frame (magic matches).
    pub fn sniff(buf: &[u8]) -> bool {
        buf.len() >= 2 && u16::from_le_bytes([buf[0], buf[1]]) == DIR_MAGIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lastcpu_bus::wire::Wire;

    #[test]
    fn query_round_trips() {
        let m = DirMsg::Query { epoch_hint: 42 };
        assert_eq!(DirMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn unchanged_round_trips_in_three_bytes() {
        let enc = DirMsg::Unchanged.encode();
        assert_eq!(enc.len(), 3, "magic and tag");
        assert_eq!(DirMsg::decode(&enc).unwrap(), DirMsg::Unchanged);
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
            DirMsg::Unchanged,
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
