//! The field codecs the components declare, against arbitrary bytes:
//! whatever a reader accepts, its writer puts back byte for byte — the bytes
//! it consumed, no more and no other. `crates/snap` holds its generic codecs
//! to the same property; these are the tag tables, records, bounded
//! collections and spans declared beside the components.

use lastcpu_bus::{BusAudit, Envelope, ResourceKind, ServiceDesc, Status};
use lastcpu_core::devices::monitor::AuthMode;
use lastcpu_core::devices::session::{FileSession, SessionState};
use lastcpu_core::devices::ssd::FileClient;
use lastcpu_iommu::{DmaAudit, IommuFault};
use lastcpu_kvs::proto::KvsStatus;
use lastcpu_mem::{PageTable, Perms};
use lastcpu_sim::{FaultEvent, Histogram};
use lastcpu_snap::{Field, SnapReader, SnapWriter};
use lastcpu_virtio::{QueueLayout, VirtqueueDevice, VirtqueueDriver};
use proptest::prelude::*;

/// Whatever `T` takes from `bytes`, it puts back as the bytes it took.
fn canonical<T: Field>(bytes: &[u8]) {
    let mut r = SnapReader::new("codec", bytes);
    if let Ok(v) = T::take(&mut r) {
        let used = bytes.len() - r.remaining();
        let mut w = SnapWriter::new();
        v.put(&mut w);
        assert_eq!(
            w.into_bytes(),
            bytes[..used],
            "{}",
            std::any::type_name::<T>()
        );
    }
}

/// Small little-endian counts (so that collections and options have a
/// chance to parse) mixed with small bytes (so that tags and flags do) and
/// arbitrary ones.
fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((any::<bool>(), any::<u8>()), 0..96).prop_map(|parts| {
        let mut out = Vec::new();
        for (count, b) in parts {
            match count {
                true => out.extend_from_slice(&u64::from(b % 4).to_le_bytes()),
                false if b & 0x80 != 0 => out.push(b),
                false => out.push(b % 8),
            }
        }
        out
    })
}

proptest! {
    fn declared_field_codecs_put_back_what_they_took(bytes in bytes()) {
        canonical::<Perms>(&bytes);
        canonical::<Status>(&bytes);
        canonical::<ResourceKind>(&bytes);
        canonical::<KvsStatus>(&bytes);
        canonical::<ServiceDesc>(&bytes);
        canonical::<Envelope>(&bytes);
        canonical::<AuthMode>(&bytes);
        canonical::<SessionState>(&bytes);
        canonical::<IommuFault>(&bytes);
        canonical::<DmaAudit>(&bytes);
        canonical::<BusAudit>(&bytes);
        canonical::<FaultEvent>(&bytes);
        canonical::<Histogram>(&bytes);
        canonical::<PageTable>(&bytes);
        canonical::<QueueLayout>(&bytes);
        canonical::<VirtqueueDevice>(&bytes);
        canonical::<VirtqueueDriver>(&bytes);
        canonical::<FileClient>(&bytes);
        canonical::<FileSession>(&bytes);
    }
}
