//! Identifiers used on the bus wire.
//!
//! These are deliberately plain integers: the bus is hardware and addresses
//! devices the way PCIe addresses functions — by number, assigned at
//! registration time, before any software naming exists (§2.3: "there must
//! be an independent method of addressing devices before virtual address
//! spaces are set up").

use std::fmt;

/// A bus address for one device, assigned by the bus at registration.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub u32);

/// A device-local service index. `(DeviceId, ServiceId)` names one service
/// instance system-wide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServiceId(pub u16);

/// Correlates a response with its request. Unique per sender.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId(pub u64);

/// An open service connection (one isolated context on the serving device).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConnId(pub u64);

/// An authorization token, issued by an authentication service and presented
/// on open requests (§3 step 3; §4 "Access Control").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Token(pub u128);

impl DeviceId {
    /// The bus itself, addressable for privileged requests.
    pub const BUS: DeviceId = DeviceId(0);
}

impl Token {
    /// The empty token, accepted only by services with no access control.
    pub const NONE: Token = Token(0);
}

impl fmt::Debug for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == DeviceId::BUS {
            write!(f, "dev:BUS")
        } else {
            write!(f, "dev:{}", self.0)
        }
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc:{}", self.0)
    }
}

impl fmt::Debug for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req:{}", self.0)
    }
}

impl fmt::Debug for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn:{}", self.0)
    }
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "token:{:#x}", self.0)
    }
}

lastcpu_snap::newtypes!(DeviceId, ServiceId, RequestId, ConnId, Token);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_id_is_zero() {
        assert_eq!(DeviceId::BUS, DeviceId(0));
        assert_eq!(format!("{:?}", DeviceId::BUS), "dev:BUS");
        assert_eq!(format!("{:?}", DeviceId(3)), "dev:3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(DeviceId(1));
        s.insert(DeviceId(1));
        assert_eq!(s.len(), 1);
        assert!(ServiceId(1) < ServiceId(2));
        assert!(RequestId(1) < RequestId(2));
    }
}
