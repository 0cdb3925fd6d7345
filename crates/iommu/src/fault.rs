//! IOMMU fault records.

use std::fmt;

use lastcpu_mem::{Pasid, Perms, VirtAddr};

/// What kind of access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A DMA read.
    Read,
    /// A DMA write.
    Write,
    /// A code/descriptor fetch.
    Execute,
}

impl AccessKind {
    /// Permissions this access requires.
    pub fn required_perms(self) -> Perms {
        match self {
            AccessKind::Read => Perms::R,
            AccessKind::Write => Perms::W,
            AccessKind::Execute => Perms::X,
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Execute => "execute",
        };
        f.write_str(s)
    }
}

/// Why the translation faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IommuFaultKind {
    /// No mapping for the page (classic page fault).
    NotMapped,
    /// Mapping exists but lacks the needed permission.
    PermissionDenied {
        /// Permissions present on the mapping.
        have: Perms,
    },
    /// Address outside the translatable range.
    OutOfRange,
    /// The PASID has no address space bound at all.
    UnknownPasid,
}

/// A fault record delivered to the device that issued the access.
///
/// The paper (§4): "the IOMMU would deliver any faults to its attached
/// device. Each device would be responsible to handle its own faults
/// appropriately (i.e. reset the service or stop the application)."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IommuFault {
    /// Address space of the faulting access.
    pub pasid: Pasid,
    /// Faulting virtual address.
    pub va: VirtAddr,
    /// Access type that faulted.
    pub access: AccessKind,
    /// Why it faulted.
    pub kind: IommuFaultKind,
}

impl fmt::Display for IommuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            IommuFaultKind::NotMapped => {
                write!(
                    f,
                    "page fault: {} {} at {} (not mapped)",
                    self.pasid, self.access, self.va
                )
            }
            IommuFaultKind::PermissionDenied { have } => write!(
                f,
                "permission fault: {} {} at {} (mapping is {have})",
                self.pasid, self.access, self.va
            ),
            IommuFaultKind::OutOfRange => {
                write!(
                    f,
                    "range fault: {} {} at {}",
                    self.pasid, self.access, self.va
                )
            }
            IommuFaultKind::UnknownPasid => {
                write!(
                    f,
                    "unknown pasid {} on {} at {}",
                    self.pasid, self.access, self.va
                )
            }
        }
    }
}

lastcpu_snap::tags! { AccessKind { Read = 0, Write = 1, Execute = 2 } }

lastcpu_snap::variants! { IommuFaultKind {
    NotMapped = 0 {}, PermissionDenied = 1 { have }, OutOfRange = 2 {}, UnknownPasid = 3 {},
} }

lastcpu_snap::record!(IommuFault {
    pasid,
    va,
    access,
    kind
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_maps_to_perms() {
        assert_eq!(AccessKind::Read.required_perms(), Perms::R);
        assert_eq!(AccessKind::Write.required_perms(), Perms::W);
        assert_eq!(AccessKind::Execute.required_perms(), Perms::X);
    }

    #[test]
    fn fault_display_mentions_cause() {
        let f = IommuFault {
            pasid: Pasid(3),
            va: VirtAddr::new(0x1000),
            access: AccessKind::Write,
            kind: IommuFaultKind::NotMapped,
        };
        let s = f.to_string();
        assert!(s.contains("page fault"));
        assert!(s.contains("pasid:3"));
        assert!(s.contains("write"));
    }

    #[test]
    fn permission_fault_shows_mapping_perms() {
        let f = IommuFault {
            pasid: Pasid(1),
            va: VirtAddr::new(0x2000),
            access: AccessKind::Write,
            kind: IommuFaultKind::PermissionDenied { have: Perms::R },
        };
        assert!(f.to_string().contains("r--"));
    }
}
