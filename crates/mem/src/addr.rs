//! Address and address-space identifiers.
//!
//! Virtual addresses name locations inside one application's address space;
//! the application is identified system-wide by a PASID ("Process Address
//! Space ID", PCIe terminology the paper adopts in §2.3). Physical addresses
//! name DRAM bytes and are only ever handled by the memory controller and
//! the bus — devices never see them.

use std::fmt;
use std::ops::Add;

/// Log2 of the page size. The emulator uses 4 KiB pages throughout.
pub const PAGE_SHIFT: u64 = 12;
/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// A physical DRAM address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

/// A virtual address within some PASID's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

/// A process (application) address-space identifier.
///
/// The paper identifies a distributed application by its virtual address
/// space (§2.2 "Address Translation"); the PASID is the hardware name for
/// that address space, carried on every DMA.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pasid(pub u32);

lastcpu_snap::newtypes!(PhysAddr, VirtAddr, Pasid);

macro_rules! addr_impl {
    ($t:ident, $prefix:expr) => {
        impl $t {
            /// Constructs from a raw value.
            pub const fn new(v: u64) -> Self {
                $t(v)
            }

            /// The raw address value.
            pub const fn as_u64(self) -> u64 {
                self.0
            }

            /// Byte offset within the containing page.
            pub const fn page_offset(self) -> u64 {
                self.0 & (PAGE_SIZE - 1)
            }

            /// The page number containing this address.
            pub const fn page_number(self) -> u64 {
                self.0 >> PAGE_SHIFT
            }

            /// Rounds down to the page base.
            pub const fn page_base(self) -> $t {
                $t(self.0 & !(PAGE_SIZE - 1))
            }

            /// Whether the address is page-aligned.
            pub const fn is_page_aligned(self) -> bool {
                self.0 & (PAGE_SIZE - 1) == 0
            }
        }

        impl Add<u64> for $t {
            type Output = $t;

            fn add(self, rhs: u64) -> $t {
                $t(self.0 + rhs)
            }
        }

        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{:#x}"), self.0)
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }
    };
}

addr_impl!(PhysAddr, "pa:");
addr_impl!(VirtAddr, "va:");

impl Pasid {
    /// The kernel/none address space, never assigned to an application.
    pub const NONE: Pasid = Pasid(0);

    /// Raw value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Pasid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pasid:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        let a = VirtAddr::new(0x1234);
        assert_eq!(a.page_offset(), 0x234);
        assert_eq!(a.page_number(), 1);
        assert_eq!(a.page_base(), VirtAddr::new(0x1000));
        assert!(!a.is_page_aligned());
        assert!(a.page_base().is_page_aligned());
    }

    #[test]
    fn arithmetic() {
        let a = PhysAddr::new(0x1000);
        assert_eq!((a + 0x10).as_u64(), 0x1010);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{:?}", PhysAddr::new(0x42)), "pa:0x42");
        assert_eq!(format!("{:?}", VirtAddr::new(0x42)), "va:0x42");
        assert_eq!(Pasid(7).to_string(), "pasid:7");
    }
}
