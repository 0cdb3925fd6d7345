//! The authentication service (§4 "Access Control").
//!
//! The paper: *"an access control service can be provided by a smart storage
//! controller ... roughly equivalent to the 'login' program and 'passwd'
//! file on Linux"*. The [`AuthDevice`] holds a credential table and issues
//! *sealed capability tokens*: a token binds a principal id to a tag derived
//! from a secret shared (at deployment time) with the services that trust
//! this authority. Services validate tokens locally — no per-open round
//! trip to the auth device, which keeps the open path at the two messages
//! of Figure 2.
//!
//! The sealing function is a SplitMix64 mix, *not* a cryptographic MAC; the
//! emulator models the protocol structure (who checks what, when), not
//! cryptographic strength.

use lastcpu_bus::wire::Wire;
use lastcpu_bus::{ResourceKind, ServiceDesc, ServiceId, Token};
use lastcpu_sim::{costs, DetHashMap, SimDuration};

use crate::device::DeviceCtx;
use crate::firmware::Firmware;
use crate::monitor::{AuthMode, Monitor, MonitorEvent};

/// Mixes `v` with SplitMix64's finalizer.
fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seals `principal` under `secret`, producing a token whose low 64 bits
/// are the principal and whose high 64 bits are the authentication tag.
pub fn seal(secret: u64, principal: u64) -> Token {
    let tag = mix(secret ^ mix(principal));
    Token(((tag as u128) << 64) | principal as u128)
}

/// Verifies a sealed token, returning the principal on success.
pub fn verify(secret: u64, token: Token) -> Option<u64> {
    let principal = token.0 as u64;
    let tag = (token.0 >> 64) as u64;
    if mix(secret ^ mix(principal)) == tag {
        Some(principal)
    } else {
        None
    }
}

/// Hashes a username to its principal id (FNV-1a).
pub fn principal_id(user: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in user.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Service id of the login service on an [`AuthDevice`].
pub const LOGIN_SERVICE: ServiceId = ServiceId(1);

/// The login service's open params: the credentials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Login<'a> {
    /// User name.
    pub user: &'a str,
    /// Password.
    pub password: &'a str,
}

lastcpu_snap::record!(wire lastcpu_bus::wire; Login<'a> { user, password });

/// A successful login's reply params: the sealed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoginReply {
    /// The token, sealed for the user's principal.
    pub token: Token,
}

lastcpu_snap::record!(wire lastcpu_bus::wire; LoginReply { token });

/// The authentication device.
pub struct AuthDevice {
    name: String,
    monitor: Monitor,
    secret: u64,
    /// user → password hash.
    users: DetHashMap<String, u64>,
    logins_ok: u64,
    logins_failed: u64,
}

impl AuthDevice {
    /// Creates an auth device with a sealing secret and a credential table
    /// of `(user, password)` pairs.
    pub fn new(name: &str, secret: u64, users: &[(&str, &str)]) -> Self {
        let mut monitor = Monitor::new();
        monitor.add_service(
            ServiceDesc {
                id: LOGIN_SERVICE,
                name: "auth".into(),
                resource: ResourceKind::Storage,
            },
            // The login service itself is open; the *password* is the
            // authentication factor.
            AuthMode::Open,
        );
        AuthDevice {
            name: name.to_string(),
            monitor,
            secret,
            users: users
                .iter()
                .map(|(u, p)| (u.to_string(), principal_id(p)))
                .collect(),
            logins_ok: 0,
            logins_failed: 0,
        }
    }
}

impl Firmware for AuthDevice {
    const KIND: &'static str = "auth-service";
    const SELF_TEST: SimDuration = costs::AUTH_SELF_TEST;

    fn name(&self) -> &str {
        &self.name
    }

    fn monitor(&mut self) -> &mut Monitor {
        &mut self.monitor
    }

    fn on_event(&mut self, ctx: &mut DeviceCtx<'_>, ev: MonitorEvent) {
        if let MonitorEvent::OpenRequested {
            req, from, params, ..
        } = ev
        {
            ctx.busy(costs::AUTH_LOGIN);
            let token = Login::decode(&params)
                .ok()
                .and_then(|Login { user, password }| {
                    (self.users.get(user) == Some(&principal_id(password)))
                        .then(|| seal(self.secret, principal_id(user)))
                });
            match token {
                Some(t) => {
                    self.logins_ok += 1;
                    // A login session carries no shared memory; the
                    // token rides back in the response params.
                    let reply = LoginReply { token: t }.encode();
                    self.monitor
                        .accept_open(ctx, req, from, LOGIN_SERVICE, None, 0, reply);
                }
                None => {
                    self.logins_failed += 1;
                    self.monitor
                        .reject_open(ctx, req, from, lastcpu_bus::Status::Denied);
                }
            }
        }
    }

    /// The credential table is configuration, so nothing is wiped; only the
    /// self-test re-runs (§2.2).
    fn on_reset(&mut self, ctx: &mut DeviceCtx<'_>) -> bool {
        ctx.busy(Self::SELF_TEST);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_verify_round_trip() {
        let t = seal(0xDEAD, 42);
        assert_eq!(verify(0xDEAD, t), Some(42));
    }

    #[test]
    fn wrong_secret_rejected() {
        let t = seal(0xDEAD, 42);
        assert_eq!(verify(0xBEEF, t), None);
    }

    #[test]
    fn forged_principal_rejected() {
        let t = seal(0xDEAD, 42);
        // Attacker swaps the principal, keeping the tag.
        let forged = Token((t.0 & !0xFFFF_FFFF_FFFF_FFFFu128) | 43);
        assert_eq!(verify(0xDEAD, forged), None);
    }

    #[test]
    fn none_token_never_verifies() {
        assert_eq!(verify(0, Token::NONE), None);
        assert_eq!(verify(0xDEAD, Token::NONE), None);
    }

    #[test]
    fn principal_ids_distinct() {
        assert_ne!(principal_id("alice"), principal_id("bob"));
        assert_eq!(principal_id("alice"), principal_id("alice"));
    }

    #[test]
    fn login_params_round_trip() {
        let login = Login {
            user: "alice",
            password: "hunter2",
        };
        assert_eq!(Login::decode(&login.encode()), Ok(login));
    }

    #[test]
    fn login_response_decoding() {
        let reply = LoginReply { token: seal(1, 2) };
        assert_eq!(LoginReply::decode(&reply.encode()), Ok(reply));
        assert!(LoginReply::decode(&[1, 2, 3]).is_err());
    }
}
