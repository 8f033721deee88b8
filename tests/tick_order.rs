//! Pins the daily tick's draw order on the tiny paper population.
//!
//! `World::tick` draws population adoption, third-party opt-in and relay
//! decisions from one world RNG in canonical domain order. Any change to
//! which domains are offered a draw, or in what order, shifts every later
//! draw and with it which domains end up signed. This test drives the
//! tiny population through the whole study window and digests everything
//! the tick decides: the full event log in order, the per-kind counters,
//! each domain's (signed, sponsor, expiry), each registry's audit
//! failures, and the next value of the world RNG (which pins how many
//! draws the window consumed). The constant was taken from the
//! sweep-per-phase tick that the single row sweep replaced.

use dsec::ecosystem::ALL_TLDS;
use dsec::workloads::{build, PopulationConfig};
use rand::RngCore;

const TINY_WINDOW_DIGEST: u64 = 0x1c27_99c6_c0f0_3cb9;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so adjacent fields cannot run together.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn tiny_window_tick_digest_is_pinned() {
    let config = PopulationConfig::tiny();
    let mut pw = build(&config);
    let world = &mut pw.world;
    world.events.verbose = true;
    let signed_at_build = world.events.count("signed");
    world.advance_to(config.world.end);
    assert!(
        world.events.count("signed") > signed_at_build,
        "the window should sign at least one domain"
    );

    let mut h = Fnv::new();
    for (date, event) in world.events.entries() {
        h.write(&date.0.to_le_bytes());
        h.write(format!("{event:?}").as_bytes());
    }
    for (kind, n) in world.events.counters() {
        h.write(kind.as_bytes());
        h.write(&n.to_le_bytes());
    }
    for d in world.domains() {
        h.write(d.name.to_string().as_bytes());
        h.write(&[d.keys.is_some() as u8]);
        h.write(&d.sponsor.0.to_le_bytes());
        h.write(&d.expires.0.to_le_bytes());
    }
    for tld in ALL_TLDS {
        for (sponsor, n) in &world.registry(tld).audit_failures {
            h.write(&sponsor.0.to_le_bytes());
            h.write(&n.to_le_bytes());
        }
    }
    h.write(&world.rng().next_u64().to_le_bytes());
    assert_eq!(
        h.0, TINY_WINDOW_DIGEST,
        "the tick's draw order changed: got {:#018x}",
        h.0
    );
}
