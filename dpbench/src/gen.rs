//! Seeded inputs: the random stream, the request mix and the
//! self-describing unit payloads every read is checked against.

/// SplitMix64: seeds and mixes; also the per-request stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `(0, 1]`.
    pub fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One user request: a whole-unit read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
}

/// The 50/50 uniform single-unit mix over the units `[lo, hi)` (a
/// closed-loop worker owns a disjoint range, so its ledger is exact).
#[derive(Debug, Clone)]
pub struct Mix {
    rng: Rng,
    lo: u64,
    units: u64,
}

impl Mix {
    pub fn new(seed: u64, lo: u64, hi: u64) -> Mix {
        Mix {
            rng: Rng::new(mix(seed ^ 0x3C6E_F372_FE94_F82B)),
            lo,
            units: hi - lo,
        }
    }

    pub fn next(&mut self) -> (Op, u64) {
        let op = if self.rng.next_u64() & 1 == 0 {
            Op::Read
        } else {
            Op::Write
        };
        (op, self.lo + self.rng.below(self.units))
    }
}

/// Bytes of the self-describing header: unit, version, seed tag.
const HEADER: usize = 16;
/// Distinct precomputed bodies; a payload picks one by hash.
const BODIES: usize = 256;

/// Self-describing unit payloads. A payload carries its unit number
/// and version in a header, and its body is one of a small set of
/// precomputed random blocks chosen by `(unit, version)`, so writing
/// one is a copy and checking one is a compare: neither costs inside
/// the timed interval what an xorshift per byte would.
#[derive(Debug)]
pub struct Payloads {
    unit_bytes: usize,
    tag: u32,
    bodies: Vec<u8>,
}

impl Payloads {
    pub fn new(seed: u64, unit_bytes: usize) -> Payloads {
        let mut rng = Rng::new(mix(seed ^ 0x5EED_B0D1_E500_0000));
        let mut bodies = vec![0u8; BODIES * unit_bytes];
        for chunk in bodies.chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        Payloads {
            unit_bytes,
            tag: mix(seed) as u32,
            bodies,
        }
    }

    fn body(&self, unit: u64, version: u32) -> &[u8] {
        let h = mix(unit ^ (u64::from(version) << 40) ^ u64::from(self.tag)) as usize % BODIES;
        &self.bodies[h * self.unit_bytes..(h + 1) * self.unit_bytes]
    }

    /// Writes the payload of `unit` at `version` into `out`.
    pub fn fill(&self, unit: u64, version: u32, out: &mut [u8]) {
        out[HEADER..].copy_from_slice(&self.body(unit, version)[HEADER..]);
        out[0..8].copy_from_slice(&unit.to_le_bytes());
        out[8..12].copy_from_slice(&version.to_le_bytes());
        out[12..16].copy_from_slice(&self.tag.to_le_bytes());
    }

    /// The version a read of `unit` returned, if `buf` is an intact
    /// payload of `unit` written by this run; `None` for any wrong byte.
    pub fn version_of(&self, unit: u64, buf: &[u8]) -> Option<u32> {
        if buf.len() != self.unit_bytes
            || buf[0..8] != unit.to_le_bytes()
            || buf[12..16] != self.tag.to_le_bytes()
        {
            return None;
        }
        let version = u32::from_le_bytes(buf[8..12].try_into().ok()?);
        (buf[HEADER..] == self.body(unit, version)[HEADER..]).then_some(version)
    }
}

/// A version the ledger cannot vouch for: the write that set it failed,
/// so either image may be on disk. Such a unit is only checked for
/// being an intact payload of itself.
pub const UNKNOWN: u32 = u32::MAX;

/// Checks a read of `unit` against the version the ledger expects.
pub fn read_ok(payloads: &Payloads, unit: u64, expected: u32, buf: &[u8]) -> bool {
    match payloads.version_of(unit, buf) {
        Some(v) => expected == UNKNOWN || v == expected,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_describe_themselves() {
        let p = Payloads::new(7, 4096);
        let mut buf = vec![0u8; 4096];
        p.fill(12, 3, &mut buf);
        assert_eq!(p.version_of(12, &buf), Some(3));
        assert_eq!(p.version_of(13, &buf), None);
        assert!(read_ok(&p, 12, UNKNOWN, &buf));
        assert!(!read_ok(&p, 12, 2, &buf));
        buf[4000] ^= 1;
        assert_eq!(p.version_of(12, &buf), None);
        let other = Payloads::new(8, 4096);
        p.fill(12, 3, &mut buf);
        assert_eq!(other.version_of(12, &buf), None);
    }

    #[test]
    fn mix_stays_in_owned_units() {
        let mut m = Mix::new(1, 500, 1001);
        let mut reads = 0;
        for _ in 0..10_000 {
            let (op, u) = m.next();
            assert!((500..1001).contains(&u));
            reads += usize::from(op == Op::Read);
        }
        assert!((4_500..5_500).contains(&reads));
    }
}
