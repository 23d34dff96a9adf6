//! Content hashing for the incremental relink cache.
//!
//! `omd` keys every per-module artifact by a cryptographic digest of the
//! module's serialized bytes, and every whole-link result by the digests of
//! all participating inputs plus a canonical fingerprint of the
//! [`OmOptions`] in effect — the WHOPR-style "only re-analyze what changed"
//! discipline. The digest is BLAKE2s-256 (RFC 7693), implemented here by
//! hand: the workspace builds fully offline, so no external crypto crate.
//!
//! [`OmOptions`]: crate::pipeline::OmOptions

use crate::pipeline::{OmLevel, OmOptions};
use om_objfile::{binary, Archive, Module};
use std::fmt;

/// BLAKE2s round constants: the initialization vector (shared with SHA-256).
const IV: [u32; 8] = [
    0x6A09_E667, 0xBB67_AE85, 0x3C6E_F372, 0xA54F_F53A,
    0x510E_527F, 0x9B05_688C, 0x1F83_D9AB, 0x5BE0_CD19,
];

/// Message schedule permutations for the 10 rounds.
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// An incremental BLAKE2s-256 hasher.
pub struct Blake2s {
    h: [u32; 8],
    /// Bytes hashed so far (the `t` counter of the spec).
    t: u64,
    buf: [u8; 64],
    buflen: usize,
}

impl Default for Blake2s {
    fn default() -> Self {
        Blake2s::new()
    }
}

impl Blake2s {
    /// A fresh hasher for a 32-byte unkeyed digest.
    pub fn new() -> Blake2s {
        let mut h = IV;
        // Parameter block: digest length 32, key length 0, fanout 1, depth 1.
        h[0] ^= 0x0101_0020;
        Blake2s { h, t: 0, buf: [0; 64], buflen: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        // A full buffer is only compressed once *more* input arrives: the
        // final block must be compressed with the last-block flag instead.
        while !data.is_empty() {
            if self.buflen == 64 {
                self.t += 64;
                self.compress(false);
                self.buflen = 0;
            }
            let n = data.len().min(64 - self.buflen);
            self.buf[self.buflen..self.buflen + n].copy_from_slice(&data[..n]);
            self.buflen += n;
            data = &data[n..];
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        self.t += self.buflen as u64;
        self.buf[self.buflen..].fill(0);
        self.compress(true);
        let mut out = [0u8; 32];
        for (i, w) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    fn compress(&mut self, last: bool) {
        let mut m = [0u32; 16];
        for (i, w) in m.iter_mut().enumerate() {
            *w = u32::from_le_bytes(self.buf[4 * i..4 * i + 4].try_into().unwrap());
        }
        let mut v = [0u32; 16];
        v[..8].copy_from_slice(&self.h);
        v[8..].copy_from_slice(&IV);
        v[12] ^= self.t as u32;
        v[13] ^= (self.t >> 32) as u32;
        if last {
            v[14] ^= 0xFFFF_FFFF;
        }

        #[inline(always)]
        fn g(v: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize, x: u32, y: u32) {
            v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
            v[d] = (v[d] ^ v[a]).rotate_right(16);
            v[c] = v[c].wrapping_add(v[d]);
            v[b] = (v[b] ^ v[c]).rotate_right(12);
            v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
            v[d] = (v[d] ^ v[a]).rotate_right(8);
            v[c] = v[c].wrapping_add(v[d]);
            v[b] = (v[b] ^ v[c]).rotate_right(7);
        }

        for s in &SIGMA {
            g(&mut v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
            g(&mut v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
            g(&mut v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
            g(&mut v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
            g(&mut v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
            g(&mut v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
            g(&mut v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
            g(&mut v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
        }
        for i in 0..8 {
            self.h[i] ^= v[i] ^ v[i + 8];
        }
    }
}

/// One-shot BLAKE2s-256 of `data`.
pub fn blake2s(data: &[u8]) -> [u8; 32] {
    let mut h = Blake2s::new();
    h.update(data);
    h.finalize()
}

/// A 256-bit content digest — the key space of the relink cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub [u8; 32]);

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({self})")
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

/// Digest of a module's canonical serialized form. Two modules with equal
/// bytes share all per-module cache entries, whatever their provenance.
pub fn module_hash(m: &Module) -> ContentHash {
    ContentHash(blake2s(&binary::write_module(m)))
}

/// Digest of an archive (its serialized members, in order).
pub fn archive_hash(a: &Archive) -> ContentHash {
    let mut h = Blake2s::new();
    h.update(b"om-archive/v1\0");
    for m in a.members() {
        let bytes = binary::write_module(m);
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    ContentHash(h.finalize())
}

fn put_str(h: &mut Blake2s, s: &str) {
    h.update(&(s.len() as u64).to_le_bytes());
    h.update(s.as_bytes());
}

/// Canonical fingerprint of `(level, options)`: any knob that changes what
/// the pipeline produces must feed this, or the cache would serve stale
/// results across option changes. [`FaultPlan`] equality deliberately
/// ignores runtime firing state, and so does this fingerprint.
///
/// [`FaultPlan`]: crate::fault::FaultPlan
pub fn options_fingerprint(level: OmLevel, options: &OmOptions) -> ContentHash {
    let mut h = Blake2s::new();
    h.update(b"om-options/v1\0");
    h.update(&[level.index() as u8]);
    h.update(&[
        options.sort_commons as u8,
        options.align_backward_targets as u8,
        options.verify as u8,
    ]);
    h.update(&(options.max_rounds as u64).to_le_bytes());
    h.update(&(options.preemptible.len() as u64).to_le_bytes());
    for name in &options.preemptible {
        put_str(&mut h, name);
    }
    match &options.profile {
        None => h.update(&[0]),
        Some(p) => {
            h.update(&[1]);
            put_str(&mut h, &p.to_json());
        }
    }
    match &options.fault {
        None => h.update(&[0]),
        Some(f) => {
            let kind = crate::fault::FaultKind::ALL
                .iter()
                .position(|k| *k == f.kind)
                .expect("FaultKind::ALL is exhaustive") as u8;
            h.update(&[1, kind]);
            h.update(&(f.site as u64).to_le_bytes());
        }
    }
    ContentHash(h.finalize())
}

/// The whole-link cache key: every input module digest (in link order),
/// every library digest, and the option fingerprint.
pub fn link_key(
    module_hashes: &[ContentHash],
    lib_hashes: &[ContentHash],
    level: OmLevel,
    options: &OmOptions,
) -> ContentHash {
    let mut h = Blake2s::new();
    h.update(b"om-link/v1\0");
    h.update(&options_fingerprint(level, options).0);
    h.update(&(module_hashes.len() as u64).to_le_bytes());
    for m in module_hashes {
        h.update(&m.0);
    }
    h.update(&(lib_hashes.len() as u64).to_le_bytes());
    for l in lib_hashes {
        h.update(&l.0);
    }
    ContentHash(h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc7693_empty_vector() {
        assert_eq!(
            hex(&blake2s(b"")),
            "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9"
        );
    }

    #[test]
    fn rfc7693_abc_vector() {
        assert_eq!(
            hex(&blake2s(b"abc")),
            "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
        );
    }

    #[test]
    fn incremental_update_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let one = blake2s(&data);
        for split in [0, 1, 63, 64, 65, 128, 999, 1000] {
            let mut h = Blake2s::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), one, "split at {split}");
        }
    }

    #[test]
    fn module_hash_tracks_content() {
        let mut a = Module::new("m");
        a.text = vec![0; 8];
        let mut b = a.clone();
        assert_eq!(module_hash(&a), module_hash(&b));
        b.data.push(7);
        assert_ne!(module_hash(&a), module_hash(&b));
        // Same content under a different name is a different module
        // identity: the serialized form includes the name.
        let mut c = a.clone();
        c.name = "n".into();
        assert_ne!(module_hash(&a), module_hash(&c));
        a.text[0] = 1;
        assert_ne!(module_hash(&a), module_hash(&b));
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = OmOptions::default();
        let f0 = options_fingerprint(OmLevel::Full, &base);
        assert_eq!(f0, options_fingerprint(OmLevel::Full, &base.clone()));
        assert_ne!(f0, options_fingerprint(OmLevel::Simple, &base));

        let mut o = base.clone();
        o.verify = true;
        assert_ne!(f0, options_fingerprint(OmLevel::Full, &o));
        let mut o = base.clone();
        o.preemptible.push("malloc".into());
        assert_ne!(f0, options_fingerprint(OmLevel::Full, &o));
        let mut o = base.clone();
        o.fault = Some(crate::fault::FaultPlan::new(crate::fault::FaultKind::CountSkew, 3));
        let ff = options_fingerprint(OmLevel::Full, &o);
        assert_ne!(f0, ff);
        // A fresh plan at the same (kind, site) fingerprints identically:
        // firing state is runtime-only.
        let mut o2 = base.clone();
        o2.fault = Some(crate::fault::FaultPlan::new(crate::fault::FaultKind::CountSkew, 3));
        assert_eq!(ff, options_fingerprint(OmLevel::Full, &o2));
    }

    #[test]
    fn link_key_tracks_inputs_and_order(){
        let a = ContentHash(blake2s(b"a"));
        let b = ContentHash(blake2s(b"b"));
        let o = OmOptions::default();
        let k1 = link_key(&[a, b], &[], OmLevel::Full, &o);
        let k2 = link_key(&[b, a], &[], OmLevel::Full, &o);
        assert_ne!(k1, k2);
        assert_ne!(k1, link_key(&[a, b], &[a], OmLevel::Full, &o));
        assert_eq!(k1, link_key(&[a, b], &[], OmLevel::Full, &o));
    }
}
