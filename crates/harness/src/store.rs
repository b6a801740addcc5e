//! The content-addressed result store: `RunKey = SHA-256(canonical
//! request)` → serialized [`RunResult`] (DESIGN.md §13).
//!
//! Soundness rests on two invariants the repo already enforces:
//!
//! 1. **Determinism** — the simulator is a pure function of the request
//!    (same program, configuration, variant, attack ⇒ byte-identical
//!    `RunResult`; pinned by the merge and fast-forward equivalence
//!    tests). A stored result is therefore indistinguishable from a
//!    fresh simulation.
//! 2. **Schema coverage** — the key hashes the *canonical* request
//!    encoding from [`crate::proto`], whose codec destructures every
//!    configuration struct exhaustively. Adding a field to `SimConfig`
//!    (or any nested struct, or `RunRequest` itself) breaks compilation
//!    until the codec — and therefore the key — covers it, so a
//!    configuration change can never alias an old cache entry.

use crate::proto::{self, Json};
use crate::sim::{RunRequest, RunResult, SimError};
use crate::SimConfig;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Version tag mixed into every key; bump it to invalidate all existing
/// stores when the encoding itself changes meaning.
pub(crate) const KEY_SCHEMA: &str = "sdo-runkey-v1";

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), in-tree: the workspace is offline-clean.
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Computes the SHA-256 digest of `data`.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = H0;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block);
    }
    // Pad only the tail: 0x80, zeros, 64-bit big-endian bit length —
    // one block, or two when the length no longer fits after the tail.
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let end = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..end].chunks_exact(64) {
        compress(&mut h, block);
    }
    digest_bytes(&h)
}

fn digest_bytes(h: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Folds one 64-byte block into the hash state.
fn compress(h: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
    h[5] = h[5].wrapping_add(f);
    h[6] = h[6].wrapping_add(g);
    h[7] = h[7].wrapping_add(hh);
}

// ---------------------------------------------------------------------------
// RunKey
// ---------------------------------------------------------------------------

/// The content address of one simulation: the SHA-256 of the canonical
/// request encoding with the configuration fully resolved (the
/// simulator's base configuration is substituted in before hashing, so a
/// request with no override and one overriding to the same configuration
/// hash identically — they *are* the same simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey([u8; 32]);

impl RunKey {
    /// Computes the key for `req` as executed by a simulator configured
    /// with `base`.
    #[must_use]
    pub fn of(req: &RunRequest, base: SimConfig) -> RunKey {
        let config = req.effective_config(base);
        let mut payload = String::from(KEY_SCHEMA);
        payload.push('\n');
        proto::write_request(req, Some(&config), &mut payload);
        RunKey(sha256(payload.as_bytes()))
    }

    /// The key as 64 lowercase hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 64];
        for (pair, b) in out.chunks_exact_mut(2).zip(self.0) {
            pair[0] = DIGITS[usize::from(b >> 4)];
            pair[1] = DIGITS[usize::from(b & 0xf)];
        }
        out.iter().map(|&d| char::from(d)).collect()
    }
}

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

// ---------------------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------------------

/// A directory of serialized [`RunResult`]s addressed by [`RunKey`]
/// (`<dir>/<first-two-hex>/<hex>.json`, plus a regenerable
/// `manifest.tsv`). Writes are atomic (temp file + rename), so
/// concurrent clients and a daemon can share one store.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, SimError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| SimError::Store(format!("cannot create {}: {e}", dir.display())))?;
        Ok(ResultStore { dir })
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &RunKey) -> PathBuf {
        let hex = key.hex();
        self.dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Fetches a stored result, or `None` on a miss.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure or a corrupt entry.
    pub fn load(&self, key: &RunKey) -> Result<Option<RunResult>, SimError> {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(SimError::Store(format!("cannot read {}: {e}", path.display())))
            }
        };
        let corrupt =
            |e: String| SimError::Store(format!("corrupt entry {}: {e}", path.display()));
        let value = proto::parse_json(&text).map_err(corrupt)?;
        proto::result_from_json(&value).map(Some).map_err(corrupt)
    }

    /// Persists a result under `key` (atomic; a racing identical write
    /// is harmless because content-addressed entries are immutable).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn save(&self, key: &RunKey, result: &RunResult) -> Result<(), SimError> {
        let path = self.entry_path(key);
        if path.exists() {
            return Ok(());
        }
        let parent = path.parent().expect("entry path has a parent");
        fs::create_dir_all(parent)
            .map_err(|e| SimError::Store(format!("cannot create {}: {e}", parent.display())))?;
        let tmp = parent.join(format!(
            ".{}.tmp.{}",
            key.hex(),
            std::process::id()
        ));
        let write = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(proto::result_to_json(result).render().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        write.map_err(|e| {
            let _ = fs::remove_file(&tmp);
            SimError::Store(format!("cannot write {}: {e}", path.display()))
        })
    }

    /// Every key currently in the store, sorted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn keys(&self) -> Result<Vec<String>, SimError> {
        let mut keys = Vec::new();
        let shards = fs::read_dir(&self.dir)
            .map_err(|e| SimError::Store(format!("cannot list {}: {e}", self.dir.display())))?;
        for shard in shards {
            let shard =
                shard.map_err(|e| SimError::Store(format!("cannot list store: {e}")))?;
            if !shard.path().is_dir() {
                continue;
            }
            let entries = fs::read_dir(shard.path())
                .map_err(|e| SimError::Store(format!("cannot list store shard: {e}")))?;
            for entry in entries {
                let entry =
                    entry.map_err(|e| SimError::Store(format!("cannot list store: {e}")))?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(hex) = name.strip_suffix(".json") {
                    if hex.len() == 64 && !hex.starts_with('.') {
                        keys.push(hex.to_string());
                    }
                }
            }
        }
        keys.sort();
        Ok(keys)
    }

    /// Number of entries in the store.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn len(&self) -> Result<u64, SimError> {
        Ok(self.keys()?.len() as u64)
    }

    /// Whether the store holds no entries.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn is_empty(&self) -> Result<bool, SimError> {
        Ok(self.keys()?.is_empty())
    }

    /// Renders the store manifest: one sorted
    /// `key<TAB>workload<TAB>variant<TAB>attack<TAB>cycles` line per
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure or a corrupt entry.
    pub fn manifest(&self) -> Result<String, SimError> {
        let mut out = String::new();
        for hex in self.keys()? {
            let path = self.dir.join(&hex[..2]).join(format!("{hex}.json"));
            let text = fs::read_to_string(&path)
                .map_err(|e| SimError::Store(format!("cannot read {}: {e}", path.display())))?;
            let value = proto::parse_json(&text)
                .map_err(|e| SimError::Store(format!("corrupt entry {hex}: {e}")))?;
            let field = |key: &str| -> Result<String, SimError> {
                match value.get(key) {
                    Some(Json::Str(s)) => Ok(s.clone()),
                    Some(Json::UInt(n)) => Ok(n.to_string()),
                    _ => Err(SimError::Store(format!("corrupt entry {hex}: missing {key}"))),
                }
            };
            out.push_str(&format!(
                "{hex}\t{}\t{}\t{}\t{}\n",
                field("workload")?,
                field("variant")?,
                field("attack")?,
                field("cycles")?,
            ));
        }
        Ok(out)
    }

    /// Writes (atomically replaces) `manifest.tsv` in the store root and
    /// returns its path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Store`] on I/O failure.
    pub fn write_manifest(&self) -> Result<PathBuf, SimError> {
        let manifest = self.manifest()?;
        let path = self.dir.join("manifest.tsv");
        let tmp = self.dir.join(format!(".manifest.tmp.{}", std::process::id()));
        fs::write(&tmp, manifest)
            .and_then(|()| fs::rename(&tmp, &path))
            .map_err(|e| SimError::Store(format!("cannot write manifest: {e}")))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::Variant;
    use sdo_workloads::kernels::l1_resident;

    fn hex(bytes: &[u8; 32]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The reference padding: append 0x80, zeros and the bit length to a
    /// copy of the whole message, then hash every block.
    fn sha256_reference(data: &[u8]) -> [u8; 32] {
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());
        let mut h = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut h, block);
        }
        digest_bytes(&h)
    }

    #[test]
    fn tail_padding_matches_the_copying_reference() {
        let data: Vec<u8> =
            (0..(1u32 << 20) + 57).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        // Every length through 200 covers the one- and two-block tails
        // (55/56/63/64/119/120 are the edges).
        for len in 0..=200 {
            assert_eq!(sha256(&data[..len]), sha256_reference(&data[..len]), "length {len}");
        }
        for len in [1 << 20, (1 << 20) + 57] {
            assert_eq!(sha256(&data[..len]), sha256_reference(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Cross the one-block boundary (padding edge case).
        let long = vec![b'a'; 1_000];
        assert_eq!(
            hex(&sha256(&long)),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn run_key_is_stable_and_config_sensitive() {
        let prog = l1_resident(100, 1);
        let base = SimConfig::tiny();
        let req = RunRequest::program(&prog).variant(Variant::Hybrid);
        let k1 = RunKey::of(&req, base);
        let k2 = RunKey::of(&req.clone(), base);
        assert_eq!(k1, k2, "same request ⇒ same key");
        // An explicit override equal to the base is the same simulation.
        assert_eq!(RunKey::of(&req.clone().config(base), base), k1);
        // Any divergence — variant, seed, or a config field — changes it.
        assert_ne!(RunKey::of(&req.clone().variant(Variant::Perfect), base), k1);
        assert_ne!(RunKey::of(&req.clone().seed(1), base), k1);
        let mut other = base;
        other.max_cycles += 1;
        assert_ne!(RunKey::of(&req, other), k1);
    }

    #[test]
    fn store_round_trips_and_counts() {
        let dir = std::env::temp_dir().join(format!("sdo-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty().unwrap());

        let prog = l1_resident(100, 1);
        let base = SimConfig::tiny();
        let req = RunRequest::program(&prog).variant(Variant::Hybrid);
        let key = RunKey::of(&req, base);
        assert_eq!(store.load(&key).unwrap(), None);

        let result = Simulator::new(base).run(&req).unwrap().into_result();
        store.save(&key, &result).unwrap();
        assert_eq!(store.load(&key).unwrap(), Some(result.clone()));
        assert_eq!(store.len().unwrap(), 1);
        // Re-saving is a no-op (content-addressed, immutable).
        store.save(&key, &result).unwrap();
        assert_eq!(store.len().unwrap(), 1);

        let manifest = store.manifest().unwrap();
        assert!(manifest.starts_with(&key.hex()));
        assert!(manifest.contains("l1_resident\thybrid\tspectre"));
        let path = store.write_manifest().unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), manifest);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_store_errors() {
        let dir = std::env::temp_dir().join(format!("sdo-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let prog = l1_resident(50, 1);
        let key = RunKey::of(&RunRequest::program(&prog), SimConfig::tiny());
        let path = dir.join(&key.hex()[..2]).join(format!("{}.json", key.hex()));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(store.load(&key), Err(SimError::Store(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
