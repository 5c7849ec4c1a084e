//! Content-addressed response cache: sharded in-memory map with a
//! checksummed on-disk spill.
//!
//! Keys are the 16-hex-digit content addresses of
//! [`crate::workload::Request::key_hash`]; values are fully rendered
//! response bodies. Shard selection hashes the key with the same stable
//! FNV-1a the addresses use, so a key always lands on the same shard in
//! every process. Storage is `BTreeMap` (PVS005: no unordered iteration
//! anywhere near rendered output) and each shard takes its own lock, so
//! concurrent hits on different shards never contend.
//!
//! The spill directory holds one `<key>.cell` file per entry in the
//! [`pvs_core::schema::SPILL_CELL_V1`] format: a one-line header
//! carrying the schema id, the body length in bytes, and an FNV-1a
//! checksum of the body, followed by the raw body. Writes go through the
//! workspace's atomic-write convention (content to a sibling
//! `*.tmp.<pid>`, then rename), and *reads verify before serving*: a
//! truncated, bit-flipped, or otherwise damaged entry is moved to
//! `<dir>/quarantine/` and reported as [`DiskRead::Corrupt`] — the cache
//! never serves a byte it cannot prove was the byte it wrote. A
//! warm-starting server runs [`ShardedCache::verify_spill`] over the
//! whole directory so torn artifacts from a killed writer are
//! quarantined before the first request arrives.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default shard count: enough to make cross-request lock contention
/// negligible at the connection counts the load generator drives.
pub const DEFAULT_SHARDS: usize = 16;

/// What a disk probe found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskRead {
    /// A verified entry (now promoted to memory).
    Hit(Arc<str>),
    /// No spill entry for this key.
    Miss,
    /// An entry existed but failed verification; it has been moved to
    /// the quarantine directory and the key must be recomputed.
    Corrupt,
}

/// Result of a warm-start spill scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillScan {
    /// Entries that passed header + checksum verification.
    pub verified: u64,
    /// Entries (or torn temp files) moved to quarantine.
    pub quarantined: u64,
}

/// Sharded `key → rendered response` store with optional disk spill.
#[derive(Debug)]
pub struct ShardedCache {
    // LOCK ORDER: 20 — taken under the flight map (tier 10) on the
    // request path; shard holders never take another lock (at most one
    // shard guard is ever live).
    shards: Vec<Mutex<BTreeMap<String, Arc<str>>>>,
    spill_dir: Option<PathBuf>,
}

impl ShardedCache {
    /// Cache with `shards` shards (at least one) and, when `spill_dir`
    /// is set, a disk spill under that directory (created on first
    /// insert).
    pub fn new(shards: usize, spill_dir: Option<PathBuf>) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::new(BTreeMap::new())).collect(),
            spill_dir,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total entries across shards (memory only).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock_shard(s).len()).sum()
    }

    /// Whether the in-memory cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock_shard<'a>(
        &self,
        shard: &'a Mutex<BTreeMap<String, Arc<str>>>,
    ) -> std::sync::MutexGuard<'a, BTreeMap<String, Arc<str>>> {
        // INFALLIBLE: shard holders only touch the map — no user code
        // runs under the lock, so poisoning is unreachable.
        shard.lock().expect("cache shard poisoned")
    }

    fn shard_of(&self, key: &str) -> &Mutex<BTreeMap<String, Arc<str>>> {
        let idx = pvs_core::hash::fnv1a(key.as_bytes()) as usize % self.shards.len();
        &self.shards[idx]
    }

    fn spill_path(&self, key: &str) -> Option<PathBuf> {
        self.spill_dir.as_ref().map(|d| d.join(format!("{key}.cell")))
    }

    /// Memory lookup only.
    pub fn get_memory(&self, key: &str) -> Option<Arc<str>> {
        self.lock_shard(self.shard_of(key)).get(key).cloned()
    }

    /// Disk lookup: the entry is verified against its header before
    /// anything else; a verified hit is promoted into memory so the next
    /// request is a memory hit, and a damaged entry is quarantined.
    pub fn get_disk(&self, key: &str) -> DiskRead {
        let Some(path) = self.spill_path(key) else {
            return DiskRead::Miss;
        };
        let raw = match std::fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskRead::Miss,
            Err(_) => {
                // Unreadable is indistinguishable from damaged: get the
                // entry out of the serving path.
                self.quarantine(&path);
                return DiskRead::Corrupt;
            }
        };
        match decode_cell(&raw) {
            Ok(body) => {
                let body: Arc<str> = body.into();
                self.lock_shard(self.shard_of(key)).insert(key.to_string(), Arc::clone(&body));
                DiskRead::Hit(body)
            }
            Err(_) => {
                self.quarantine(&path);
                DiskRead::Corrupt
            }
        }
    }

    /// Insert into memory and, when spilling is on, persist to disk.
    /// Returns `Err` only for spill I/O failures — the memory insert has
    /// already happened, so serving continues degraded rather than not
    /// at all.
    pub fn insert(&self, key: &str, body: Arc<str>) -> std::io::Result<()> {
        self.lock_shard(self.shard_of(key)).insert(key.to_string(), Arc::clone(&body));
        match self.spill_path(key) {
            None => Ok(()),
            Some(path) => write_atomic(&path, &encode_cell(&body)),
        }
    }

    /// Move a damaged spill file into `<dir>/quarantine/` for post-mortem
    /// inspection. Best-effort, never panics: if the move fails the file
    /// is deleted instead, so a bad entry can never be served twice.
    fn quarantine(&self, path: &Path) {
        let Some(dir) = self.spill_dir.as_ref() else {
            return;
        };
        let qdir = dir.join("quarantine");
        let moved = std::fs::create_dir_all(&qdir).is_ok()
            && std::fs::rename(path, qdir.join(path.file_name().unwrap_or_default())).is_ok();
        if !moved {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Warm-start integrity scan: verify every spill entry, quarantine
    /// anything damaged (including `*.tmp.*` leftovers from a writer
    /// killed mid-spill). Entries are checked in sorted path order;
    /// verified bodies are *not* loaded into memory — promotion stays
    /// lazy via [`ShardedCache::get_disk`].
    pub fn verify_spill(&self) -> SpillScan {
        let mut scan = SpillScan::default();
        let Some(dir) = self.spill_dir.as_ref() else {
            return scan;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return scan; // no directory yet: nothing spilled, nothing to verify
        };
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        paths.sort();
        for path in paths {
            let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
            if name.contains(".tmp.") {
                // A torn write: the writer died between `write` and
                // `rename`. The real entry (if any) is intact; the
                // fragment goes to quarantine.
                self.quarantine(&path);
                scan.quarantined += 1;
                continue;
            }
            if !name.ends_with(".cell") {
                continue; // not ours (legacy or foreign file); never served, never touched
            }
            let intact = std::fs::read(&path).is_ok_and(|raw| decode_cell(&raw).is_ok());
            if intact {
                scan.verified += 1;
            } else {
                self.quarantine(&path);
                scan.quarantined += 1;
            }
        }
        scan
    }
}

/// Render a spill entry: the versioned header line (schema id, body
/// length in bytes, FNV-1a checksum of the body), then the raw body.
pub fn encode_cell(body: &str) -> String {
    format!(
        "{} {} {:016x}\n{}",
        pvs_core::schema::SPILL_CELL_V1,
        body.len(),
        pvs_core::hash::fnv1a(body.as_bytes()),
        body
    )
}

/// Verify and strip the spill header. Every failure mode — missing or
/// malformed header, wrong schema, short (truncated) or long body,
/// checksum mismatch, invalid UTF-8 — is a one-line error; the caller
/// quarantines on any of them.
pub fn decode_cell(raw: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(raw).map_err(|e| format!("not UTF-8: {e}"))?;
    let (header, body) = text.split_once('\n').ok_or("missing spill header line")?;
    let mut fields = header.split(' ');
    let (schema, len, sum) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
        (Some(s), Some(l), Some(c), None) => (s, l, c),
        _ => return Err(format!("malformed spill header {header:?}")),
    };
    if schema != pvs_core::schema::SPILL_CELL_V1 {
        return Err(format!("unknown spill schema {schema:?}"));
    }
    let len: usize = len.parse().map_err(|e| format!("bad spill length {len:?}: {e}"))?;
    let sum = u64::from_str_radix(sum, 16).map_err(|e| format!("bad spill checksum: {e}"))?;
    if body.len() != len {
        return Err(format!("spill body is {} bytes, header says {len}", body.len()));
    }
    if pvs_core::hash::fnv1a(body.as_bytes()) != sum {
        return Err("spill checksum mismatch".to_string());
    }
    Ok(body.to_string())
}

/// Atomic file write (the `pvs` commands write their documents through
/// it too): parent directories are created, content lands in a sibling
/// `*.tmp.<pid>` and is renamed into place; on failure the temp file is
/// removed and any pre-existing target survives untouched.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    let result = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pvs_serve_cache_{}_{name}", std::process::id()))
    }

    fn disk_hit(c: &ShardedCache, key: &str) -> Arc<str> {
        match c.get_disk(key) {
            DiskRead::Hit(body) => body,
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn memory_roundtrip_and_shard_stability() {
        let c = ShardedCache::new(4, None);
        assert!(c.is_empty());
        assert!(c.get_memory("0123456789abcdef").is_none());
        c.insert("0123456789abcdef", "body-a".into()).unwrap();
        c.insert("fedcba9876543210", "body-b".into()).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(&*c.get_memory("0123456789abcdef").unwrap(), "body-a");
        assert_eq!(&*c.get_memory("fedcba9876543210").unwrap(), "body-b");
        // Re-insert replaces.
        c.insert("0123456789abcdef", "body-a2".into()).unwrap();
        assert_eq!(&*c.get_memory("0123456789abcdef").unwrap(), "body-a2");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn disk_spill_roundtrips_and_promotes() {
        let dir = scratch("spill");
        let _ = std::fs::remove_dir_all(&dir);
        let warm = ShardedCache::new(2, Some(dir.clone()));
        warm.insert("00000000000000aa", "spilled body".into()).unwrap();
        assert!(dir.join("00000000000000aa.cell").exists());

        // A cold cache (fresh process restart) finds the entry on disk
        // and promotes it into memory.
        let cold = ShardedCache::new(2, Some(dir.clone()));
        assert!(cold.get_memory("00000000000000aa").is_none());
        assert_eq!(&*disk_hit(&cold, "00000000000000aa"), "spilled body");
        assert_eq!(&*cold.get_memory("00000000000000aa").unwrap(), "spilled body");
        assert_eq!(cold.get_disk("00000000000000bb"), DiskRead::Miss);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_entries_carry_header_and_decode_rejects_damage() {
        let body = "{\"time_s\":1.5}";
        let encoded = encode_cell(body);
        assert!(encoded.starts_with(pvs_core::schema::SPILL_CELL_V1));
        assert_eq!(decode_cell(encoded.as_bytes()).unwrap(), body);

        // Every strict prefix (a torn write) is rejected.
        for cut in 0..encoded.len() {
            assert!(
                decode_cell(&encoded.as_bytes()[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Any single-byte flip in the body is caught by the checksum.
        for i in encoded.find('\n').unwrap() + 1..encoded.len() {
            let mut bytes = encoded.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            assert!(decode_cell(&bytes).is_err(), "flip at byte {i} decoded");
        }
        // A wrong schema line is rejected even with a valid body.
        let other = format!("pvs-serve/spill-cell-v9 {} {:016x}\n{body}", body.len(), 0u64);
        assert!(decode_cell(other.as_bytes()).unwrap_err().contains("schema"));
    }

    #[test]
    fn torn_write_is_quarantined_and_restart_serves_nothing_bad() {
        let dir = scratch("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let warm = ShardedCache::new(2, Some(dir.clone()));
        warm.insert("00000000000000aa", "good body".into()).unwrap();
        warm.insert("00000000000000bb", "other body".into()).unwrap();

        // Kill-the-writer-mid-spill simulation: truncate one entry to a
        // prefix of itself (a non-atomic torn write), leave a partial
        // temp file (the atomic writer's artifact when killed between
        // write and rename), and a bare orphan temp from another writer.
        let torn = dir.join("00000000000000aa.cell");
        let full = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &full[..full.len() / 2]).unwrap();
        std::fs::write(dir.join("00000000000000cc.cell.tmp.999"), b"partial").unwrap();
        std::fs::write(dir.join("00000000000000dd.tmp.7"), b"{\"half\":").unwrap();

        let cold = ShardedCache::new(2, Some(dir.clone()));
        let scan = cold.verify_spill();
        assert_eq!(scan, SpillScan { verified: 1, quarantined: 3 }, "{scan:?}");
        // The torn entry reads as corrupt-before-scan too: a second
        // cold cache (no warm-start scan) still refuses to serve it.
        assert_eq!(cold.get_disk("00000000000000aa"), DiskRead::Miss, "quarantined");
        assert_eq!(&*disk_hit(&cold, "00000000000000bb"), "other body");
        // Quarantine holds all three artifacts.
        let q: Vec<_> = std::fs::read_dir(dir.join("quarantine")).unwrap().flatten().collect();
        assert_eq!(q.len(), 3, "{q:?}");
        // A rescan is idempotent: quarantined files never come back.
        assert_eq!(cold.verify_spill(), SpillScan { verified: 1, quarantined: 0 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_entry_is_never_served() {
        let dir = scratch("flip");
        let _ = std::fs::remove_dir_all(&dir);
        let warm = ShardedCache::new(1, Some(dir.clone()));
        warm.insert("00000000000000aa", "precious bytes".into()).unwrap();
        let path = dir.join("00000000000000aa.cell");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20; // flip one bit inside the body
        std::fs::write(&path, &bytes).unwrap();

        let cold = ShardedCache::new(1, Some(dir.clone()));
        assert_eq!(cold.get_disk("00000000000000aa"), DiskRead::Corrupt);
        assert!(!path.exists(), "corrupt entry must leave the serving path");
        assert!(dir.join("quarantine").join("00000000000000aa.cell").exists());
        // After quarantine the key is a plain miss, ready to recompute.
        assert_eq!(cold.get_disk("00000000000000aa"), DiskRead::Miss);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_temp_files_survive_inserts() {
        let dir = scratch("tmpclean");
        let _ = std::fs::remove_dir_all(&dir);
        let c = ShardedCache::new(1, Some(dir.clone()));
        for i in 0..8 {
            c.insert(&format!("{i:016x}"), format!("body {i}").into()).unwrap();
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_shard_degenerate_case_works() {
        let c = ShardedCache::new(0, None); // clamped to 1
        assert_eq!(c.shards(), 1);
        c.insert("00000000000000cc", "x".into()).unwrap();
        assert_eq!(&*c.get_memory("00000000000000cc").unwrap(), "x");
    }
}
