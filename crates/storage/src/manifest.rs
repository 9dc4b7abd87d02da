//! The durability manifest: the one file that names the live file set.
//!
//! Every persistent [`crate::env::StorageEnv`] keeps a `MANIFEST` file in its
//! directory. Each record names one *component* (a Cubetree slot like
//! `cubetree-0`, or a conventional view's table/index) and the page file that
//! currently backs it, together with the file's page count and whole-file
//! content checksum. The manifest is rewritten atomically — write
//! `MANIFEST.tmp`, fsync it, rename over `MANIFEST`, fsync the directory — so
//! the forest's build-then-swap update becomes a single atomic commit: a
//! crash before the rename leaves the old manifest (and the old files)
//! intact, a crash after it leaves the new one, and recovery-on-open deletes
//! whichever orphaned `.pages`/`.run` files the surviving manifest does not
//! name.
//!
//! The format is a checksummed line-oriented text file:
//!
//! ```text
//! cubetrees-manifest v2
//! seq 3
//! file cubetree-0 0007-cubetree-0-gen1.pages 12 f00dfeedcafe1234
//! file view-5 0002-view-5.pages 3 0123456789abcdef
//! crc 55aa55aa55aa55aa
//! ```
//!
//! The trailing `crc` line is the workspace checksum
//! ([`crate::page::checksum`]) of everything before it, so a torn manifest
//! write is detected as [`ct_common::CtError::Corrupt`] rather than silently
//! trusted. The per-file sums use the same function, streamed over the file
//! in fixed chunks ([`file_checksum`]). Format `v1` used a byte-wise
//! checksum that is no longer implemented; a `v1` manifest is refused with
//! an error that says so, before its `crc` line is even looked at.
//!
//! All manifest I/O goes through `std::fs` directly — never the pager or the
//! buffer pool — so committing a manifest leaves the environment's simulated
//! [`crate::io::IoStats`] untouched. That preserves the repo's two pinned
//! contracts: byte-identical `IoSnapshot`s across worker counts
//! (`tests/parallel_equivalence.rs`) and zero counter drift with a disabled
//! recorder (`tests/metrics_obs.rs`).

use crate::fault::FaultPlan;
use crate::page::{checksum, Checksum};
use ct_common::{CtError, Result};
use std::path::{Path, PathBuf};

/// File name of the manifest inside an environment directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Scratch name used during an atomic rewrite.
pub const MANIFEST_TMP_NAME: &str = "MANIFEST.tmp";

const HEADER: &str = "cubetrees-manifest v2";
/// Header of the retired format, recognized only to refuse it by name.
const HEADER_V1: &str = "cubetrees-manifest v1";
/// The error a `v1` manifest gets, instead of a misleading crc mismatch.
const V1_REFUSAL: &str = "manifest v1 uses the retired FNV-1a checksum; rebuild the environment";
/// Read size of [`file_checksum`]: a whole number of checksum blocks.
const FILE_CHUNK: usize = 1 << 20;

/// One component → file binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Logical component name (e.g. `cubetree-0`, `view-5-table`).
    pub component: String,
    /// File name (relative to the environment directory) backing it.
    pub file: String,
    /// Allocated page count at commit time.
    pub pages: u64,
    /// Whole-file content checksum ([`crate::page::checksum`]) at commit
    /// time, for recovery to verify the file survived intact.
    pub checksum: u64,
}

/// The decoded manifest: a commit sequence number plus the live file set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Monotone commit counter (each [`Manifest::write_atomic`] bumps it).
    pub seq: u64,
    /// The live component → file bindings, in commit order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Looks up the entry for `component`.
    pub fn entry(&self, component: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.component == component)
    }

    /// Serializes to the checksummed text format.
    ///
    /// Component and file names must be single whitespace-free tokens (the
    /// environment only ever generates such names); anything else is an
    /// [`CtError::InvalidArgument`].
    pub fn encode(&self) -> Result<String> {
        let mut body = format!("{HEADER}\nseq {}\n", self.seq);
        for e in &self.entries {
            for (what, s) in [("component", &e.component), ("file", &e.file)] {
                if s.is_empty() || s.chars().any(char::is_whitespace) {
                    return Err(CtError::invalid(format!(
                        "manifest {what} name {s:?} must be one non-empty token"
                    )));
                }
            }
            body.push_str(&format!("file {} {} {} {:016x}\n", e.component, e.file, e.pages, e.checksum));
        }
        let crc = checksum(body.as_bytes());
        body.push_str(&format!("crc {crc:016x}\n"));
        Ok(body)
    }

    /// Parses the text format: checks the header, then verifies the
    /// trailing `crc` line, then reads the records.
    pub fn decode(text: &str) -> Result<Manifest> {
        let corrupt = |what: &str| CtError::corrupt(format!("manifest: {what}"));
        match text.lines().next() {
            Some(HEADER) => {}
            Some(HEADER_V1) => return Err(CtError::corrupt(V1_REFUSAL)),
            _ => return Err(corrupt("bad header")),
        }
        // The crc line is always last; anchor on the final line break so a
        // record token can never be mistaken for it.
        let last_line_start = text
            .trim_end_matches('\n')
            .rfind('\n')
            .map(|i| i + 1)
            .ok_or_else(|| corrupt("missing crc line"))?;
        let (body, crc_line) = text.split_at(last_line_start);
        if !crc_line.starts_with("crc ") {
            return Err(corrupt("missing crc line"));
        }
        let want = crc_line
            .strip_prefix("crc ")
            .and_then(|s| u64::from_str_radix(s.trim(), 16).ok())
            .ok_or_else(|| corrupt("malformed crc line"))?;
        if checksum(body.as_bytes()) != want {
            return Err(corrupt("checksum mismatch (torn write?)"));
        }
        let mut lines = body.lines().skip(1);
        let seq = lines
            .next()
            .and_then(|l| l.strip_prefix("seq "))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| corrupt("bad seq line"))?;
        let mut entries = Vec::new();
        for line in lines {
            let mut tok = line.split_whitespace();
            if tok.next() != Some("file") {
                return Err(corrupt("unknown record"));
            }
            let (component, file, pages, sum) =
                match (tok.next(), tok.next(), tok.next(), tok.next(), tok.next()) {
                    (Some(c), Some(f), Some(p), Some(s), None) => (c, f, p, s),
                    _ => return Err(corrupt("malformed file record")),
                };
            entries.push(ManifestEntry {
                component: component.to_string(),
                file: file.to_string(),
                pages: pages.parse().map_err(|_| corrupt("bad page count"))?,
                checksum: u64::from_str_radix(sum, 16).map_err(|_| corrupt("bad checksum"))?,
            });
        }
        Ok(Manifest { seq, entries })
    }

    /// Loads the manifest from `dir`, or `Ok(None)` if none was ever
    /// committed there. A present-but-undecodable manifest is an error — the
    /// caller must not guess at the live file set.
    pub fn load(dir: &Path) -> Result<Option<Manifest>> {
        match std::fs::read_to_string(dir.join(MANIFEST_NAME)) {
            Ok(text) => Ok(Some(Manifest::decode(&text)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Atomically replaces the manifest in `dir`: write `MANIFEST.tmp`,
    /// fsync, rename over `MANIFEST`, fsync the directory. `faults` is
    /// consulted at the two named crash points (`manifest/before_tmp`,
    /// `manifest/before_rename`) bracketing the non-atomic steps.
    pub fn write_atomic(&self, dir: &Path, faults: &FaultPlan) -> Result<()> {
        use std::io::Write;
        let text = self.encode()?;
        faults.crash_point("manifest/before_tmp")?;
        let tmp = dir.join(MANIFEST_TMP_NAME);
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_data()?;
        drop(f);
        faults.crash_point("manifest/before_rename")?;
        std::fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
        // Persist the rename itself. Directory fsync can be unsupported on
        // some filesystems; a failure there is not a torn manifest (the
        // rename is atomic either way), so it is ignored.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Computes the whole-file content checksum recovery verifies against,
/// reading via `std::fs` so simulated I/O counters stay untouched. The file
/// is streamed through [`Checksum`] in 1 MiB reads, so commit and recovery
/// memory does not grow with the file.
pub fn file_checksum(path: &Path) -> Result<u64> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; FILE_CHUNK];
    let mut sum = Checksum::new();
    loop {
        match file.read(&mut buf) {
            Ok(0) => return Ok(sum.finish()),
            Ok(n) => sum.update(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// The recovery report returned by [`recover`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// The manifest that survived, if any was ever committed.
    pub manifest: Option<Manifest>,
    /// Orphaned `.pages`/`.run` files (and any `MANIFEST.tmp`) deleted.
    pub orphans_removed: Vec<PathBuf>,
}

/// Recovers an environment directory to the state its manifest describes:
///
/// 1. a leftover `MANIFEST.tmp` (crash mid-commit) is deleted;
/// 2. every file the manifest names must exist with the recorded content
///    checksum — a mismatch is [`CtError::Corrupt`], because the manifest is
///    only committed after the files it names are synced;
/// 3. every *other* `.pages`/`.run` file in the directory is an orphan from
///    an interrupted build/update and is deleted.
///
/// With no manifest at all (a directory never committed to), every
/// `.pages`/`.run` file is an orphan.
pub fn recover(dir: &Path) -> Result<Recovery> {
    let tmp = dir.join(MANIFEST_TMP_NAME);
    let mut orphans = Vec::new();
    if tmp.exists() {
        std::fs::remove_file(&tmp)?;
        orphans.push(tmp);
    }
    let manifest = Manifest::load(dir)?;
    let live: Vec<&str> = manifest.iter().flat_map(|m| &m.entries).map(|e| e.file.as_str()).collect();
    if let Some(m) = &manifest {
        for e in &m.entries {
            let path = dir.join(&e.file);
            let sum = file_checksum(&path).map_err(|err| {
                CtError::corrupt(format!(
                    "manifest names {} but it cannot be read: {err}",
                    path.display()
                ))
            })?;
            if sum != e.checksum {
                return Err(CtError::corrupt(format!(
                    "content checksum mismatch for {} (manifest {:016x}, disk {sum:016x})",
                    path.display(),
                    e.checksum
                )));
            }
        }
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_data = name.ends_with(".pages") || name.ends_with(".run");
        if is_data && !live.contains(&name) {
            let path = entry.path();
            std::fs::remove_file(&path)?;
            orphans.push(path);
        }
    }
    Ok(Recovery { manifest, orphans_removed: orphans })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TempDir;

    fn sample() -> Manifest {
        Manifest {
            seq: 7,
            entries: vec![
                ManifestEntry {
                    component: "cubetree-0".into(),
                    file: "0003-cubetree-0.pages".into(),
                    pages: 12,
                    checksum: 0xdead_beef,
                },
                ManifestEntry {
                    component: "view-5".into(),
                    file: "0004-view-5.pages".into(),
                    pages: 0,
                    checksum: 0,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        let text = m.encode().unwrap();
        assert_eq!(Manifest::decode(&text).unwrap(), m);
        assert_eq!(Manifest::decode(&Manifest::default().encode().unwrap()).unwrap(), Manifest::default());
    }

    #[test]
    fn a_manifest_with_a_stamp_line_is_refused_as_an_unknown_record() {
        // What a shard's refresh used to commit: a `stamp` line after `seq`,
        // under a crc that is valid for the whole body.
        let plain = sample().encode().unwrap();
        let body_end = plain.rfind("crc ").unwrap();
        let body = plain[..body_end].replacen("seq 7\n", "seq 7\nstamp refresh-42\n", 1);
        let stamped = format!("{body}crc {:016x}\n", checksum(body.as_bytes()));
        match Manifest::decode(&stamped) {
            Err(CtError::Corrupt(msg)) => assert_eq!(msg, "manifest: unknown record"),
            other => panic!("expected the unknown-record refusal, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_detected() {
        let text = sample().encode().unwrap();
        // Flip one digit in the page count.
        let bad = text.replace(" 12 ", " 13 ");
        assert!(matches!(Manifest::decode(&bad), Err(CtError::Corrupt(_))));
        // Truncations lose the crc line or break the checksum. (Losing only
        // the final newline keeps the manifest intact, so cut real bytes.)
        for cut in [text.len() - 2, text.len() / 2, 3] {
            assert!(Manifest::decode(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(Manifest::decode("").is_err());
    }

    #[test]
    fn v1_manifest_is_refused_by_name_before_its_crc() {
        // A well-formed v1 manifest as the old format wrote it; its crc is
        // a byte-wise sum this crate no longer computes.
        let v1 = "cubetrees-manifest v1\nseq 3\nfile cubetree-0 0007-cubetree-0-gen1.pages 12 \
                  f00dfeedcafe1234\ncrc 6d9f3c1c2b4e8a01\n";
        match Manifest::decode(v1) {
            Err(CtError::Corrupt(msg)) => assert_eq!(msg, V1_REFUSAL),
            other => panic!("expected the v1 refusal, got {other:?}"),
        }
        // Any other header is plainly bad, whatever its crc says.
        let text = sample().encode().unwrap().replacen("v2", "v3", 1);
        assert!(matches!(Manifest::decode(&text), Err(CtError::Corrupt(m)) if m.contains("bad header")));
        assert!(sample().encode().unwrap().starts_with("cubetrees-manifest v2\n"));
    }

    #[test]
    fn streamed_file_checksum_equals_one_shot() {
        let dir = TempDir::new("manifest-filesum").unwrap();
        let data: Vec<u8> = (0..8192 * 3 + 7).map(|i| (i * 131 % 251) as u8).collect();
        for len in [0, 31, 32, 33, 8192 * 3 + 7] {
            let path = dir.path().join(format!("{len}.pages"));
            std::fs::write(&path, &data[..len]).unwrap();
            assert_eq!(file_checksum(&path).unwrap(), checksum(&data[..len]), "len {len}");
        }
        // Larger than one read chunk, and not a multiple of it.
        let big: Vec<u8> = (0..FILE_CHUNK + 4099).map(|i| (i % 253) as u8).collect();
        let path = dir.path().join("big.pages");
        std::fs::write(&path, &big).unwrap();
        assert_eq!(file_checksum(&path).unwrap(), checksum(&big));
    }

    #[test]
    fn names_with_whitespace_are_rejected() {
        let mut m = sample();
        m.entries[0].component = "bad name".into();
        assert!(m.encode().is_err());
        m.entries[0].component = "ok".into();
        m.entries[0].file = "".into();
        assert!(m.encode().is_err());
    }

    #[test]
    fn write_atomic_then_load() {
        let dir = TempDir::new("manifest-rw").unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap(), None);
        let m = sample();
        m.write_atomic(dir.path(), &FaultPlan::none()).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap(), Some(m.clone()));
        assert!(!dir.path().join(MANIFEST_TMP_NAME).exists());
        // A second commit replaces the first.
        let mut m2 = m;
        m2.seq += 1;
        m2.entries.pop();
        m2.write_atomic(dir.path(), &FaultPlan::none()).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap(), Some(m2));
    }

    #[test]
    fn recover_removes_orphans_and_tmp() {
        let dir = TempDir::new("manifest-recover").unwrap();
        let live = dir.path().join("0001-live.pages");
        std::fs::write(&live, b"live-bytes").unwrap();
        let m = Manifest {
            seq: 1,
            entries: vec![ManifestEntry {
                component: "t".into(),
                file: "0001-live.pages".into(),
                pages: 0,
                checksum: checksum(b"live-bytes"),
            }],
        };
        m.write_atomic(dir.path(), &FaultPlan::none()).unwrap();
        std::fs::write(dir.path().join("0002-orphan.pages"), b"x").unwrap();
        std::fs::write(dir.path().join("0003-orphan.run"), b"y").unwrap();
        std::fs::write(dir.path().join(MANIFEST_TMP_NAME), b"torn").unwrap();
        std::fs::write(dir.path().join("notes.txt"), b"kept").unwrap();
        let r = recover(dir.path()).unwrap();
        assert_eq!(r.manifest, Some(m));
        assert_eq!(r.orphans_removed.len(), 3);
        assert!(live.exists());
        assert!(dir.path().join("notes.txt").exists(), "non-data files untouched");
        assert!(!dir.path().join("0002-orphan.pages").exists());
        assert!(!dir.path().join("0003-orphan.run").exists());
        assert!(!dir.path().join(MANIFEST_TMP_NAME).exists());
    }

    #[test]
    fn recover_detects_content_corruption() {
        let dir = TempDir::new("manifest-corrupt").unwrap();
        std::fs::write(dir.path().join("0001-t.pages"), b"good").unwrap();
        let m = Manifest {
            seq: 1,
            entries: vec![ManifestEntry {
                component: "t".into(),
                file: "0001-t.pages".into(),
                pages: 0,
                checksum: checksum(b"good"),
            }],
        };
        m.write_atomic(dir.path(), &FaultPlan::none()).unwrap();
        std::fs::write(dir.path().join("0001-t.pages"), b"evil").unwrap();
        assert!(matches!(recover(dir.path()), Err(CtError::Corrupt(_))));
        std::fs::remove_file(dir.path().join("0001-t.pages")).unwrap();
        assert!(matches!(recover(dir.path()), Err(CtError::Corrupt(_))), "missing live file");
    }

    #[test]
    fn recover_without_manifest_clears_everything() {
        let dir = TempDir::new("manifest-none").unwrap();
        std::fs::write(dir.path().join("0001-a.pages"), b"x").unwrap();
        let r = recover(dir.path()).unwrap();
        assert_eq!(r.manifest, None);
        assert_eq!(r.orphans_removed.len(), 1);
    }

    #[test]
    fn crash_points_bracket_the_commit() {
        let dir = TempDir::new("manifest-crash").unwrap();
        let m = sample();
        let faults = FaultPlan::new();
        faults.arm_crash_point("manifest/before_tmp");
        assert!(m.write_atomic(dir.path(), &faults).unwrap_err().is_injected());
        assert!(!dir.path().join(MANIFEST_TMP_NAME).exists());
        assert!(!dir.path().join(MANIFEST_NAME).exists());
        faults.reset();
        faults.arm_crash_point("manifest/before_rename");
        assert!(m.write_atomic(dir.path(), &faults).unwrap_err().is_injected());
        assert!(dir.path().join(MANIFEST_TMP_NAME).exists(), "crashed after tmp write");
        assert!(!dir.path().join(MANIFEST_NAME).exists());
        // Recovery wipes the tmp; a clean retry then lands.
        recover(dir.path()).unwrap();
        faults.reset();
        m.write_atomic(dir.path(), &faults).unwrap();
        assert_eq!(Manifest::load(dir.path()).unwrap(), Some(m));
    }
}
