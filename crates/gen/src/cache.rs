//! On-disk `.oscg` cache for generated Table II instances.
//!
//! Profile generation (Holme–Kim topology + weights + workload) is O(E) with
//! nontrivial constants; at full Table II scale (Google+ 13.7M edges, Douban
//! 86M) it dominates every experiment's setup. [`generate_cached`] memoizes
//! the finished instance — graph *and* workload attributes *and* budget — as
//! an [`osn_graph::binary`] file named by a content hash of the generation
//! inputs, so a repeated run decodes the finished instance from disk
//! instead of regenerating it.
//!
//! The key hashes the profile name, the `scale` bits, the RNG `seed`, and
//! both the generator and file-format versions, so any input or algorithm
//! change produces a different file name — stale caches are simply never
//! hit, and a cache directory can be wiped at any time with no correctness
//! impact.

use crate::profiles::{DatasetProfile, GeneratedInstance};
use osn_graph::binary;
use osn_graph::GraphError;
use std::path::{Path, PathBuf};

/// Bump when profile generation changes in a way that alters its output
/// (topology, weights, workload, or RNG stream structure): old cache files
/// then miss instead of serving stale instances.
pub const GENERATOR_VERSION: u32 = 1;

/// Content-hash key of a generation request.
///
/// Word-wise FNV-1a (the `.oscg` checksum) over the profile name, scale
/// bits, seed, and the generator version and the format version the cache
/// writes.
pub fn cache_key(profile: DatasetProfile, scale: f64, seed: u64) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(profile.name().as_bytes());
    bytes.extend_from_slice(&scale.to_bits().to_le_bytes());
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.extend_from_slice(&GENERATOR_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(binary::VERSION as u32).to_le_bytes());
    osn_graph::shard::checksum(&bytes)
}

/// The cache file path for a generation request:
/// `<dir>/<profile>-<key>.oscg` with a filesystem-safe profile slug.
pub fn cache_path(dir: &Path, profile: DatasetProfile, scale: f64, seed: u64) -> PathBuf {
    let mut slug = String::new();
    for c in profile.name().chars() {
        if c.is_ascii_alphanumeric() {
            slug.extend(c.to_lowercase());
        } else if c == '+' {
            slug.push_str("plus");
        }
    }
    dir.join(format!(
        "{slug}-{:016x}.oscg",
        cache_key(profile, scale, seed)
    ))
}

/// Like [`DatasetProfile::generate`], but memoized through `dir`.
///
/// On a hit the instance is decoded from the `.oscg` file and is
/// identical — graph contents, workload attributes, and budget, all
/// bit-for-bit — to a fresh generation. On a miss the instance is generated, written atomically (temp file + rename,
/// so concurrent processes never observe a torn cache entry), and returned.
///
/// A cache file that exists but fails to decode (truncated download, disk
/// corruption — the checksum catches it) is discarded and regenerated
/// rather than surfaced as an error.
pub fn generate_cached(
    profile: DatasetProfile,
    scale: f64,
    seed: u64,
    dir: &Path,
) -> Result<GeneratedInstance, GraphError> {
    let path = cache_path(dir, profile, scale, seed);
    if path.exists() {
        match binary::load_oscg(&path) {
            Ok(file) => {
                if let Some(workload) = file.workload {
                    return Ok(GeneratedInstance {
                        graph: file.graph,
                        data: workload.data,
                        budget: workload.budget,
                        profile,
                    });
                }
                // A graph-only file under a profile key is foreign; fall
                // through and overwrite it with a complete instance.
            }
            // Another process may delete a corrupt entry between our
            // `exists` check and the open — a vanished file is a plain
            // cache miss, not an error.
            Err(GraphError::Io(e)) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(GraphError::Io(e))
            }
            Err(_) => {
                // Corrupt (or just-vanished) cache entry: regenerate below.
                std::fs::remove_file(&path).ok();
            }
        }
    }

    let inst = profile.generate(scale, seed)?;
    std::fs::create_dir_all(dir)?;
    binary::write_oscg_atomic(&path, &inst.graph, Some((&inst.data, inst.budget)))?;
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("osn-gen-cache-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn keys_separate_inputs() {
        let a = cache_key(DatasetProfile::Facebook, 0.02, 1);
        assert_ne!(a, cache_key(DatasetProfile::Facebook, 0.02, 2));
        assert_ne!(a, cache_key(DatasetProfile::Facebook, 0.03, 1));
        assert_ne!(a, cache_key(DatasetProfile::Epinions, 0.02, 1));
        assert_eq!(a, cache_key(DatasetProfile::Facebook, 0.02, 1));
    }

    #[test]
    fn paths_are_filesystem_safe() {
        let p = cache_path(Path::new("/c"), DatasetProfile::GooglePlus, 0.01, 7);
        let name = p.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("googleplus-"), "{name}");
        assert!(name.ends_with(".oscg"));
        assert!(!name.contains('+'));
    }

    #[test]
    fn cache_hit_is_bit_identical_to_fresh_generation() {
        let dir = temp_cache_dir("hit");
        let fresh = DatasetProfile::Facebook.generate(0.02, 9).unwrap();

        let miss = generate_cached(DatasetProfile::Facebook, 0.02, 9, &dir).unwrap();
        assert!(cache_path(&dir, DatasetProfile::Facebook, 0.02, 9).exists());
        let hit = generate_cached(DatasetProfile::Facebook, 0.02, 9, &dir).unwrap();

        for inst in [&miss, &hit] {
            assert_eq!(inst.graph, fresh.graph, "graph contents must match");
            assert_eq!(inst.data, fresh.data, "workload must match");
            assert_eq!(
                inst.budget.to_bits(),
                fresh.budget.to_bits(),
                "budget must be bit-identical"
            );
            assert_eq!(inst.profile, DatasetProfile::Facebook);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_cache_entry_regenerates() {
        let dir = temp_cache_dir("corrupt");
        let path = cache_path(&dir, DatasetProfile::Facebook, 0.02, 11);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"OSCGgarbage").unwrap();
        let inst = generate_cached(DatasetProfile::Facebook, 0.02, 11, &dir).unwrap();
        let fresh = DatasetProfile::Facebook.generate(0.02, 11).unwrap();
        assert_eq!(inst.graph, fresh.graph);
        // The bad entry was replaced with a loadable one.
        assert!(osn_graph::binary::load_oscg(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_seeds_use_different_files() {
        let dir = temp_cache_dir("seeds");
        generate_cached(DatasetProfile::Facebook, 0.02, 1, &dir).unwrap();
        generate_cached(DatasetProfile::Facebook, 0.02, 2, &dir).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
