//! Flag parsing shared by the `repro`, `osn-serve` and `loadgen` binaries.
//!
//! Each helper takes the argument iterator positioned after a flag and
//! reads that flag's value. Malformed input is an `Err` naming the flag,
//! which every binary prints with its usage and turns into exit status 2;
//! nothing here panics or clamps.

use std::str::FromStr;

/// The value following `flag`.
pub fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The value following `flag`, parsed as a `T` (`what` describes `T` in
/// the error).
pub fn flag_number<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = flag_value(it, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} must be {what}, got {v:?}"))
}

/// The value following `flag`, parsed as a positive integer.
pub fn flag_positive<T: FromStr + Default + PartialEq>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = flag_value(it, flag)?;
    match v.parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        _ => Err(format!("{flag} must be a positive integer, got {v:?}")),
    }
}

/// The value following `flag`, parsed as a positive integer no larger
/// than `max`.
pub fn flag_count(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    max: usize,
) -> Result<usize, String> {
    match flag_positive(it, flag)? {
        n if n > max => Err(format!("{flag} must be at most {max}, got {n}")),
        n => Ok(n),
    }
}

/// `--pool-size N`: the worker count of the global pool, at most
/// [`osn_pool::MAX_THREADS`]. The pool is built once and cannot be
/// resized, so a repeated flag is an error rather than silently ignored.
pub fn pool_size_flag(
    it: &mut impl Iterator<Item = String>,
    pool_size: &mut Option<usize>,
) -> Result<(), String> {
    let threads = flag_count(it, "--pool-size", osn_pool::MAX_THREADS)?;
    match pool_size.replace(threads) {
        Some(_) => Err("--pool-size given twice".to_string()),
        None => Ok(()),
    }
}
