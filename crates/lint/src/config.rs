//! The naming vocabulary: where type-level inference falls short, the
//! analyzer classifies call targets and function contexts by identifier
//! conventions that the repo's persistency API already follows (`table`,
//! `markers`, `entries`, `ck`, `tp`, `sink`, …).
//!
//! Each list is a constant of this module, read through its free
//! predicates. A function's context comes from its name first and from its
//! file's name second ([`fn_context`], [`is_wal_file`]).

/// The execution context a function is analyzed under. Context decides
/// which rule a publish point is checked against (see `analysis`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnContext {
    /// Forward execution (LP/EP regions).
    Forward,
    /// Post-crash recovery / repair code — progress publishes must trail
    /// the repairs they vouch for (rule S4).
    Recovery,
    /// Write-ahead-logging code — undo entries must be durably ordered
    /// before in-place overwrites (rule S3).
    Wal,
}

/// Store targets holding durable progress markers.
const MARKER_TARGETS: &[&str] = &["markers", "marker"];
/// Store receivers/targets that are checksum tables.
const TABLE_TARGETS: &[&str] = &["table"];
/// Store targets that are WAL undo-log entry arrays.
const LOG_TARGETS: &[&str] = &["entries", "log"];
/// Store targets that are WAL arena headers (status/count/marker).
const LOG_HEADER_TARGETS: &[&str] = &["header"];
/// Store targets/receivers that are per-region parity arenas.
const PARITY_TARGETS: &[&str] = &["parity"];
/// Receivers whose `update` call folds a running checksum.
const FOLD_RECEIVERS: &[&str] = &["ck", "checksum"];
/// Receivers whose `begin`/`commit` bracket a persistency region.
const REGION_RECEIVERS: &[&str] = &["tp"];
/// Receivers whose `store` routes through a scheme/recovery sink (flush
/// bookkeeping owned by the sink, not the caller).
const SINK_RECEIVERS: &[&str] = &["sink"];
/// Substrings of a function name implying recovery context.
const RECOVERY_FN_MARKERS: &[&str] = &[
    "recover", "rebuild", "restore", "repair", "replay", "scrub", "zero_", "arm_",
];
/// Substring of a function name or file stem implying WAL context.
const WAL_MARKER: &str = "wal";
/// Trailing accessor calls stripped when resolving a store/flush target
/// from an argument expression (`arr.addr(i)` → `arr`).
const ACCESSORS: &[&str] = &["addr", "array", "entries_array", "header_array", "base"];

/// Whether the last segment of the dotted path `path` is one of `names`.
fn last_seg_in(names: &[&str], path: &str) -> bool {
    names.contains(&path.rsplit('.').next().unwrap_or(path))
}

/// Whether `target` (a dotted path like `self.handles.table`) names a
/// checksum table.
pub fn is_table(target: &str) -> bool {
    last_seg_in(TABLE_TARGETS, target)
}

/// Whether `target` names a durable progress marker array.
pub fn is_marker(target: &str) -> bool {
    last_seg_in(MARKER_TARGETS, target)
}

/// Whether `target` names a WAL undo-log entry array. Requires WAL
/// evidence (an `arena` segment in the path, or WAL code) so an unrelated
/// `entries` field elsewhere stays a plain data store.
pub fn is_log(target: &str, wal_code: bool) -> bool {
    last_seg_in(LOG_TARGETS, target) && (wal_code || target.contains("arena"))
}

/// Whether `target` names a WAL arena header line, under the same WAL
/// evidence as [`is_log`].
pub fn is_log_header(target: &str, wal_code: bool) -> bool {
    last_seg_in(LOG_HEADER_TARGETS, target) && (wal_code || target.contains("arena"))
}

/// Whether `target` names a per-region parity arena.
pub fn is_parity(target: &str) -> bool {
    last_seg_in(PARITY_TARGETS, target)
}

/// Whether `receiver` is a running-checksum fold target.
pub fn is_fold_receiver(receiver: &str) -> bool {
    last_seg_in(FOLD_RECEIVERS, receiver)
}

/// Whether `receiver` is a per-thread persistency runtime (`tp`).
pub fn is_region_receiver(receiver: &str) -> bool {
    last_seg_in(REGION_RECEIVERS, receiver)
}

/// Whether `receiver` is a store sink.
pub fn is_sink_receiver(receiver: &str) -> bool {
    last_seg_in(SINK_RECEIVERS, receiver)
}

/// Whether the call `name` is a pure accessor (`arr.addr(i)`).
pub fn is_accessor(name: &str) -> bool {
    ACCESSORS.contains(&name)
}

/// Infer a function's context from its name: recovery markers first, so
/// `recover_wal` stays recovery, then `wal`. `None` leaves the decision
/// to the file's name ([`is_wal_file`]).
pub fn fn_context(fn_name: &str) -> Option<FnContext> {
    let lower = fn_name.to_ascii_lowercase();
    if RECOVERY_FN_MARKERS.iter().any(|m| lower.contains(m)) {
        Some(FnContext::Recovery)
    } else if lower.contains(WAL_MARKER) {
        Some(FnContext::Wal)
    } else {
        None
    }
}

/// Whether a file stem (`wal`, `wal_data_before_log`, …) marks WAL
/// code.
pub fn is_wal_file(file_stem: &str) -> bool {
    file_stem.to_ascii_lowercase().contains(WAL_MARKER)
}

/// Strip trailing accessor segments when resolving a target
/// (`arr.addr` → `arr`).
pub fn strip_accessors(mut target: &str) -> &str {
    while let Some((head, tail)) = target.rsplit_once('.') {
        if !is_accessor(tail) {
            break;
        }
        target = head;
    }
    target
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_uses_last_segment() {
        assert!(is_table("self.handles.table"));
        assert!(is_table("table"));
        assert!(!is_table("self.handles"));
        assert!(is_marker("markers"));
        assert!(is_fold_receiver("self.ck"));
        assert!(is_region_receiver("tp"));
    }

    #[test]
    fn log_needs_wal_evidence() {
        assert!(is_log("self.arena.entries", false));
        assert!(is_log("entries", true));
        assert!(!is_log("self.entries", false), "table.rs field stays data");
        assert!(is_log_header("arena.header", false));
    }

    #[test]
    fn context_inference_and_accessors() {
        assert_eq!(fn_context("recover_lazy"), Some(FnContext::Recovery));
        assert_eq!(fn_context("rebuild_strip"), Some(FnContext::Recovery));
        // Recovery markers are checked before `wal`: only a name with
        // `wal` and no recovery marker is WAL code.
        assert_eq!(fn_context("recover_wal"), Some(FnContext::Recovery));
        assert_eq!(fn_context("wal_recover"), Some(FnContext::Recovery));
        assert_eq!(fn_context("wal_data_before_log"), Some(FnContext::Wal));
        assert_eq!(fn_context("region_body"), None);
        assert!(is_wal_file("wal_data_before_log"));
        assert!(!is_wal_file("table"));
        assert_eq!(strip_accessors("self.c.array"), "self.c");
        assert_eq!(strip_accessors("arr.addr"), "arr");
        assert_eq!(strip_accessors("arr"), "arr");
    }
}
