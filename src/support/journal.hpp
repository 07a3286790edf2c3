// The journal file format shared by the sweep checkpoint (eval/checkpoint)
// and the serve WAL and its snapshots (serve/wal), and its recovery rule.
//
// A journal is a header line
//
//   {"<magic_key>":"<magic>","version":N,"fingerprint":"<16 hex>"}
//
// followed by one JSON record per line, each appended whole and
// newline-terminated by its owner's appender. The fingerprint is an FNV-1a
// hash of the configuration the records were computed under; resuming
// under another configuration is refused.
//
// Torn-tail rule: the final line is the append that was in flight when
// the process died. If it fails to parse, or parses but lacks its '\n'
// (the crash fell between the record bytes and the newline), it was never
// acknowledged: it is dropped and the file is rewritten atomically through
// support/atomic_file, so the next append cannot glue onto the torn bytes.
// A bad line anywhere else is real damage and throws a located ParseError.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace tvnep {

class JsonValue;

/// FNV-1a (64-bit): the stable hash behind every fingerprint and cell-key
/// hash. Chain calls by passing the previous result as `hash`.
std::uint64_t fnv1a(const std::string& data,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

/// A fingerprint as 16 lowercase hex digits.
std::string fingerprint_hex(std::uint64_t fingerprint);

/// Identity of one journal kind.
struct JournalFormat {
  const char* magic_key;  // "journal", "wal", "snapshot"
  const char* magic;      // "tvnep-sweep", "tvnep-serve"
  int version;
};

/// The header line without its newline. `extra` (",\"key\":value...") is
/// placed before the closing brace, for headers that carry more members.
std::string journal_header(const JournalFormat& format,
                           std::uint64_t fingerprint,
                           const std::string& extra = {});

/// Throws a ParseError at `source` line 1 unless `header` is `format`'s
/// header carrying `fingerprint`. The fingerprint mismatch says "refusing
/// to resume".
void check_journal_header(const JsonValue& header, const JournalFormat& format,
                          std::uint64_t fingerprint, const std::string& source);

/// A file split on '\n'.
struct JournalLines {
  std::vector<std::string> lines;
  bool last_terminated = true;  // the final line ended with '\n'
};

/// Reads `path` into `out`; false when the file cannot be opened.
bool read_journal_lines(const std::string& path, JournalLines* out);

struct JournalReplay {
  bool found = false;  // the file existed and was non-empty
  long torn_line = 0;  // line number of the dropped torn record, 0 if none
};

/// Replays the journal at `path`: checks its header against `format` and
/// `fingerprint`, then calls `apply(record, line)` for every non-empty
/// record line in file order, under the torn-tail rule above. A repaired
/// file holds the header and then `compact()` when it is given, else the
/// surviving record lines verbatim. Errors thrown by `apply` propagate,
/// before any repair.
JournalReplay replay_journal(
    const std::string& path, const JournalFormat& format,
    std::uint64_t fingerprint,
    const std::function<void(const JsonValue& record, long line)>& apply,
    const std::function<std::string()>& compact = {});

}  // namespace tvnep
