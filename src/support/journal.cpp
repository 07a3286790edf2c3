#include "support/journal.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "support/parse_error.hpp"

namespace tvnep {

std::uint64_t fnv1a(const std::string& data, std::uint64_t hash) {
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

std::string journal_header(const JournalFormat& format,
                           std::uint64_t fingerprint,
                           const std::string& extra) {
  return std::string("{\"") + format.magic_key + "\":\"" + format.magic +
         "\",\"version\":" + std::to_string(format.version) +
         ",\"fingerprint\":\"" + fingerprint_hex(fingerprint) + "\"" + extra +
         "}";
}

void check_journal_header(const JsonValue& header, const JournalFormat& format,
                          std::uint64_t fingerprint,
                          const std::string& source) {
  const JsonValue* magic = header.find(format.magic_key);
  if (magic == nullptr || !magic->is_string() ||
      magic->as_string() != format.magic)
    throw ParseError(source, 1, 0,
                     std::string("not a ") + format.magic + " " +
                         format.magic_key + " (bad header)");
  const JsonValue* version = header.find("version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != format.version)
    throw ParseError(source, 1, 0,
                     "unsupported format version (this build reads " +
                         std::to_string(format.version) + ")");
  const JsonValue* hex = header.find("fingerprint");
  const std::string want = fingerprint_hex(fingerprint);
  const std::string have =
      hex != nullptr && hex->is_string() ? hex->as_string() : "none";
  if (have != want)
    throw ParseError(source, 1, 0,
                     "refusing to resume: written under a different "
                     "configuration (fingerprint " +
                         have + ", current configuration " + want + ")");
}

bool read_journal_lines(const std::string& path, JournalLines* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  std::size_t begin = 0;
  while (begin < content.size()) {
    const std::size_t end = content.find('\n', begin);
    if (end == std::string::npos) {
      out->lines.push_back(content.substr(begin));
      out->last_terminated = false;
      break;
    }
    out->lines.push_back(content.substr(begin, end - begin));
    begin = end + 1;
  }
  return true;
}

JournalReplay replay_journal(
    const std::string& path, const JournalFormat& format,
    std::uint64_t fingerprint,
    const std::function<void(const JsonValue& record, long line)>& apply,
    const std::function<std::string()>& compact) {
  JournalReplay out;
  JournalLines file;
  if (!read_journal_lines(path, &file) || file.lines.empty()) return out;
  out.found = true;
  const std::string& header = file.lines[0];
  check_journal_header(parse_json(header, path, 1), format, fingerprint, path);

  std::string kept = header + '\n';
  for (std::size_t i = 1; i < file.lines.size(); ++i) {
    const long line = static_cast<long>(i) + 1;
    const bool last = i + 1 == file.lines.size();
    if (file.lines[i].empty()) continue;
    JsonValue record;
    try {
      record = parse_json(file.lines[i], path, line);
    } catch (const ParseError&) {
      if (!last) throw;
      out.torn_line = line;
      break;
    }
    if (last && !file.last_terminated) {
      out.torn_line = line;
      break;
    }
    apply(record, line);
    kept += file.lines[i] + '\n';
  }

  if (out.torn_line > 0) {
    const std::string repaired = compact ? header + '\n' + compact() : kept;
    if (!atomic_write_file(path, repaired))
      throw ParseError(path, out.torn_line, 0,
                       "cannot rewrite the file to drop its torn final line");
  }
  return out;
}

}  // namespace tvnep
