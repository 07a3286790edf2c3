#include "eval/checkpoint.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "eval/runner.hpp"
#include "support/atomic_file.hpp"
#include "support/parse_error.hpp"

namespace tvnep::eval {

namespace {

constexpr int kJournalVersion = 1;

// FNV-1a, the same construction everywhere a stable hash is needed here.
std::uint64_t fnv1a(const std::string& data,
                    std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Round-trip-exact double rendering: %.17g re-reads to the identical
// double, so a resumed cell reproduces its CSV row byte for byte.
std::string render_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_quote(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

std::string journal_header(std::uint64_t fingerprint) {
  return "{\"journal\":\"tvnep-sweep\",\"version\":" +
         std::to_string(kJournalVersion) + ",\"fingerprint\":\"" +
         fingerprint_hex(fingerprint) + "\"}\n";
}

// Minimal strict JSON-line parser for journal records: objects of
// string-keyed string/number/bool values, with one level of object
// nesting for "fields". Every failure is a ParseError carrying the
// journal path, line and 1-based column.
class JsonLineParser {
 public:
  JsonLineParser(const std::string& source, long line_number,
                 const std::string& text)
      : source_(source), line_(line_number), text_(text) {}

  // Parses `{"k":v,...}` where a value may itself be a flat object.
  // Returns top-level scalars in `scalars` and nested objects in
  // `objects`.
  void parse_record(std::map<std::string, JournalValue>* scalars,
                    std::map<std::string, std::map<std::string, JournalValue>>*
                        objects) {
    skip_ws();
    expect('{');
    skip_ws();
    if (consume('}')) {
      expect_end();
      return;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (peek() == '{') {
        std::map<std::string, JournalValue> nested;
        parse_flat_object(&nested);
        (*objects)[key] = std::move(nested);
      } else {
        (*scalars)[key] = parse_scalar();
      }
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      break;
    }
    expect_end();
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(source_, line_, static_cast<long>(pos_) + 1, message);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t'))
      ++pos_;
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void expect(char c) {
    if (!consume(c))
      fail(std::string("expected '") + c + "'");
  }
  void expect_end() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after record");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned value = 0;
            const auto [ptr, ec] = std::from_chars(
                text_.data() + pos_, text_.data() + pos_ + 4, value, 16);
            if (ec != std::errc{} || ptr != text_.data() + pos_ + 4)
              fail("malformed \\u escape");
            pos_ += 4;
            // Journal strings are ASCII-safe by construction; anything
            // above is preserved as a replacement byte.
            out += value < 0x80 ? static_cast<char>(value) : '?';
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    expect('"');
    return out;
  }

  JournalValue parse_scalar() {
    const char c = peek();
    if (c == '"') return JournalValue(parse_string());
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return JournalValue(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return JournalValue(false);
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a JSON value");
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_) {
      pos_ = start;
      fail("malformed number");
    }
    return JournalValue(value);
  }

  void parse_flat_object(std::map<std::string, JournalValue>* out) {
    expect('{');
    skip_ws();
    if (consume('}')) return;
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (peek() == '{') fail("nested object inside fields");
      (*out)[key] = parse_scalar();
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      break;
    }
  }

  const std::string& source_;
  long line_;
  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

double JournalValue::as_number(double fallback) const {
  switch (kind) {
    case Kind::kNumber: return number;
    case Kind::kBool: return boolean ? 1.0 : 0.0;
    case Kind::kString:
      if (string == "inf") return std::numeric_limits<double>::infinity();
      if (string == "-inf") return -std::numeric_limits<double>::infinity();
      if (string == "nan") return std::numeric_limits<double>::quiet_NaN();
      return fallback;
  }
  return fallback;
}

bool JournalValue::as_bool(bool fallback) const {
  switch (kind) {
    case Kind::kBool: return boolean;
    case Kind::kNumber: return number != 0.0;
    case Kind::kString: return fallback;
  }
  return fallback;
}

std::uint64_t cell_key_hash(const CellKey& key) {
  std::uint64_t hash = fnv1a(key.label);
  hash = fnv1a("/" + std::to_string(key.flex_index), hash);
  hash = fnv1a("/" + std::to_string(key.seed), hash);
  return hash;
}

double CellRecord::number(const std::string& name, double fallback) const {
  const auto it = fields.find(name);
  return it == fields.end() ? fallback : it->second.as_number(fallback);
}

bool CellRecord::boolean(const std::string& name, bool fallback) const {
  const auto it = fields.find(name);
  return it == fields.end() ? fallback : it->second.as_bool(fallback);
}

std::string CellRecord::text(const std::string& name,
                             const std::string& fallback) const {
  const auto it = fields.find(name);
  if (it == fields.end() || it->second.kind != JournalValue::Kind::kString)
    return fallback;
  return it->second.string;
}

std::string journal_value_json(const JournalValue& value) {
  switch (value.kind) {
    case JournalValue::Kind::kBool: return value.boolean ? "true" : "false";
    case JournalValue::Kind::kString: return json_quote(value.string);
    case JournalValue::Kind::kNumber:
      if (std::isnan(value.number)) return "\"nan\"";
      if (std::isinf(value.number))
        return value.number > 0 ? "\"inf\"" : "\"-inf\"";
      return render_number(value.number);
  }
  return "null";
}

std::string journal_record_json(const CellRecord& record) {
  std::string out = "{\"label\":" + json_quote(record.key.label) +
                    ",\"flex_index\":" +
                    std::to_string(record.key.flex_index) +
                    ",\"seed\":" + std::to_string(record.key.seed) +
                    ",\"fields\":{";
  bool first = true;
  for (const auto& [name, value] : record.fields) {
    if (!first) out += ',';
    out += json_quote(name) + ":" + journal_value_json(value);
    first = false;
  }
  out += "}}";
  return out;
}

std::unique_ptr<SweepJournal> SweepJournal::create(const std::string& path,
                                                   std::uint64_t fingerprint) {
  auto journal = std::unique_ptr<SweepJournal>(new SweepJournal());
  journal->path_ = path;
  if (!atomic_write_file(path, journal_header(fingerprint)))
    throw ParseError(path, 1, 0, "cannot create checkpoint journal");
  return journal;
}

std::unique_ptr<SweepJournal> SweepJournal::resume(const std::string& path,
                                                   std::uint64_t fingerprint) {
  std::ifstream in(path);
  if (!in.good()) return create(path, fingerprint);

  auto journal = std::unique_ptr<SweepJournal>(new SweepJournal());
  journal->path_ = path;

  std::string line;
  long line_number = 0;
  bool header_seen = false;
  bool torn = false;

  // Collect lines first so "is this the final line?" is known when a
  // parse fails — only the torn last record of a crashed append may be
  // dropped; corruption anywhere else must surface. getline sets eof only
  // when a line ends without its newline.
  std::vector<std::string> lines;
  bool last_terminated = true;
  while (std::getline(in, line)) {
    lines.push_back(line);
    last_terminated = !in.eof();
  }
  if (in.bad()) throw ParseError(path, 0, 0, "I/O error reading journal");
  in.close();

  for (std::size_t i = 0; i < lines.size(); ++i) {
    ++line_number;
    if (lines[i].empty()) continue;
    const bool last = i + 1 == lines.size();
    std::map<std::string, JournalValue> scalars;
    std::map<std::string, std::map<std::string, JournalValue>> objects;
    bool parsed = true;
    try {
      JsonLineParser(path, line_number, lines[i])
          .parse_record(&scalars, &objects);
    } catch (const ParseError&) {
      if (!last) throw;
      parsed = false;
    }
    // Torn final line: the append in flight when the process died. A
    // record that parses but lacks its newline is torn too (the crash fell
    // between the record bytes and the newline); keeping it would glue the
    // next append onto it.
    if (!parsed || (header_seen && last && !last_terminated)) {
      std::cerr << "journal: dropping torn final record at " << path << ":"
                << line_number << '\n';
      torn = true;
      break;
    }

    if (!header_seen) {
      const auto it = scalars.find("journal");
      if (it == scalars.end() || it->second.as_string() != "tvnep-sweep")
        throw ParseError(path, line_number, 0,
                         "not a tvnep sweep journal (bad header)");
      if (static_cast<int>(scalars["version"].as_number(-1)) !=
          kJournalVersion)
        throw ParseError(path, line_number, 0,
                         "unsupported journal version");
      const std::string want = fingerprint_hex(fingerprint);
      const std::string have = scalars["fingerprint"].as_string();
      if (have != want)
        throw ParseError(
            path, line_number, 0,
            "refusing to resume: journal was written under a different "
            "sweep configuration (fingerprint " +
                have + ", current config " + want + ")");
      header_seen = true;
      continue;
    }

    CellRecord record;
    const auto label = scalars.find("label");
    const auto flex = scalars.find("flex_index");
    const auto seed = scalars.find("seed");
    if (label == scalars.end() || flex == scalars.end() ||
        seed == scalars.end())
      throw ParseError(path, line_number, 0,
                       "journal record is missing its cell key");
    record.key.label = label->second.as_string();
    record.key.flex_index = static_cast<int>(flex->second.as_number(-1));
    record.key.seed = static_cast<int>(seed->second.as_number(-1));
    const auto fields = objects.find("fields");
    if (fields == objects.end())
      throw ParseError(path, line_number, 0,
                       "journal record has no fields object");
    record.fields = fields->second;
    // Last record wins: a cell journaled twice (e.g. a resume raced the
    // original's fsync) keeps its most recent row.
    journal->records_[record.key] = std::move(record);
  }

  if (!header_seen && !lines.empty())
    throw ParseError(path, 1, 0, "journal has no readable header");
  if (!header_seen) return create(path, fingerprint);

  journal->loaded_ = journal->records_.size();

  if (torn) {
    // Repair the file on disk: the torn bytes have no trailing newline,
    // so a later append would concatenate onto them and corrupt both
    // records. Rewrite header + surviving records atomically (this also
    // compacts duplicate cells to their last-wins row).
    std::string repaired = journal_header(fingerprint);
    for (const auto& [key, record] : journal->records_)
      repaired += journal_record_json(record) + '\n';
    if (!atomic_write_file(path, repaired))
      throw ParseError(path, 0, 0,
                       "cannot rewrite journal to drop its torn final line");
  }
  return journal;
}

const CellRecord* SweepJournal::find(const CellKey& key) const {
  const auto it = records_.find(key);
  return it == records_.end() ? nullptr : &it->second;
}

bool SweepJournal::append(const CellRecord& record) {
  const std::string json = journal_record_json(record);
  std::lock_guard<std::mutex> lock(append_mutex_);
  return durable_append_line(path_, json);
}

std::uint64_t sweep_fingerprint(const SweepConfig& config,
                                const std::string& bench_id) {
  std::ostringstream os;
  os.precision(17);
  const workload::WorkloadParams& w = config.base;
  os << "bench=" << bench_id << ";requests=" << w.num_requests
     << ";grid=" << w.grid_rows << "x" << w.grid_cols
     << ";leaves=" << w.star_leaves << ";ncap=" << w.node_capacity
     << ";lcap=" << w.link_capacity << ";dmin=" << w.demand_min
     << ";dmax=" << w.demand_max << ";arrival=" << w.interarrival_mean
     << ";weibull=" << w.weibull_shape << "," << w.weibull_scale
     << ";fixmap=" << w.fix_node_mappings << ";flex=";
  for (const double f : config.flexibilities) os << f << ",";
  os << ";seeds=" << config.seeds << ";tl=" << config.time_limit
     << ";presolve=" << config.presolve << ";scaling=" << config.lp_scaling
     << ";fault=" << config.lp_fault_period << "/" << config.lp_fault_burst
     << ";cuts=" << config.build.dependency_cuts
     << config.build.pairwise_cuts << config.build.precedence_cuts
     << ";obj=" << static_cast<int>(config.build.objective)
     << ";cell_timeout=" << config.cell_timeout
     << ";cell_retries=" << config.cell_retries;
  return fnv1a(os.str());
}

}  // namespace tvnep::eval
