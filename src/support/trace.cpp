#include "support/trace.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>

namespace prose::trace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator
// ---------------------------------------------------------------------------

namespace {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : p_(text.data()), end_(text.data() + text.size()) {}

  bool check(std::string* error) {
    if (!value(0)) {
      if (error != nullptr) *error = error_;
      return false;
    }
    skip_ws();
    if (p_ != end_) {
      if (error != nullptr) *error = "trailing characters after JSON value";
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 128;

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }

  bool fail(const char* what) {
    error_ = what;
    return false;
  }

  bool literal(std::string_view word) {
    if (static_cast<std::size_t>(end_ - p_) < word.size() ||
        std::string_view(p_, word.size()) != word) {
      return fail("invalid literal");
    }
    p_ += word.size();
    return true;
  }

  bool string() {
    if (p_ == end_ || *p_ != '"') return fail("expected string");
    ++p_;
    while (p_ != end_ && *p_ != '"') {
      if (static_cast<unsigned char>(*p_) < 0x20) return fail("raw control character in string");
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return fail("truncated escape");
        const char e = *p_;
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p_;
            if (p_ == end_ || std::isxdigit(static_cast<unsigned char>(*p_)) == 0) {
              return fail("bad \\u escape");
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return fail("bad escape character");
        }
      }
      ++p_;
    }
    if (p_ == end_) return fail("unterminated string");
    ++p_;  // closing quote
    return true;
  }

  bool number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    if (p_ == end_ || std::isdigit(static_cast<unsigned char>(*p_)) == 0) {
      return fail("expected digit");
    }
    while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) ++p_;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      if (p_ == end_ || std::isdigit(static_cast<unsigned char>(*p_)) == 0) {
        return fail("expected fraction digits");
      }
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      if (p_ == end_ || std::isdigit(static_cast<unsigned char>(*p_)) == 0) {
        return fail("expected exponent digits");
      }
      while (p_ != end_ && std::isdigit(static_cast<unsigned char>(*p_)) != 0) ++p_;
    }
    return p_ != start;
  }

  bool value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (p_ == end_) return fail("unexpected end of input");
    switch (*p_) {
      case '{': {
        ++p_;
        skip_ws();
        if (p_ != end_ && *p_ == '}') { ++p_; return true; }
        while (true) {
          skip_ws();
          if (!string()) return false;
          skip_ws();
          if (p_ == end_ || *p_ != ':') return fail("expected ':'");
          ++p_;
          if (!value(depth + 1)) return false;
          skip_ws();
          if (p_ != end_ && *p_ == ',') { ++p_; continue; }
          if (p_ != end_ && *p_ == '}') { ++p_; return true; }
          return fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++p_;
        skip_ws();
        if (p_ != end_ && *p_ == ']') { ++p_; return true; }
        while (true) {
          if (!value(depth + 1)) return false;
          skip_ws();
          if (p_ != end_ && *p_ == ',') { ++p_; continue; }
          if (p_ != end_ && *p_ == ']') { ++p_; return true; }
          return fail("expected ',' or ']'");
        }
      }
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const char* p_;
  const char* end_;
  std::string error_;
};

/// Fixed-format double for timestamps/durations (stable across platforms,
/// unlike the default ostream formatting).
std::string fmt_us(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string fmt_value(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool validate_json(std::string_view text, std::string* error) {
  return JsonChecker(text).check(error);
}

std::string TraceContext::trace_hex() const {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(trace_id_hi),
                static_cast<unsigned long long>(trace_id_lo));
  return buf;
}

std::string AttrValue::to_json() const {
  switch (kind_) {
    case Kind::kString: return '"' + json_escape(str_) + '"';
    case Kind::kDouble: return fmt_value(num_);
    case Kind::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%" PRId64, int_);
      return buf;
    }
    case Kind::kBool: return int_ != 0 ? "true" : "false";
  }
  return "null";
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(const TraceOptions& options) : options_(options) {
  if (!options_.enabled()) return;
  if (!options_.jsonl_path.empty()) {
    jsonl_.open(options_.jsonl_path, std::ios::out | std::ios::trunc);
    if (!jsonl_) {
      error_ = Status(StatusCode::kInvalidArgument,
                      "cannot open trace JSONL file '" + options_.jsonl_path + "'");
      return;
    }
  }
  if (!options_.chrome_path.empty()) {
    // The Chrome export is only written at flush(); probe the path eagerly so
    // an unwritable sink fails at campaign start, not after hours of work.
    std::ofstream probe(options_.chrome_path, std::ios::out | std::ios::trunc);
    if (!probe) {
      error_ = Status(StatusCode::kInvalidArgument,
                      "cannot open trace file '" + options_.chrome_path + "'");
      return;
    }
  }
  epoch_ = std::chrono::steady_clock::now();
  enabled_ = true;
}

Tracer::~Tracer() { (void)flush(); }

double Tracer::us_at(std::chrono::steady_clock::time_point t) const {
  if (!enabled_) return 0.0;
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

void Tracer::emit(std::string_view name, char phase, Track track, double ts_us,
                  double dur_us, const Attrs& attrs, bool has_value, double value,
                  bool has_id, std::uint64_t id) {
  if (!enabled_) return;
  std::string ev;
  ev.reserve(128);
  ev += "{\"name\":\"";
  ev += json_escape(name);
  ev += "\",\"cat\":\"prose\",\"ph\":\"";
  ev += phase;
  ev += "\",\"ts\":";
  ev += fmt_us(ts_us);
  if (phase == 'X') {
    ev += ",\"dur\":";
    ev += fmt_us(dur_us);
  }
  if (phase == 'i') ev += ",\"s\":\"t\"";
  if (has_id) {
    char idbuf[32];
    std::snprintf(idbuf, sizeof idbuf, "0x%llx",
                  static_cast<unsigned long long>(id));
    ev += ",\"id\":\"";
    ev += idbuf;
    ev += '"';
  }
  if (phase == 'f') ev += ",\"bp\":\"e\"";
  ev += ",\"pid\":";
  ev += std::to_string(track.pid);
  ev += ",\"tid\":";
  ev += std::to_string(track.tid);
  if (has_value || !attrs.empty()) {
    ev += ",\"args\":{";
    bool first = true;
    if (has_value) {
      ev += "\"value\":";
      ev += fmt_value(value);
      first = false;
    }
    for (const Attr& a : attrs) {
      if (!first) ev += ',';
      first = false;
      ev += '"';
      ev += json_escape(a.key);
      ev += "\":";
      ev += a.value.to_json();
    }
    ev += '}';
  }
  ev += '}';

  if (metrics_.events != nullptr) metrics_.events->inc();
  std::lock_guard lock(mu_);
  if (jsonl_.is_open()) {
    jsonl_ << ev << '\n';
    if (!jsonl_) {
      // Degrade, don't fail: a campaign is worth more than its timeline.
      // Warn once, record the error for the summary, and stop writing so
      // every later emit isn't a failing syscall. (Open failures, by
      // contrast, still fail the campaign up front — see the constructor.)
      const Status failure(StatusCode::kInvalidArgument,
                           "write failed on trace JSONL file '" +
                               options_.jsonl_path + "'");
      if (error_.is_ok()) error_ = failure;
      if (metrics_.write_errors != nullptr) metrics_.write_errors->inc();
      std::fprintf(stderr,
                   "warning: %s — campaign continues; timeline will be "
                   "incomplete\n",
                   failure.to_string().c_str());
      jsonl_.close();
    }
  }
  if (!options_.chrome_path.empty()) chrome_events_.push_back(std::move(ev));
}

void Tracer::set_process_name(int pid, std::string_view name) {
  if (!enabled_ || options_.chrome_path.empty()) return;
  std::lock_guard lock(mu_);
  chrome_events_.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                           std::to_string(pid) + ",\"args\":{\"name\":\"" +
                           json_escape(name) + "\"}}");
}

void Tracer::set_thread_name(int pid, int tid, std::string_view name) {
  if (!enabled_ || options_.chrome_path.empty()) return;
  std::lock_guard lock(mu_);
  chrome_events_.push_back("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
                           std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                           ",\"args\":{\"name\":\"" + json_escape(name) + "\"}}");
}

void Tracer::begin(std::string_view name, Track track, double ts_us,
                   const Attrs& attrs) {
  emit(name, 'B', track, ts_us, 0.0, attrs, /*has_value=*/false, 0.0);
}

void Tracer::end(std::string_view name, Track track, double ts_us,
                 const Attrs& attrs) {
  emit(name, 'E', track, ts_us, 0.0, attrs, /*has_value=*/false, 0.0);
}

void Tracer::complete(std::string_view name, Track track, double ts_us,
                      double dur_us, const Attrs& attrs) {
  emit(name, 'X', track, ts_us, dur_us, attrs, /*has_value=*/false, 0.0);
}

void Tracer::instant(std::string_view name, Track track, double ts_us,
                     const Attrs& attrs) {
  emit(name, 'i', track, ts_us, 0.0, attrs, /*has_value=*/false, 0.0);
}

void Tracer::counter(std::string_view name, Track track, double ts_us,
                     double value) {
  emit(name, 'C', track, ts_us, 0.0, {}, /*has_value=*/true, value);
}

void Tracer::async_begin(std::string_view name, Track track, double ts_us,
                         std::uint64_t id, const Attrs& attrs) {
  emit(name, 'b', track, ts_us, 0.0, attrs, /*has_value=*/false, 0.0,
       /*has_id=*/true, id);
}

void Tracer::async_end(std::string_view name, Track track, double ts_us,
                       std::uint64_t id, const Attrs& attrs) {
  emit(name, 'e', track, ts_us, 0.0, attrs, /*has_value=*/false, 0.0,
       /*has_id=*/true, id);
}

void Tracer::flow_start(std::string_view name, Track track, double ts_us,
                        std::uint64_t id) {
  emit(name, 's', track, ts_us, 0.0, {}, /*has_value=*/false, 0.0,
       /*has_id=*/true, id);
}

void Tracer::flow_end(std::string_view name, Track track, double ts_us,
                      std::uint64_t id) {
  emit(name, 'f', track, ts_us, 0.0, {}, /*has_value=*/false, 0.0,
       /*has_id=*/true, id);
}

Status Tracer::flush() {
  std::lock_guard lock(mu_);
  if (!enabled_ || flushed_) return error_;
  flushed_ = true;
  if (jsonl_.is_open()) jsonl_.flush();
  if (!options_.chrome_path.empty()) {
    std::ofstream out(options_.chrome_path, std::ios::out | std::ios::trunc);
    if (!out) {
      if (error_.is_ok()) {
        error_ = Status(StatusCode::kInvalidArgument,
                        "cannot open Chrome trace file '" + options_.chrome_path + "'");
      }
      return error_;
    }
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < chrome_events_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << chrome_events_[i];
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    if (!out && error_.is_ok()) {
      error_ = Status(StatusCode::kInvalidArgument,
                      "write failed on Chrome trace file '" + options_.chrome_path + "'");
    }
  }
  return error_;
}

}  // namespace prose::trace
