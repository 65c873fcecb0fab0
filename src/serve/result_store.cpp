#include "serve/result_store.h"

#include "serve/wire.h"
#include "support/json.h"
#include "support/strings.h"
#include "tuner/eval_codec.h"

namespace prose::serve {
namespace {

constexpr const char* kHeaderLine = "{\"type\":\"prose-store\",\"format\":1}\n";

/// Segments add their own "segment" index to this header.
constexpr const char* kSegmentHeader = "{\"type\":\"prose-store\",\"format\":2}";

/// One result as one store line. Shared by insert() and compact() so the
/// compacted generation is byte-compatible with the appended one.
void append_record_line(std::string& out, std::uint64_t digest,
                        std::uint64_t ns, const std::string& key,
                        std::uint64_t stream, const tuner::Evaluation& eval) {
  out += "{\"type\":\"result\"";
  out += ",\"id\":" + tuner::json_quoted(digest_hex(digest));
  out += ",\"ns\":" + tuner::json_quoted(digest_hex(ns));
  out += ",\"key\":" + tuner::json_quoted(key);
  out += ",\"stream\":" + std::to_string(stream);
  tuner::append_evaluation_fields(out, eval);
  out += "}\n";
}

}  // namespace

std::uint64_t ResultStore::content_key(std::uint64_t ns, const std::string& key,
                                       std::uint64_t stream) {
  std::string c = digest_hex(ns);
  c += '\0';
  c += key;
  c += '\0';
  c += std::to_string(stream);
  return fnv1a64(c);
}

bool ResultStore::insert_in_memory(std::uint64_t digest, std::uint64_t ns,
                                   const std::string& key,
                                   std::uint64_t stream,
                                   const tuner::Evaluation& eval) {
  auto& bucket = by_digest_[digest];
  for (const Record& rec : bucket) {
    if (rec.ns == ns && rec.stream == stream && rec.key == key) return false;
  }
  bucket.push_back(Record{ns, key, stream, eval});
  ++count_;
  return true;
}

record_log::Schema ResultStore::schema() {
  record_log::Schema schema;
  schema.header_type = "prose-store";
  schema.noun = "result store";
  schema.accept_record = [this](const json::Value& v) {
    const json::Value* type = v.find("type");
    if (type == nullptr || type->str_or("") != "result") return true;
    std::uint64_t ns = 0;
    const json::Value* ns_v = v.find("ns");
    const json::Value* key_v = v.find("key");
    if (ns_v == nullptr || key_v == nullptr ||
        !parse_digest_hex(ns_v->str_or(""), &ns) || !key_v->is_string()) {
      return false;
    }
    const std::string key = key_v->str_or("");
    const auto stream = static_cast<std::uint64_t>(
        v.find("stream") != nullptr ? v.find("stream")->int_or(0) : 0);
    auto eval = tuner::evaluation_from_json(v);
    if (!eval.is_ok()) return false;
    // Duplicates across segments (a crash between compaction's rename and
    // unlink leaves two generations) dedup here.
    insert_in_memory(content_key(ns, key, stream), ns, key, stream,
                     eval.value());
    return true;
  };
  return schema;
}

StatusOr<std::unique_ptr<ResultStore>> ResultStore::open(
    const std::string& path) {
  auto store = std::make_unique<ResultStore>();
  store->path_ = path;
  auto valid = record_log::recover_file(path, store->schema());
  if (!valid.is_ok()) return valid.status();
  store->recovered_ = store->count_;
  auto file = record_log::File::open(path, valid.value(), kHeaderLine);
  if (!file.is_ok()) return file.status();
  store->file_ = std::move(file).value();
  return store;
}

StatusOr<std::unique_ptr<ResultStore>> ResultStore::open_dir(
    const std::string& dir, const StoreOptions& options) {
  auto store = std::make_unique<ResultStore>();
  store->path_ = dir;
  auto log = record_log::SegmentedLog::open(dir, store->schema(),
                                            kSegmentHeader,
                                            options.rotate_bytes);
  if (!log.is_ok()) return log.status();
  store->recovered_ = store->count_;
  store->segments_ = std::move(log).value();
  if (options.compact_over_segments > 0 &&
      store->segments_->segment_count() > options.compact_over_segments) {
    std::lock_guard lock(store->mu_);
    if (const Status s = store->compact_locked(); !s.is_ok()) return s;
  }
  return store;
}

bool ResultStore::lookup(std::uint64_t ns, const std::string& key,
                         std::uint64_t stream, tuner::Evaluation* out) const {
  const std::uint64_t digest = content_key(ns, key, stream);
  std::lock_guard lock(mu_);
  const auto it = by_digest_.find(digest);
  if (it == by_digest_.end()) return false;
  for (const Record& rec : it->second) {
    if (rec.ns == ns && rec.stream == stream && rec.key == key) {
      *out = rec.eval;
      return true;
    }
  }
  return false;
}

void ResultStore::degrade_locked(const Status& why) {
  error_ = Status(StatusCode::kRuntimeFault,
                  "store: " + why.message() + " — continuing memory-only");
  file_.close();
  segments_.reset();
}

Status ResultStore::compact_locked() {
  if (!segments_) {
    return Status(StatusCode::kInvalidArgument,
                  "compaction requires a healthy segmented store");
  }
  if (segments_->segment_count() == 1 && count_ == 0) {
    return Status::ok();  // nothing to fold
  }
  std::string records;
  for (const auto& [digest, bucket] : by_digest_) {
    for (const Record& rec : bucket) {
      append_record_line(records, digest, rec.ns, rec.key, rec.stream,
                         rec.eval);
    }
  }
  return segments_->compact(records);
}

Status ResultStore::compact() {
  std::lock_guard lock(mu_);
  return compact_locked();
}

std::size_t ResultStore::insert(std::uint64_t ns, const std::string& key,
                                std::uint64_t stream,
                                const tuner::Evaluation& eval) {
  const std::uint64_t digest = content_key(ns, key, stream);
  std::lock_guard lock(mu_);
  // The lock is held until the record is durable, so no lookup sees it
  // earlier: a result a client was told is stored must survive kill -9.
  if (!insert_in_memory(digest, ns, key, stream, eval)) return 0;
  if (!file_.is_open() && !segments_) return 0;
  std::string line;
  append_record_line(line, digest, ns, key, stream, eval);
  const Status s = segments_ ? segments_->append(line) : file_.append(line);
  if (s.is_ok()) return line.size();
  degrade_locked(s);
  return 0;
}

std::size_t ResultStore::records() const {
  std::lock_guard lock(mu_);
  return count_;
}

std::size_t ResultStore::segment_count() const {
  std::lock_guard lock(mu_);
  if (segments_) return segments_->segment_count();
  return file_.is_open() ? 1 : 0;
}

Status ResultStore::error() const {
  std::lock_guard lock(mu_);
  return error_;
}

}  // namespace prose::serve
