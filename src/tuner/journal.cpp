#include "tuner/journal.h"

#include <csignal>
#include <cstdio>

#include "support/json.h"
#include "support/trace.h"
#include "tuner/eval_codec.h"

namespace prose::tuner {
namespace {

// The %.17g / Infinity / NaN double encoding and the Evaluation field codec
// live in eval_codec.h, shared with the evaluation service (wire frames,
// result store) — a served result round-trips to the exact bytes a local
// journal would have written.
std::string quoted(std::string_view s) { return json_quoted(s); }

std::string header_line(const JournalHeader& h) {
  std::string line = "{\"type\":\"campaign\",\"format\":1";
  line += ",\"model\":" + quoted(h.model);
  line += ",\"noise_seed\":" + std::to_string(h.noise_seed);
  line += ",\"fault_spec\":" + quoted(h.fault_spec);
  line += ",\"fault_seed\":" + std::to_string(h.fault_seed);
  line += ",\"retry_max_attempts\":" + std::to_string(h.retry_max_attempts);
  line += ",\"retry_backoff_seconds\":" + json_double(h.retry_backoff_seconds);
  line += ",\"nodes\":" + std::to_string(h.nodes);
  line += ",\"wall_budget_seconds\":" + json_double(h.wall_budget_seconds);
  // Omitted entirely for the legacy two-level lattice, keeping those journal
  // bytes identical to every release before the k-level search existed.
  if (!h.formats.empty()) line += ",\"formats\":" + quoted(h.formats);
  line += "}\n";
  return line;
}

StatusOr<JournalHeader> parse_header(const json::Value& v) {
  JournalHeader h;
  const json::Value* model = v.find("model");
  if (model == nullptr || !model->is_string()) {
    return Status(StatusCode::kParseError, "journal header has no model");
  }
  h.model = model->str_or("");
  h.noise_seed = static_cast<std::uint64_t>(
      v.find("noise_seed") != nullptr ? v.find("noise_seed")->int_or(0) : 0);
  if (const json::Value* f = v.find("fault_spec"); f != nullptr) {
    h.fault_spec = f->str_or("");
  }
  h.fault_seed = static_cast<std::uint64_t>(
      v.find("fault_seed") != nullptr ? v.find("fault_seed")->int_or(0) : 0);
  if (const json::Value* f = v.find("retry_max_attempts"); f != nullptr) {
    h.retry_max_attempts = static_cast<int>(f->int_or(1));
  }
  if (const json::Value* f = v.find("retry_backoff_seconds"); f != nullptr) {
    h.retry_backoff_seconds = f->num_or(0.0);
  }
  if (const json::Value* f = v.find("nodes"); f != nullptr) {
    h.nodes = static_cast<std::size_t>(f->int_or(0));
  }
  if (const json::Value* f = v.find("wall_budget_seconds"); f != nullptr) {
    h.wall_budget_seconds = f->num_or(0.0);
  }
  if (const json::Value* f = v.find("formats"); f != nullptr) {
    h.formats = f->str_or("");
  }
  return h;
}

StatusOr<JournalVariant> parse_variant(const json::Value& v) {
  JournalVariant out;
  const json::Value* key = v.find("key");
  if (key == nullptr || !key->is_string()) {
    return Status(StatusCode::kParseError, "variant record has no key");
  }
  out.key = key->str_or("");
  out.stream = static_cast<std::uint64_t>(
      v.find("stream") != nullptr ? v.find("stream")->int_or(0) : 0);
  auto eval = evaluation_from_json(v);
  if (!eval.is_ok()) return eval.status();
  out.eval = std::move(eval.value());
  return out;
}

}  // namespace

std::string JournalHeader::mismatch(const JournalHeader& other) const {
  const auto differs = [](const std::string& what, const std::string& a,
                          const std::string& b) {
    return what + " ('" + a + "' vs '" + b + "')";
  };
  if (model != other.model) return differs("model", model, other.model);
  if (noise_seed != other.noise_seed) {
    return differs("noise seed", std::to_string(noise_seed),
                   std::to_string(other.noise_seed));
  }
  if (fault_spec != other.fault_spec) {
    return differs("fault spec", fault_spec, other.fault_spec);
  }
  if (fault_seed != other.fault_seed) {
    return differs("fault seed", std::to_string(fault_seed),
                   std::to_string(other.fault_seed));
  }
  if (retry_max_attempts != other.retry_max_attempts) {
    return differs("retry max attempts", std::to_string(retry_max_attempts),
                   std::to_string(other.retry_max_attempts));
  }
  if (retry_backoff_seconds != other.retry_backoff_seconds) {
    return differs("retry backoff", json_double(retry_backoff_seconds),
                   json_double(other.retry_backoff_seconds));
  }
  if (nodes != other.nodes) {
    return differs("cluster nodes", std::to_string(nodes),
                   std::to_string(other.nodes));
  }
  if (wall_budget_seconds != other.wall_budget_seconds) {
    return differs("wall budget", json_double(wall_budget_seconds),
                   json_double(other.wall_budget_seconds));
  }
  if (formats != other.formats) return differs("formats", formats, other.formats);
  return "";
}

StatusOr<JournalData> Journal::load(const std::string& path) {
  JournalData data;
  record_log::Schema schema;
  schema.header_type = "campaign";
  schema.noun = "journal";
  schema.accept_header = [&data](const json::Value& v) -> Status {
    auto header = parse_header(v);
    if (!header.is_ok()) return header.status();
    data.header = std::move(header.value());
    data.has_header = true;
    return Status::ok();
  };
  schema.accept_record = [&data](const json::Value& v) {
    // "batch", "diag" and "metrics" records are informational.
    const json::Value* type = v.find("type");
    if (type == nullptr || type->str_or("") != "variant") return true;
    auto variant = parse_variant(v);
    if (!variant.is_ok()) return false;
    data.variants.push_back(std::move(variant.value()));
    return true;
  };
  auto valid = record_log::recover_file(path, schema);
  if (!valid.is_ok()) return valid.status();
  data.valid_bytes = valid.value();
  return data;
}

StatusOr<std::unique_ptr<Journal>> Journal::open(
    const std::string& path, const JournalHeader& header,
    std::optional<std::size_t> keep_bytes) {
  auto file =
      record_log::File::open(path, keep_bytes.value_or(0), header_line(header));
  if (!file.is_ok()) {
    return Status(StatusCode::kInvalidArgument,
                  "journal: " + file.status().message());
  }
  return std::unique_ptr<Journal>(new Journal(std::move(file).value()));
}

Journal::Journal(record_log::File file) : file_(std::move(file)) {}

void Journal::append_line(const std::string& line, bool count_variant) {
  std::size_t killer = 0;
  {
    std::lock_guard lock(mu_);
    if (!file_.is_open()) return;
    trace::Span fsync_timer(m_fsync_seconds_);
    if (const Status s = file_.append(line); !s.is_ok()) {
      fsync_timer.drop_observation();
      error_ = Status(StatusCode::kInvalidArgument, "journal " + s.message());
      if (m_errors_ != nullptr) m_errors_->inc();
      std::fprintf(stderr,
                   "warning: %s — campaign continues without journaling\n",
                   error_.message().c_str());
      return;
    }
    fsync_timer.close();
    if (m_records_ != nullptr) m_records_->inc();
    if (count_variant) {
      ++appended_;
      if (kill_after_ > 0 && appended_ >= kill_after_) killer = appended_;
    }
  }
  if (killer > 0) {
    // Chaos knob: die *after* the record is durable, exactly like a node
    // loss between two evaluations. Raised outside the lock so the signal
    // handler (none, for SIGKILL) cannot deadlock.
    std::fprintf(stderr, "journal: chaos kill after %zu variants\n", killer);
    std::raise(SIGKILL);
  }
}

void Journal::append_variant(const std::string& key, std::uint64_t stream,
                             const Evaluation& e) {
  std::string line = "{\"type\":\"variant\"";
  line += ",\"key\":" + quoted(key);
  line += ",\"stream\":" + std::to_string(stream);
  append_evaluation_fields(line, e);
  line += "}\n";
  append_line(line, /*count_variant=*/true);
}

void Journal::append_diag(const BlameReport& r) {
  std::string line = "{\"type\":\"diag\"";
  line += ",\"key\":" + quoted(r.key);
  line += ",\"outcome\":" + quoted(to_string(r.outcome));
  line += ",\"max_rel_div\":" + json_double(r.max_rel_div);
  line += ",\"cancellations\":" + std::to_string(r.cancellations);
  line += ",\"control_divergences\":" + std::to_string(r.control_divergences);
  if (r.has_first_divergence) {
    line += ",\"first_divergence_proc\":" + quoted(r.first_divergence_proc);
    line += ",\"first_divergence_instr\":" +
            std::to_string(r.first_divergence_instr);
  }
  if (!r.fault_proc.empty()) {
    line += ",\"fault_proc\":" + quoted(r.fault_proc);
  }
  // Top of each ranking only — the journal is provenance, not the report.
  std::map<std::string, double> vars;
  for (const VariableBlame& v : r.variables) {
    if (!v.demoted) continue;
    vars[v.qualified] = v.max_rel_div;
    if (vars.size() >= 8) break;
  }
  line += ',';
  append_json_map(line, "variables", vars);
  std::map<std::string, double> procs;
  for (const ProcedureBlame& p : r.procedures) {
    procs[p.qualified] = p.blame;
    if (procs.size() >= 8) break;
  }
  line += ',';
  append_json_map(line, "procedures", procs);
  line += "}\n";
  append_line(line, /*count_variant=*/false);
}

void Journal::append_batch(std::size_t round, double cluster_seconds,
                           std::size_t variants) {
  std::string line = "{\"type\":\"batch\"";
  line += ",\"round\":" + std::to_string(round);
  line += ",\"cluster_seconds\":" + json_double(cluster_seconds);
  line += ",\"variants\":" + std::to_string(variants);
  line += "}\n";
  append_line(line, /*count_variant=*/false);
}

void Journal::append_metrics(const obs::MetricsSnapshot& snapshot) {
  std::string line = "{\"type\":\"metrics\"";
  std::map<std::string, double> scalars;
  for (const auto& s : snapshot.series) {
    if (s.kind != obs::SeriesKind::kHistogram) {
      scalars[s.name] = s.value;
      continue;
    }
    scalars[s.name + "_count"] = static_cast<double>(s.hist.count);
    scalars[s.name + "_sum"] = s.hist.sum;
    scalars[s.name + "_p50"] = s.hist.quantile(0.5);
    scalars[s.name + "_p99"] = s.hist.quantile(0.99);
  }
  line += ',';
  append_json_map(line, "series", scalars);
  line += "}\n";
  append_line(line, /*count_variant=*/false);
}

void Journal::set_metrics(obs::Registry* registry) {
  std::lock_guard lock(mu_);
  if (registry == nullptr) {
    m_records_ = nullptr;
    m_fsync_seconds_ = nullptr;
    m_errors_ = nullptr;
    return;
  }
  m_records_ = registry->counter("prose_journal_records_total",
                                 "Journal records made durable");
  m_fsync_seconds_ = registry->histogram("prose_journal_fsync_seconds",
                                         "Journal record write + fsync latency",
                                         obs::latency_buckets_seconds());
  m_errors_ = registry->counter(
      "prose_journal_errors_total",
      "Journal write/fsync failures (sticky degradation to no journaling)");
}

Status Journal::error() const {
  std::lock_guard lock(mu_);
  return error_;
}

void Journal::set_kill_after_variants(std::size_t n) {
  std::lock_guard lock(mu_);
  kill_after_ = n;
}

}  // namespace prose::tuner
